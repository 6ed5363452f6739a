/**
 * @file
 * Engine event loop: slot blocks, 4-ary heap maintenance and the
 * chained dispatch loop.
 */

#include "sim/engine.hh"

namespace damn::sim {

void
Engine::growSlots()
{
    blocks_.push_back(std::make_unique<Slot[]>(kBlockSlots));
    Slot *block = blocks_.back().get();
    for (std::size_t i = kBlockSlots; i-- > 0;) {
        block[i].next = free_;
        free_ = &block[i];
    }
}

void
Engine::heapPush(HeapNode node)
{
    std::size_t i = heap_.size();
    heap_.push_back(node);
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!before(node, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = node;
}

void
Engine::heapPop()
{
    const HeapNode last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t end = first + kArity < n ? first + kArity : n;
        for (std::size_t c = first + 1; c < end; ++c)
            if (before(heap_[c], heap_[best]))
                best = c;
        if (!before(heap_[best], last))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
}

std::uint64_t
Engine::run(TimeNs until)
{
    // Frees the slot of the running callback however it exits.
    struct Release
    {
        Engine &e;
        Slot *s;
        ~Release() { e.releaseSlot(s); }
    };

    std::uint64_t n = 0;
    for (;;) {
        // A batch is every event at time t scheduled before it began:
        // an unfinished chain (t = now_) plus the nodes at t whose seq
        // predates `batch`.  Same-instant events its callbacks schedule
        // get higher seqs and form the next batch.
        TimeNs t;
        if (cur_ != nullptr)
            t = now_;
        else if (!heap_.empty())
            t = heap_[0].when;
        else
            break;
        if (t > until)
            break;
        const std::uint64_t batch = nextSeq_;
        // Closing the open chain keeps every node with seq < batch free
        // of events scheduled during the batch.  It also means no node
        // popped below still accepts appends: a node pushed during the
        // batch has seq >= batch and is not popped until a later one.
        chainTail_ = nullptr;
        for (;;) {
            if (cur_ == nullptr) {
                if (heap_.empty() || heap_[0].when != t ||
                    heap_[0].seq >= batch)
                    break;
                cur_ = heap_[0].head;
                heapPop();
                now_ = t;
            }
            Slot *s = cur_;
            cur_ = s->next;
            --live_;
            ++dispatched_;
            ++n;
            Release release{*this, s};
            s->cb();
        }
        // Cheap when unarmed: one branch per batch.
        if (wdArmed_ && dispatched_ - wdLastCheck_ >= wdStride_ &&
            watchdogCheck())
            break;
    }
    return n;
}

bool
Engine::watchdogCheck()
{
    wdLastCheck_ = dispatched_;
    const std::uint64_t p = wdProgress_ ? wdProgress_() : dispatched_;
    if (p != wdLastProgress_) {
        wdLastProgress_ = p;
        wdDispatchedAtProgress_ = dispatched_;
        return false;
    }
    if (dispatched_ - wdDispatchedAtProgress_ < wdMax_)
        return false;
    ++stalls_;
    lastStall_ = StallInfo{now_, dispatched_, live_,
                           dispatched_ - wdDispatchedAtProgress_, p};
    // Re-baseline so a caller that chooses to continue running is not
    // re-tripped on the very next batch.
    wdDispatchedAtProgress_ = dispatched_;
    return true;
}

} // namespace damn::sim
