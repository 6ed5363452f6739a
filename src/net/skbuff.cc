/**
 * @file
 * Skbuff accessor / TOCTTOU-guard implementation.
 */

#include "net/skbuff.hh"

#include <algorithm>
#include <cassert>

namespace damn::net {

void
SkbSegList::reserve(std::size_t n)
{
    if (n <= cap_)
        return;
    const std::size_t cap = std::max(cap_ * 2, n);
    auto grown = std::make_unique<SkbSegment[]>(cap);
    std::copy(begin(), end(), grown.get());
    spill_ = std::move(grown);
    cap_ = cap;
}

void
SkbSegList::steal(SkbSegList &o) noexcept
{
    if (o.spill_) {
        spill_ = std::move(o.spill_);
        cap_ = o.cap_;
    } else {
        spill_.reset();
        cap_ = kInline;
        std::copy(o.inline_, o.inline_ + o.size_, inline_);
    }
    size_ = o.size_;
    o.size_ = 0;
    o.cap_ = kInline;
}

void
SkbSegList::replace(std::size_t i, const SkbSegment *with, std::size_t n)
{
    assert(i < size_ && n > 0);
    reserve(size_ + n - 1);
    SkbSegment *d = data();
    std::copy_backward(d + i + 1, d + size_, d + size_ + n - 1);
    std::copy(with, with + n, d + i);
    size_ += n - 1;
}

bool
SkbAccessor::needsSecuring(const SkbSegment &seg) const
{
    // Decide by the *backing memory*, not the ownership marker: split
    // leftovers of a partially-secured segment are owner=Borrowed (the
    // bookkeeping piece owns the chunk reference) but still live in
    // device-writable DAMN memory and must be secured on access.
    if (seg.secured || seg.len == 0 || alloc_ == nullptr)
        return false;
    if (!alloc_->isDamnBuffer(seg.pa))
        return false;
    // Only device-*writable* memory can be changed under the OS's feet.
    const core::Rights r = alloc_->rightsOf(seg.pa);
    return r == core::Rights::Write || r == core::Rights::RW;
}

std::uint64_t
SkbAccessor::secureRange(sim::CpuCursor &cpu, SkBuff &skb,
                         std::uint32_t off, std::uint32_t len)
{
    std::uint64_t copied = 0;
    std::uint32_t cursor = 0;

    for (std::size_t i = 0; i < skb.segs.size() && len > 0; ++i) {
        SkbSegment &seg = skb.segs[i];
        const std::uint32_t seg_start = cursor;
        const std::uint32_t seg_end = cursor + seg.len;
        cursor = seg_end;
        if (off >= seg_end || off + len <= seg_start)
            continue;
        if (!needsSecuring(seg))
            continue;

        // Overlap of [off, off+len) with this segment, in segment-local
        // coordinates.
        const std::uint32_t lo = std::max(off, seg_start) - seg_start;
        const std::uint32_t hi =
            std::min<std::uint64_t>(off + std::uint64_t(len), seg_end) -
            seg_start;
        const std::uint32_t n = hi - lo;

        // Copy the accessed bytes into kernel memory the device cannot
        // reach (no device: a stock allocation).  Data was just DMAed,
        // so the source is LLC-warm.
        const SkbSegment safe = allocSeg(
            cpu, nullptr, n <= 4096 ? SegOwner::Kmalloc : SegOwner::Pages,
            core::Rights::Read, n);
        if (safe.pa == 0) {
            // No kernel memory to copy into, even after reclaim: leave
            // the range in device-visible memory (degraded protection,
            // counted) instead of crashing the consumer.
            ctx_.stats.add(sim::Ctr::SkbSecureFails);
            continue;
        }
        cpu.charge(ctx_.copyCost(
            cpu.time, n, ctx_.cost.warmCopyBytesPerNs,
            std::uint64_t(2.0 * n * ctx_.cost.copyMemTrafficFactor)));
        if (ctx_.functionalData)
            pm_.copy(safe.pa, seg.pa + lo, n);

        // Split the segment: [0,lo) raw | [lo,hi) secured | [hi,len).
        SkbSegment pieces[4];
        std::size_t k = 0;
        if (lo > 0) {
            SkbSegment &pre = pieces[k++];
            pre = seg;
            pre.len = lo;
            // Only the *last* owned piece keeps ownership so the
            // backing buffer is freed exactly once.
            pre.owner = SegOwner::Borrowed;
            pre.dmaMapped = false;
        }
        SkbSegment &sec = pieces[k++];
        sec = safe;
        sec.secured = true;
        if (hi < seg.len) {
            SkbSegment &post = pieces[k++];
            post = seg;
            post.pa = seg.pa + hi;
            post.len = seg.len - hi;
            post.owner = SegOwner::Borrowed;
            post.dmaMapped = false;
        }
        // The original backing buffer stays alive until the skb is
        // freed: hand its ownership (and DMA-mapping state) to a
        // zero-visible-length bookkeeping piece appended at the end of
        // the replacement pieces so freeSkb still releases it.
        SkbSegment &keeper = pieces[k++];
        keeper = seg;
        keeper.len = 0;
        keeper.secured = true;

        // `seg` dangles from here on: the list may move to the heap.
        skb.segs.replace(i, pieces, k);
        i += k - 1;

        copied += n;
        // Rewind the walk cursor: the replacement pieces cover the
        // same byte range as the original segment.
        cursor = seg_end;
    }

    ctx_.stats.add(sim::Ctr::GuardSecuredBytes, copied);
    return copied;
}

void
SkbAccessor::access(sim::CpuCursor &cpu, SkBuff &skb, std::uint32_t off,
                    std::uint32_t len, void *dst)
{
    assert(off + std::uint64_t(len) <= skb.len());
    secureRange(cpu, skb, off, len);

    if (dst != nullptr && ctx_.functionalData) {
        auto *out = static_cast<std::uint8_t *>(dst);
        std::uint32_t cursor = 0;
        std::uint32_t remaining = len;
        for (const SkbSegment &seg : skb.segs) {
            if (remaining == 0)
                break;
            const std::uint32_t seg_start = cursor;
            const std::uint32_t seg_end = cursor + seg.len;
            cursor = seg_end;
            if (off >= seg_end || seg.len == 0)
                continue;
            const std::uint32_t lo =
                off > seg_start ? off - seg_start : 0;
            const std::uint32_t n =
                std::min(seg.len - lo, remaining);
            pm_.read(seg.pa + lo, out, n);
            out += n;
            off += n;
            remaining -= n;
        }
        assert(remaining == 0);
    }
}

SkbSegment
SkbAccessor::allocSeg(sim::CpuCursor &cpu, dma::Device *dev,
                      SegOwner stock, core::Rights rights,
                      std::uint32_t bytes, core::AllocCtx actx)
{
    assert(stock == SegOwner::Kmalloc || stock == SegOwner::Pages ||
           stock == SegOwner::PageFrag);
    SkbSegment seg;
    seg.len = bytes;
    seg.owner = alloc_ != nullptr && dev != nullptr ? SegOwner::Damn
                                                    : stock;
    unsigned order = 0;
    if (stock == SegOwner::Pages)
        while ((mem::kPageSize << order) < bytes)
            ++order;
    if (seg.owner == SegOwner::Kmalloc)
        cpu.charge(ctx_.cost.kmallocNs);
    else if (seg.owner == SegOwner::Pages)
        cpu.charge(ctx_.cost.pageAllocNs);

    for (bool retried = false;; retried = true) {
        if (seg.owner == SegOwner::Damn && stock != SegOwner::Pages) {
            seg.pa = alloc_->damnAlloc(cpu, dev, rights, bytes, actx);
        } else if (seg.owner == SegOwner::Kmalloc) {
            seg.pa = heap_.kmalloc(bytes);
        } else if (seg.owner == SegOwner::PageFrag) {
            seg.pa = frag_.alloc(cpu, bytes);
        } else {
            const mem::Pfn pfn = seg.owner == SegOwner::Damn
                ? alloc_->damnAllocPages(cpu, dev, rights, order, actx)
                : pageAlloc_.allocPages(order, cpu.numa());
            seg.pa = pfn == mem::kInvalidPfn ? 0 : mem::pfnToPa(pfn);
        }
        if (seg.pa != 0) {
            if (seg.owner == SegOwner::Pages)
                seg.pageOrder = std::uint8_t(order);
            return seg;
        }
        if (retried)
            break;
        ctx_.pressure.reclaim(cpu);
    }
    seg.owner = SegOwner::Borrowed;
    return seg;
}

void
SkbAccessor::freeSkb(sim::CpuCursor &cpu, SkBuff &skb,
                     core::AllocCtx actx)
{
    for (SkbSegment &seg : skb.segs) {
        assert(!seg.dmaMapped &&
               "freeing an skb segment still mapped for DMA");
        switch (seg.owner) {
          case SegOwner::Damn:
            assert(alloc_ != nullptr);
            alloc_->damnFree(cpu, seg.pa, actx);
            break;
          case SegOwner::Kmalloc:
            cpu.charge(ctx_.cost.kmallocNs);
            heap_.kfree(seg.pa);
            break;
          case SegOwner::Pages:
            cpu.charge(ctx_.cost.pageAllocNs);
            pageAlloc_.freePages(mem::paToPfn(seg.pa), seg.pageOrder);
            break;
          case SegOwner::PageFrag:
            frag_.free(cpu, seg.pa);
            break;
          case SegOwner::Borrowed:
            break;
        }
        seg.owner = SegOwner::Borrowed;
    }
    skb.segs.clear();
}

} // namespace damn::net
