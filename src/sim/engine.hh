/**
 * @file
 * Discrete-event simulation engine with virtual nanosecond time.
 *
 * The engine is intentionally single-threaded and deterministic: events
 * fire in the total order (when, seq), where seq is the scheduling
 * order, so events at the same virtual time fire FIFO.  All
 * "concurrency" in the simulated machine (28 cores, devices, interrupt
 * handlers) is expressed as interleaved events over virtual time.
 * Many engines can coexist in one process (one per worker thread in a
 * `damn_bench --jobs` sweep); an Engine never touches shared state.
 *
 * Internals are built for dispatch rate, the simulator's wall-clock
 * bottleneck:
 *
 *  - the ready queue is a flat 4-ary heap of 24-byte nodes
 *    (when/seq/head), sifted with a hole rather than swaps;
 *  - one heap node serves every event of an instant that is scheduled
 *    back to back: schedule() appends to the FIFO chain of the most
 *    recently pushed node when its time matches and no batch (below)
 *    has begun since.  Chain members therefore hold consecutive seqs,
 *    so a node's seq (its first member's) still orders it exactly;
 *  - callbacks live as SmallFn values (64-byte inline buffer, see
 *    sim/small_fn.hh, which has no heap path) in slots carved from
 *    fixed-size blocks that never move, so schedule() allocates only
 *    when the events in flight outgrow every block so far.  schedule()
 *    constructs each callable in place in its slot (SmallFn::emplace)
 *    and dispatch runs it there, so a capture is copied or moved once,
 *    from the call site into the slot;
 *  - dispatch pops one node and runs its chain.  `until` and the stall
 *    watchdog are checked between batches: a batch is the events at
 *    the earliest time that were already scheduled when it began, so
 *    same-instant work scheduled from a callback forms the next batch.
 *
 * The unfinished chain of the node being dispatched is engine state,
 * not run()-local: a run() nested in a callback continues it before
 * popping anything else, and a callback that throws leaves the rest
 * of its chain pending.  Dispatch order is (when, seq) in every case.
 */

#ifndef DAMN_SIM_ENGINE_HH
#define DAMN_SIM_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace damn::sim {

/** Diagnostic snapshot captured when the stall watchdog trips. */
struct StallInfo
{
    TimeNs now = 0;                      //!< virtual time of the stall
    std::uint64_t dispatched = 0;        //!< lifetime dispatch count
    std::uint64_t pending = 0;           //!< events still queued
    std::uint64_t eventsSinceProgress = 0;
    std::uint64_t progressValue = 0;     //!< last probe reading
};

/**
 * Event-driven simulation core.  Owns the virtual clock and an ordered
 * queue of callbacks.
 */
class Engine
{
  public:
    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current virtual time. */
    TimeNs now() const { return now_; }

    /**
     * Schedule a callback at absolute virtual time @p when.
     * Scheduling in the past clamps to now().  The callable @p f is
     * constructed directly in its slot (SmallFn::emplace), so a capture
     * is copied or moved once, from the call site into the slot, and
     * dispatch runs it there.  @p f must satisfy SmallFn::kStorable.
     */
    template <typename F, typename = std::enable_if_t<
                              SmallFn::kStorable<std::decay_t<F>>>>
    void
    schedule(TimeNs when, F &&f)
    {
        if (free_ == nullptr)
            growSlots();
        // The slot leaves the freelist only once its callback is built,
        // so a throwing copy leaves the engine as it was.
        Slot *s = free_;
        s->cb.emplace(std::forward<F>(f));
        enqueue(when, s);
    }

    /** Schedule a callback @p delay ns from now. */
    template <typename F>
    void
    scheduleIn(TimeNs delay, F &&f)
    {
        schedule(now_ + delay, std::forward<F>(f));
    }

    /**
     * Run until the queue drains or virtual time would exceed @p until.
     * Events at exactly @p until still fire.
     * @return number of events dispatched.
     */
    std::uint64_t run(TimeNs until);

    /** Run until the event queue is empty. */
    std::uint64_t runAll() { return run(~TimeNs{0}); }

    /** Number of not-yet-dispatched events. */
    std::uint64_t pending() const { return live_; }

    /** Total events dispatched over the engine's lifetime. */
    std::uint64_t dispatched() const { return dispatched_; }

    // ---- Stall watchdog ---------------------------------------------
    //
    // Livelock/deadlock detector for pressure scenarios: retry loops
    // that keep the queue busy without the workload advancing would
    // otherwise spin run() forever.  Progress is measured by a caller
    // probe (e.g. a completed-segments counter); if it stays flat for
    // @p max_events_without_progress dispatches, run() records a
    // StallInfo diagnostic (lastStall()) and returns instead of
    // hanging.  Dispatch-count based, hence deterministic.

    /**
     * Arm (or re-arm) the watchdog.  @p progress is polled every few
     * dispatches; any change of its value counts as forward progress.
     * A null @p progress treats every dispatch as progress (watchdog
     * effectively only trips on a zero-progress probe — pass one).
     */
    void
    armWatchdog(std::uint64_t max_events_without_progress,
                std::function<std::uint64_t()> progress)
    {
        wdArmed_ = true;
        wdMax_ = max_events_without_progress
                     ? max_events_without_progress
                     : 1;
        wdProgress_ = std::move(progress);
        wdStride_ = wdMax_ / 2 < 1024 ? (wdMax_ / 2 ? wdMax_ / 2 : 1)
                                      : 1024;
        wdLastProgress_ = wdProgress_ ? wdProgress_() : 0;
        wdDispatchedAtProgress_ = dispatched_;
        wdLastCheck_ = dispatched_;
    }

    void disarmWatchdog() { wdArmed_ = false; }

    /** Stalls detected over the engine's lifetime. */
    std::uint64_t stallsDetected() const { return stalls_; }

    /** Diagnostics of the most recent stall (valid when > 0 stalls). */
    const StallInfo &lastStall() const { return lastStall_; }

  private:
    /** Callback storage cell; `next` links a chain or the freelist. */
    struct Slot
    {
        SmallFn cb;
        Slot *next = nullptr;
    };

    /** One ready-queue entry: the chain of events starting at `head`,
     *  all at `when`, the first with sequence number `seq`. */
    struct HeapNode
    {
        TimeNs when;
        std::uint64_t seq;
        Slot *head;
    };
    static_assert(sizeof(HeapNode) == 24, "heap nodes are 24 bytes");

    /** Slots per block; blocks never move once allocated. */
    static constexpr std::size_t kBlockSlots = 256;

    /** Take the filled freelist head @p s off the list and queue it
     *  at @p when (clamped to now()). */
    void
    enqueue(TimeNs when, Slot *s)
    {
        free_ = s->next;
        if (when < now_)
            when = now_;
        s->next = nullptr;
        ++live_;
        const std::uint64_t seq = nextSeq_++;
        if (chainTail_ != nullptr && when == chainWhen_) {
            chainTail_->next = s;
            chainTail_ = s;
            return;
        }
        heapPush(HeapNode{when, seq, s});
        chainWhen_ = when;
        chainTail_ = s;
    }

    void
    releaseSlot(Slot *s)
    {
        s->cb.reset();
        s->next = free_;
        free_ = s;
    }

    /** Earlier-fires-first: (when, seq) lexicographic. */
    static bool
    before(const HeapNode &a, const HeapNode &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void growSlots();
    void heapPush(HeapNode node);
    void heapPop();

    static constexpr unsigned kArity = 4;

    /** Watchdog check inside run(); true = stall, abandon the loop. */
    bool watchdogCheck();

    TimeNs now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t live_ = 0;
    std::uint64_t dispatched_ = 0;
    std::vector<HeapNode> heap_;
    std::vector<std::unique_ptr<Slot[]>> blocks_;
    Slot *free_ = nullptr;
    /** Tail of the most recently pushed node's chain while it still
     *  accepts same-instant appends (null from each batch's start). */
    Slot *chainTail_ = nullptr;
    TimeNs chainWhen_ = 0;
    /** Next event of the popped node being dispatched, if any. */
    Slot *cur_ = nullptr;

    // Stall-watchdog state.
    bool wdArmed_ = false;
    std::uint64_t wdMax_ = 0;
    std::uint64_t wdStride_ = 1024;
    std::uint64_t wdLastProgress_ = 0;
    std::uint64_t wdDispatchedAtProgress_ = 0;
    std::uint64_t wdLastCheck_ = 0;
    std::uint64_t stalls_ = 0;
    StallInfo lastStall_{};
    std::function<std::uint64_t()> wdProgress_;
};

} // namespace damn::sim

#endif // DAMN_SIM_ENGINE_HH
