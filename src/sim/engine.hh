/**
 * @file
 * Discrete-event simulation engine with virtual nanosecond time.
 *
 * The engine is intentionally single-threaded and deterministic: events
 * scheduled at the same virtual time fire in scheduling order.  All
 * "concurrency" in the simulated machine (28 cores, devices, interrupt
 * handlers) is expressed as interleaved events over virtual time.
 * Many engines can coexist in one process (one per worker thread in a
 * `damn_bench --jobs` sweep); an Engine never touches shared state.
 *
 * Internals are built for dispatch rate, the simulator's wall-clock
 * bottleneck:
 *
 *  - the ready queue is a flat 4-ary heap of 24-byte nodes
 *    (when/seq/slot) — shallower than a binary heap and sift paths
 *    touch four children per cache line instead of two per two;
 *  - callbacks live in a slab of generation-tagged slots as SmallFn
 *    values (48-byte inline buffer, see sim/small_fn.hh), so
 *    schedule() and dispatch are allocation-free for every callback
 *    in tree;
 *  - cancel() is O(1) and allocation-free: it frees the slot and bumps
 *    its generation, leaving a stale heap node that is recognized (by
 *    sequence mismatch) and skipped when it surfaces — no
 *    unordered_set, no per-pop hash lookup;
 *  - events sharing the minimal timestamp are popped as one batch
 *    before any of them runs, so the per-event loop does one heap
 *    operation and no repeated `until` comparisons.
 *
 * Handles returned by schedule() encode (slot, generation); a handle
 * whose event already dispatched or was already cancelled is simply
 * stale — cancel() returns false and corrupts no bookkeeping, and
 * pending() is exact at all times.
 */

#ifndef DAMN_SIM_ENGINE_HH
#define DAMN_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
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
    using Callback = SmallFn;

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current virtual time. */
    TimeNs now() const { return now_; }

    /**
     * Schedule a callback at absolute virtual time @p when.
     * Scheduling in the past clamps to now().
     * @return a handle usable with cancel().
     */
    std::uint64_t
    schedule(TimeNs when, Callback cb)
    {
        if (when < now_)
            when = now_;
        const std::uint32_t slot = acquireSlot();
        Slot &s = slots_[slot];
        s.cb = std::move(cb);
        s.seq = nextSeq_++;
        heapPush(HeapNode{when, s.seq, slot});
        ++live_;
        return handleOf(slot, s.gen);
    }

    /** Schedule a callback @p delay ns from now. */
    std::uint64_t
    scheduleIn(TimeNs delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /**
     * Cancel a previously scheduled event: O(1), allocation-free.  The
     * callback is destroyed immediately; its heap node stays behind
     * and is skipped (by generation/sequence mismatch) when popped.
     * @return true if the handle was live; false for handles whose
     * event already dispatched or was already cancelled (stale handles
     * are recognized exactly — they never perturb bookkeeping).
     */
    bool
    cancel(std::uint64_t id)
    {
        const std::uint32_t slot = slotOf(id);
        if (slot >= slots_.size())
            return false;
        Slot &s = slots_[slot];
        if (s.gen != genOf(id) || s.seq == 0)
            return false;
        releaseSlot(slot);
        --live_;
        return true;
    }

    /**
     * Run until the queue drains or virtual time would exceed @p until.
     * Events at exactly @p until still fire.
     * @return number of events dispatched.
     */
    std::uint64_t run(TimeNs until);

    /** Run until the event queue is empty. */
    std::uint64_t runAll() { return run(~TimeNs{0}); }

    /** Number of not-yet-dispatched (and not cancelled) events. */
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
    // StallInfo diagnostic, invokes the optional callback, and returns
    // instead of hanging.  Dispatch-count based, hence deterministic.

    /**
     * Arm (or re-arm) the watchdog.  @p progress is polled every few
     * dispatches; any change of its value counts as forward progress.
     * A null @p progress treats every dispatch as progress (watchdog
     * effectively only trips on a zero-progress probe — pass one).
     */
    void
    armWatchdog(std::uint64_t max_events_without_progress,
                std::function<std::uint64_t()> progress,
                std::function<void(const StallInfo &)> on_stall = {})
    {
        wdArmed_ = true;
        wdMax_ = max_events_without_progress
                     ? max_events_without_progress
                     : 1;
        wdProgress_ = std::move(progress);
        wdOnStall_ = std::move(on_stall);
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
    /** One ready-queue entry; `seq` both orders same-time events FIFO
     *  and detects stale nodes whose slot was cancelled or reused. */
    struct HeapNode
    {
        TimeNs when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Callback storage cell.  seq == 0 means free (on the freelist);
     *  gen counts reuses so stale handles/nodes are recognized. */
    struct Slot
    {
        SmallFn cb;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = kNoSlot;
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    static std::uint64_t
    handleOf(std::uint32_t slot, std::uint32_t gen)
    {
        return (std::uint64_t(gen) << 32) | slot;
    }
    static std::uint32_t slotOf(std::uint64_t id)
    {
        return std::uint32_t(id);
    }
    static std::uint32_t genOf(std::uint64_t id)
    {
        return std::uint32_t(id >> 32);
    }

    std::uint32_t
    acquireSlot()
    {
        if (freeHead_ != kNoSlot) {
            const std::uint32_t slot = freeHead_;
            freeHead_ = slots_[slot].nextFree;
            return slot;
        }
        slots_.emplace_back();
        return std::uint32_t(slots_.size() - 1);
    }

    void
    releaseSlot(std::uint32_t slot)
    {
        Slot &s = slots_[slot];
        s.cb.reset();
        s.seq = 0;
        ++s.gen;
        s.nextFree = freeHead_;
        freeHead_ = slot;
    }

    /** Earlier-fires-first: (when, seq) lexicographic. */
    static bool
    before(const HeapNode &a, const HeapNode &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

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
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNoSlot;

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
    std::function<void(const StallInfo &)> wdOnStall_;
};

} // namespace damn::sim

#endif // DAMN_SIM_ENGINE_HH
