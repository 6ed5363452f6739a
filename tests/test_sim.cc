/**
 * @file
 * Unit tests for the simulation substrate: engine, machine, locks,
 * bandwidth server, RNG, cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/context.hh"
#include "sim/cpu_cursor.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "sim/sim_mutex.hh"

using namespace damn::sim;

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

TEST(Engine, StartsAtZero)
{
    Engine e;
    EXPECT_EQ(e.now(), 0u);
    EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, DispatchesInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    e.schedule(30, [&] { order.push_back(3); });
    e.schedule(10, [&] { order.push_back(1); });
    e.schedule(20, [&] { order.push_back(2); });
    e.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeIsFifo)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        e.schedule(5, [&order, i] { order.push_back(i); });
    e.runAll();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Engine, NowAdvancesToEventTime)
{
    Engine e;
    TimeNs seen = 0;
    e.schedule(1234, [&] { seen = e.now(); });
    e.runAll();
    EXPECT_EQ(seen, 1234u);
    EXPECT_EQ(e.now(), 1234u);
}

TEST(Engine, RunStopsAtLimit)
{
    Engine e;
    int fired = 0;
    e.schedule(100, [&] { ++fired; });
    e.schedule(200, [&] { ++fired; });
    e.run(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.pending(), 1u);
    e.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(Engine, EventAtExactLimitFires)
{
    Engine e;
    int fired = 0;
    e.schedule(150, [&] { ++fired; });
    e.run(150);
    EXPECT_EQ(fired, 1);
}

TEST(Engine, PastSchedulingClampsToNow)
{
    Engine e;
    TimeNs when = ~TimeNs{0};
    e.schedule(100, [&] {
        e.schedule(50, [&] { when = e.now(); }); // in the past
    });
    e.runAll();
    EXPECT_EQ(when, 100u);
}

TEST(Engine, ScheduleInIsRelative)
{
    Engine e;
    TimeNs seen = 0;
    e.schedule(100, [&] {
        e.scheduleIn(50, [&] { seen = e.now(); });
    });
    e.runAll();
    EXPECT_EQ(seen, 150u);
}

TEST(Engine, SelfPerpetuatingChainStopsAtLimit)
{
    Engine e;
    std::uint64_t count = 0;
    std::function<void()> tick = [&] {
        ++count;
        e.scheduleIn(10, tick);
    };
    e.schedule(0, tick);
    e.run(1000);
    EXPECT_EQ(count, 101u); // t = 0, 10, ..., 1000
}

TEST(Engine, DispatchedCounts)
{
    Engine e;
    for (int i = 0; i < 5; ++i)
        e.schedule(TimeNs(i), [] {});
    e.runAll();
    EXPECT_EQ(e.dispatched(), 5u);
}

// Events scheduled *at the current instant* from inside a batch fire
// after the whole batch, in scheduling order.
TEST(Engine, SameInstantScheduleFromBatchRunsAfterBatch)
{
    Engine e;
    std::vector<int> order;
    e.schedule(10, [&] {
        order.push_back(1);
        e.scheduleIn(0, [&] { order.push_back(3); });
    });
    e.schedule(10, [&] { order.push_back(2); });
    e.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// A capture of exactly SmallFn::kInlineBytes is stored and run inside
// the SmallFn itself, and runs through the engine.
TEST(Engine, InlineBufferSizedCallbackRunsInPlace)
{
    std::array<std::uint64_t, 6> payload{};
    payload.fill(7);
    std::uint64_t sum = 0;
    const void *at = nullptr;
    const auto cb = [payload, &sum, &at] {
        at = &payload;
        for (const auto v : payload)
            sum += v;
    };
    static_assert(sizeof(cb) == SmallFn::kInlineBytes);

    SmallFn fn(cb);
    fn();
    const auto *lo = reinterpret_cast<const unsigned char *>(&fn);
    const auto *p = static_cast<const unsigned char *>(at);
    EXPECT_TRUE(p >= lo && p < lo + sizeof(SmallFn));
    EXPECT_EQ(sum, 6u * 7u);

    Engine e;
    e.schedule(5, cb);
    e.runAll();
    EXPECT_EQ(sum, 2u * 6u * 7u);
}

namespace {
/** Callable that counts its move constructions and its runs. */
struct MoveCounter
{
    int *moves;
    int *runs;

    MoveCounter(int *m, int *r) : moves(m), runs(r) {}
    MoveCounter(const MoveCounter &) = default;
    MoveCounter(MoveCounter &&o) noexcept : moves(o.moves), runs(o.runs)
    {
        ++*moves;
    }
    void operator()() const { ++*runs; }
};
} // namespace

// schedule() builds the callable in its slot: an lvalue is copied there
// and never moved again before dispatch; an rvalue is moved once.
TEST(Engine, ScheduleConstructsCallbackInItsSlot)
{
    int moves = 0, runs = 0;
    Engine e;
    const MoveCounter cb(&moves, &runs);
    e.schedule(5, cb);
    e.scheduleIn(7, cb);
    for (int i = 0; i < 300; ++i) // past one slot block
        e.schedule(TimeNs(10 + i % 7), cb);
    e.runAll();
    EXPECT_EQ(runs, 302);
    EXPECT_EQ(moves, 0);

    e.schedule(e.now() + 1, MoveCounter(&moves, &runs));
    e.runAll();
    EXPECT_EQ(runs, 303);
    EXPECT_EQ(moves, 1);
}

namespace {
template <typename T>
concept Schedulable = requires(Engine &e, T &&t) {
    e.schedule(TimeNs{0}, std::forward<T>(t));
};
} // namespace
// A built SmallFn does not schedule: it cannot leave its own storage.
static_assert(!Schedulable<SmallFn>);
static_assert(!Schedulable<SmallFn &>);
static_assert(!Schedulable<const SmallFn &>);
static_assert(Schedulable<void (*)()>);

// emplace() replaces the held callable in place.
TEST(SmallFn, EmplaceReplacesTheCallable)
{
    int a = 0, b = 0;
    SmallFn fn([&a] { ++a; });
    fn.emplace([&b] { ++b; });
    fn();
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
}

// SmallFn has no heap fallback: a larger capture does not convert.
namespace {
struct Oversized
{
    std::array<std::uint64_t, SmallFn::kInlineBytes / 8 + 1> payload{};
    void operator()() const {}
};
} // namespace
static_assert(!std::is_constructible_v<SmallFn, Oversized>);
static_assert(std::is_constructible_v<SmallFn, void (*)()>);

namespace {

/**
 * Reference engine for the differential tests: a map keyed by
 * (when, seq), dispatched in key order, with `until` and the watchdog
 * checked at batch boundaries.  A batch is the events at the earliest
 * time that were scheduled before it began.
 */
class RefEngine
{
  public:
    TimeNs now() const { return now_; }
    std::uint64_t pending() const { return q_.size(); }
    std::uint64_t dispatched() const { return dispatched_; }
    std::uint64_t stallsDetected() const { return stalls_; }
    const StallInfo &lastStall() const { return lastStall_; }

    void
    schedule(TimeNs when, std::function<void()> cb)
    {
        q_.emplace(std::pair{std::max(when, now_), nextSeq_++},
                   std::move(cb));
    }

    void
    armWatchdog(std::uint64_t max, std::function<std::uint64_t()> probe)
    {
        wdArmed_ = true;
        wdMax_ = max ? max : 1;
        wdStride_ = wdMax_ / 2 < 1024 ? (wdMax_ / 2 ? wdMax_ / 2 : 1)
                                      : 1024;
        wdProbe_ = std::move(probe);
        wdLastProgress_ = wdProbe_();
        wdDispatchedAtProgress_ = dispatched_;
        wdLastCheck_ = dispatched_;
    }

    std::uint64_t
    run(TimeNs until)
    {
        std::uint64_t n = 0;
        while (!q_.empty()) {
            const TimeNs t = q_.begin()->first.first;
            if (t > until)
                break;
            const std::uint64_t batch = nextSeq_;
            while (!q_.empty() && q_.begin()->first.first == t &&
                   q_.begin()->first.second < batch) {
                std::function<void()> cb = std::move(q_.begin()->second);
                q_.erase(q_.begin());
                now_ = t;
                ++dispatched_;
                ++n;
                cb();
            }
            if (wdArmed_ && dispatched_ - wdLastCheck_ >= wdStride_ &&
                watchdogCheck())
                break;
        }
        return n;
    }

  private:
    bool
    watchdogCheck()
    {
        wdLastCheck_ = dispatched_;
        const std::uint64_t p = wdProbe_();
        if (p != wdLastProgress_) {
            wdLastProgress_ = p;
            wdDispatchedAtProgress_ = dispatched_;
            return false;
        }
        if (dispatched_ - wdDispatchedAtProgress_ < wdMax_)
            return false;
        ++stalls_;
        lastStall_ = StallInfo{now_, dispatched_, q_.size(),
                               dispatched_ - wdDispatchedAtProgress_, p};
        wdDispatchedAtProgress_ = dispatched_;
        return true;
    }

    TimeNs now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t dispatched_ = 0;
    std::map<std::pair<TimeNs, std::uint64_t>, std::function<void()>> q_;
    bool wdArmed_ = false;
    std::uint64_t wdMax_ = 0;
    std::uint64_t wdStride_ = 1;
    std::uint64_t wdLastProgress_ = 0;
    std::uint64_t wdDispatchedAtProgress_ = 0;
    std::uint64_t wdLastCheck_ = 0;
    std::uint64_t stalls_ = 0;
    StallInfo lastStall_{};
    std::function<std::uint64_t()> wdProbe_;
};

/**
 * A random event script run on engine type E.  Each event's actions
 * derive from (seed, event id) alone, so two engines that dispatch in
 * the same order run the same script.  Events schedule children at the
 * same instant, in the past (clamped) or a few ns ahead, bump a
 * progress counter, and now and then call run() from inside a
 * callback.
 */
template <typename E>
struct Script
{
    explicit Script(std::uint64_t s) : seed(s) {}

    void
    spawn(TimeNs when)
    {
        const std::uint64_t id = nextId++;
        e.schedule(when, [this, id] { fire(id); });
    }

    void
    fire(std::uint64_t id)
    {
        order.push_back(id);
        Rng r((seed << 20) ^ (id * 0x9e3779b97f4a7c15ull));
        if (r.chance(0.1))
            ++progress;
        const std::uint64_t kids = r.below(4);
        for (std::uint64_t k = 0; k < kids && budget > 0; ++k) {
            --budget;
            const TimeNs now = e.now();
            switch (r.below(6)) {
              case 0:
              case 1:
                spawn(now);
                break;
              case 2:
                spawn(r.below(now + 1)); // past (or now): clamps
                break;
              default:
                spawn(now + 1 + r.below(8));
                break;
            }
        }
        if (depth < 2 && r.chance(0.03)) {
            ++depth;
            const TimeNs until = e.now() + r.below(4);
            const std::uint64_t n = e.run(until > 0 ? until - 1 : 0);
            --depth;
            nested.insert(nested.end(),
                          {n, e.now(), e.pending(), e.dispatched()});
        }
    }

    E e;
    std::uint64_t seed;
    std::uint64_t nextId = 0;
    std::uint64_t budget = 2000;
    std::uint64_t progress = 0;
    unsigned depth = 0;
    std::vector<std::uint64_t> order;  //!< event ids, dispatch order
    std::vector<std::uint64_t> nested; //!< state after each nested run
};

void
expectSameStall(const StallInfo &a, const StallInfo &b)
{
    EXPECT_EQ(a.now, b.now);
    EXPECT_EQ(a.dispatched, b.dispatched);
    EXPECT_EQ(a.pending, b.pending);
    EXPECT_EQ(a.eventsSinceProgress, b.eventsSinceProgress);
    EXPECT_EQ(a.progressValue, b.progressValue);
}

/** Run one script on Engine and RefEngine in lockstep; every run()
 *  must agree on order, now(), pending() and dispatched(). */
/** What a batch of scripts exercised, so the tests cannot pass
 *  vacuously. */
struct Coverage
{
    std::uint64_t events = 0;
    std::uint64_t nestedRuns = 0;
    std::uint64_t stalls = 0;
};

void
runDifferential(std::uint64_t seed, bool watchdog, Coverage &cov)
{
    Script<Engine> a(seed);
    Script<RefEngine> b(seed);
    Rng top(seed);
    if (watchdog) {
        const std::uint64_t max = top.between(1, 64);
        a.e.armWatchdog(max, [&a] { return a.progress; });
        b.e.armWatchdog(max, [&b] { return b.progress; });
    }
    for (std::uint64_t i = top.between(1, 12); i > 0; --i) {
        const TimeNs t = top.below(10);
        a.spawn(t);
        b.spawn(t);
    }
    for (unsigned step = 0; a.e.pending() > 0 || b.e.pending() > 0;
         ++step) {
        ASSERT_LT(step, 100000u);
        // Coarse times: `until` often equals a chained instant.
        const TimeNs until = top.chance(0.05)
                                 ? ~TimeNs{0}
                                 : a.e.now() + top.below(12);
        ASSERT_EQ(a.e.run(until), b.e.run(until));
        ASSERT_EQ(a.order, b.order);
        ASSERT_EQ(a.nested, b.nested);
        ASSERT_EQ(a.e.now(), b.e.now());
        ASSERT_EQ(a.e.pending(), b.e.pending());
        ASSERT_EQ(a.e.dispatched(), b.e.dispatched());
        ASSERT_EQ(a.e.stallsDetected(), b.e.stallsDetected());
        if (a.e.stallsDetected() > 0)
            expectSameStall(a.e.lastStall(), b.e.lastStall());
        if (top.chance(0.2)) {
            const TimeNs t = top.below(a.e.now() + 10);
            a.spawn(t);
            b.spawn(t);
        }
    }
    cov.events += a.order.size();
    cov.nestedRuns += a.nested.size() / 4;
    cov.stalls += a.e.stallsDetected();
}

} // namespace

TEST(Engine, MatchesReferenceOrderOnRandomScripts)
{
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        runDifferential(seed, false, cov);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(cov.events, 100000u);
    EXPECT_GT(cov.nestedRuns, 1000u);
}

TEST(Engine, WatchdogMatchesBatchBoundaryReference)
{
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        runDifferential(seed, true, cov);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(cov.stalls, 100u);
}

// A callback that throws leaves run() with the exception; the rest of
// its same-instant chain stays pending, and tearing the engine down
// destroys every remaining callback exactly once.
TEST(Engine, ThrowingCallbackLeavesRestPendingAndDestroyedOnce)
{
    struct Tracked
    {
        explicit Tracked(std::shared_ptr<int> d) : destroyed(std::move(d))
        {}
        Tracked(Tracked &&) noexcept = default;
        ~Tracked()
        {
            if (destroyed)
                ++*destroyed;
        }
        std::shared_ptr<int> destroyed;
    };
    auto destroyed = std::make_shared<int>(0);
    int fired = 0;
    {
        Engine e;
        e.schedule(10, [t = Tracked(destroyed), &fired] { ++fired; });
        e.schedule(10, [t = Tracked(destroyed)] {
            throw std::runtime_error("callback failed");
        });
        e.schedule(10, [t = Tracked(destroyed), &fired] { ++fired; });
        e.schedule(20, [t = Tracked(destroyed), &fired] { ++fired; });
        EXPECT_THROW(e.runAll(), std::runtime_error);
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(e.now(), 10u);
        EXPECT_EQ(e.dispatched(), 2u);
        EXPECT_EQ(e.pending(), 2u);
        EXPECT_EQ(*destroyed, 2); // the two that ran
        EXPECT_EQ(destroyed.use_count(), 3);
    }
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(*destroyed, 4);
    EXPECT_EQ(destroyed.use_count(), 1);
}

// ---------------------------------------------------------------------
// Core / Machine
// ---------------------------------------------------------------------

TEST(Core, ChargeAccumulatesBusyTime)
{
    Core c(0, 0);
    EXPECT_EQ(c.charge(0, 100), 100u);
    EXPECT_EQ(c.busyNs(), 100u);
    EXPECT_EQ(c.charge(100, 50), 150u);
    EXPECT_EQ(c.busyNs(), 150u);
}

TEST(Core, ChargeSerializesWork)
{
    Core c(0, 0);
    c.charge(0, 100);
    // New work "arriving" at t=20 must wait until t=100.
    EXPECT_EQ(c.charge(20, 30), 130u);
}

TEST(Core, ChargeAfterIdleGap)
{
    Core c(0, 0);
    c.charge(0, 100);
    EXPECT_EQ(c.charge(500, 10), 510u);
    EXPECT_EQ(c.busyNs(), 110u); // the idle gap is not busy
}

TEST(Core, OccupyBooksFraction)
{
    Core c(0, 0);
    c.occupy(0, 1000, 0.25);
    EXPECT_EQ(c.busyNs(), 250u);
    EXPECT_EQ(c.freeAt(), 1000u);
}

TEST(Core, ResetAccountingClearsBusyNotFreeAt)
{
    Core c(0, 0);
    c.charge(0, 100);
    c.resetAccounting();
    EXPECT_EQ(c.busyNs(), 0u);
    EXPECT_EQ(c.freeAt(), 100u);
}

TEST(Machine, TopologyInterleavesSockets)
{
    Machine m(2, 14);
    EXPECT_EQ(m.numCores(), 28u);
    EXPECT_EQ(m.numaOf(0), 0u);
    EXPECT_EQ(m.numaOf(1), 1u);
    EXPECT_EQ(m.numaOf(2), 0u);
    EXPECT_EQ(m.numaOf(27), 1u);
}

TEST(Machine, UtilizationConvention)
{
    // Paper convention: one fully busy core out of 28 = 3.57%.
    Machine m(2, 14);
    m.core(0).charge(0, 1000);
    EXPECT_NEAR(m.utilizationPct(1000), 100.0 / 28, 0.01);
    EXPECT_NEAR(m.coreUtilizationPct(0, 1000), 100.0, 0.01);
}

TEST(Machine, TotalBusySums)
{
    Machine m(1, 4);
    m.core(0).charge(0, 100);
    m.core(3).charge(0, 200);
    EXPECT_EQ(m.totalBusyNs(), 300u);
}

// ---------------------------------------------------------------------
// SimMutex / SerialResource
// ---------------------------------------------------------------------

TEST(SimMutex, UncontendedAcquireCostsHoldOnly)
{
    Core c(0, 0);
    SimMutex m;
    EXPECT_EQ(m.acquireAndHold(c, 100, 50), 150u);
    EXPECT_EQ(m.totalSpinNs(), 0u);
    EXPECT_EQ(c.busyNs(), 50u);
}

TEST(SimMutex, ContendedAcquireSpins)
{
    Core a(0, 0), b(1, 0);
    SimMutex m;
    m.acquireAndHold(a, 0, 100);
    EXPECT_EQ(m.acquireAndHold(b, 30, 10), 110u);
    EXPECT_EQ(m.totalSpinNs(), 70u);
    EXPECT_EQ(b.busyNs(), 80u); // 70 spin + 10 hold
}

TEST(SimMutex, PartialSpinBusyFraction)
{
    Core a(0, 0), b(1, 0);
    SimMutex m;
    m.acquireAndHold(a, 0, 100);
    m.acquireAndHold(b, 0, 100, 0.5);
    // b spun 100 (50 busy) then held 100 (fully busy).
    EXPECT_EQ(b.busyNs(), 150u);
    EXPECT_EQ(b.freeAt(), 200u);
}

TEST(SimMutex, SerializesManyAcquirers)
{
    Machine mach(1, 8);
    SimMutex m;
    TimeNs last = 0;
    for (unsigned i = 0; i < 8; ++i)
        last = m.acquireAndHold(mach.core(i), 0, 100);
    EXPECT_EQ(last, 800u);
    EXPECT_EQ(m.acquisitions(), 8u);
    EXPECT_EQ(m.maxSpinNs(), 700u);
}

TEST(SerialResource, FifoService)
{
    SerialResource r;
    EXPECT_EQ(r.submit(0, 100), 100u);
    EXPECT_EQ(r.submit(0, 100), 200u);
    EXPECT_EQ(r.submit(500, 100), 600u); // idle gap
    EXPECT_EQ(r.busyNs(), 300u);
    EXPECT_EQ(r.requests(), 3u);
}

// ---------------------------------------------------------------------
// MemBwServer
// ---------------------------------------------------------------------

TEST(MemBw, TransferPacesAtCapacity)
{
    MemBwServer bw(10.0); // 10 B/ns
    EXPECT_EQ(bw.transfer(0, 1000), 100u);
    EXPECT_EQ(bw.transfer(0, 1000), 200u); // queues behind the first
    EXPECT_EQ(bw.totalBytes(), 2000u);
}

TEST(MemBw, IdleGapResets)
{
    MemBwServer bw(10.0);
    bw.transfer(0, 1000);
    EXPECT_EQ(bw.transfer(1000, 100), 1010u);
}

TEST(MemBw, AchievedBandwidth)
{
    MemBwServer bw(10.0);
    bw.transfer(0, 5000);
    EXPECT_DOUBLE_EQ(bw.achievedGBps(1000), 5.0);
    bw.resetAccounting();
    EXPECT_EQ(bw.totalBytes(), 0u);
}

TEST(MemBw, UtilizationTracksSustainedLoad)
{
    MemBwServer bw(10.0);
    // Inject 50% load over 1 ms: 500 B every 100 ns costs 50 ns.
    for (TimeNs t = 0; t < 1'000'000; t += 100)
        bw.occupy(t, 500);
    const double rho = bw.utilization(1'000'000);
    EXPECT_NEAR(rho, 0.5, 0.05);
}

TEST(MemBw, UtilizationDropsWhenLoadStops)
{
    MemBwServer bw(10.0);
    for (TimeNs t = 0; t < 500'000; t += 100)
        bw.occupy(t, 1000);
    // 400 us later the window has rolled past the load entirely.
    EXPECT_NEAR(bw.utilization(900'000), 0.0, 0.01);
}

TEST(MemBw, StallFactorShape)
{
    EXPECT_DOUBLE_EQ(memStallFactor(0.0), 1.0);
    EXPECT_DOUBLE_EQ(memStallFactor(0.8), 1.0);
    EXPECT_NEAR(memStallFactor(0.9), 2.0, 1e-9);
    EXPECT_LE(memStallFactor(1.5), 5.0);
    // Monotone.
    double prev = 0.0;
    for (double r = 0.0; r < 1.2; r += 0.01) {
        EXPECT_GE(memStallFactor(r), prev);
        prev = memStallFactor(r);
    }
}

TEST(MemBw, OutOfOrderTimestampsTolerated)
{
    MemBwServer bw(10.0);
    bw.occupy(500'000, 1000);
    bw.occupy(100'000, 1000); // late-arriving injection
    EXPECT_GE(bw.utilization(550'000), 0.0);
    EXPECT_EQ(bw.totalBytes(), 2000u);
}

// ---------------------------------------------------------------------
// Context / CpuCursor / CostModel / Rng
// ---------------------------------------------------------------------

TEST(CpuCursor, ChargeAdvancesCursorAndCore)
{
    Machine m(1, 1);
    CpuCursor cpu(m.core(0), 100);
    cpu.charge(50);
    EXPECT_EQ(cpu.time, 150u);
    EXPECT_EQ(m.core(0).busyNs(), 50u);
}

TEST(CpuCursor, WaitUntilDoesNotBurnCpu)
{
    Machine m(1, 1);
    CpuCursor cpu(m.core(0), 100);
    cpu.waitUntil(500);
    EXPECT_EQ(cpu.time, 500u);
    EXPECT_EQ(m.core(0).busyNs(), 0u);
    cpu.waitUntil(200); // never goes backwards
    EXPECT_EQ(cpu.time, 500u);
}

TEST(Context, CopyCostNoStallWhenIdle)
{
    Context ctx;
    const TimeNs t = ctx.copyCost(0, 1100, 11.0, 2200);
    EXPECT_EQ(t, ctx.cost.copyCallNs + 100);
}

TEST(Context, CopyCostStallsUnderLoad)
{
    Context ctx;
    // Saturate the controllers for a window.
    for (TimeNs t = 0; t < 400'000; t += 100)
        ctx.memBw.occupy(t, 10'000);
    const TimeNs stalled = ctx.copyCost(400'000, 11'000, 11.0, 0);
    EXPECT_GT(stalled, ctx.cost.copyCallNs + 1000);
}

TEST(CostModel, CyclesToNs)
{
    CostModel cm;
    cm.cpuGhz = 2.0;
    EXPECT_EQ(cm.cyclesToNs(2000), 1000u);
}

TEST(CostModel, CopyHelpers)
{
    CostModel cm;
    EXPECT_EQ(cm.warmCopyNs(1100),
              cm.copyCallNs + TimeNs(1100 / cm.warmCopyBytesPerNs));
    EXPECT_GT(cm.coldCopyNs(4096), cm.warmCopyNs(4096));
}

TEST(Types, UnitConversions)
{
    EXPECT_DOUBLE_EQ(gbpsToBytesPerNs(8.0), 1.0);
    EXPECT_DOUBLE_EQ(bytesPerNsToGbps(1.0), 8.0);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng r(7);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        hit_lo |= v == 3;
        hit_hi |= v == 5;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Stats, AddGetSnapshot)
{
    Stats s;
    s.add(Ctr::DmaMap);
    s.add(Ctr::DmaMap, 4);
    EXPECT_EQ(s.get(Ctr::DmaMap), 5u);
    s.add(Ctr::SmmuCmds, 7);
    EXPECT_EQ(s.get(Ctr::SmmuCmds), 7u);
    // Untouched rows read 0.
    EXPECT_EQ(s.get(Ctr::NetRxBytes), 0u);

    // A delta of 0 touches; untouched rows stay out of the snapshot.
    s.add(Ctr::AtsDevtlbHits, 0);
    const auto snap = s.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap.at("ats.devtlb_hits"), 0u);
    EXPECT_EQ(snap.at("dma.map"), 5u);
    EXPECT_EQ(snap.at("smmu.cmds"), 7u);
    EXPECT_EQ(snap.count("net.rx_bytes"), 0u);

    // Name order, whatever order the counters were touched in.
    std::vector<std::string> keys;
    for (const auto &[name, value] : snap)
        keys.push_back(name);
    EXPECT_EQ(keys, (std::vector<std::string>{"ats.devtlb_hits",
                                              "dma.map", "smmu.cmds"}));
    EXPECT_EQ(kCounters[std::size_t(Ctr::DmaMap)].name, "dma.map");
}

namespace {

/** Keys whose FlatMap home slot is @p slot while the table holds 16
 *  slots: the map's multiplicative hash, top four bits. */
std::vector<std::uint64_t>
keysHomedAt(unsigned slot, unsigned n, std::uint64_t from)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = from; keys.size() < n; ++k)
        if (((k * 0x9e3779b97f4a7c15ull) >> 60) == slot)
            keys.push_back(k);
    return keys;
}

/** @p m holds exactly the entries of @p ref. */
void
expectSameContents(const FlatMap<std::uint32_t> &m,
                   const std::unordered_map<std::uint64_t, std::uint32_t> &ref)
{
    // Equal sizes plus every reference entry found make the maps equal.
    ASSERT_EQ(m.size(), ref.size());
    for (const auto &[k, v] : ref) {
        const std::uint32_t *got = m.find(k);
        ASSERT_NE(got, nullptr) << "lost key " << k;
        EXPECT_EQ(*got, v) << "key " << k;
    }
}

} // namespace

// A run that starts in the last slots of a 16-slot table wraps to the
// first ones; erasing inside it must keep every later key reachable.
TEST(FlatMap, EraseInsideAWrappingRunKeepsTheRestReachable)
{
    FlatMap<std::uint32_t> m;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    // Slots 14, 15, 0, 1, 2, 3, 4: three keys homed at 14, two at 15,
    // two at 0 — seven entries, under the 50% load bound of 16 slots.
    std::vector<std::uint64_t> run;
    for (const auto &[slot, n] : {std::pair{14u, 3u}, {15u, 2u}, {0u, 2u}})
        for (std::uint64_t k : keysHomedAt(slot, n, 1))
            run.push_back(k);
    for (std::uint32_t i = 0; i < run.size(); ++i)
        ref[run[i]] = m[run[i]] = 100 + i;
    expectSameContents(m, ref);

    // The middle of the run, then the entry just before the wrap
    // point, then the first entry of the run.
    for (const std::size_t i : {std::size_t{3}, std::size_t{1},
                                std::size_t{0}}) {
        EXPECT_TRUE(m.erase(run[i]));
        EXPECT_FALSE(m.erase(run[i]));
        ref.erase(run[i]);
        expectSameContents(m, ref);
    }
    // Re-insert into the holes the shifts left.
    for (const std::size_t i : {std::size_t{0}, std::size_t{3}}) {
        m[run[i]] = 7;
        ref[run[i]] = 7;
        expectSameContents(m, ref);
    }
    // Growth while populated: the ninth entry doubles the table and
    // rehashes every key, colliding ones included.
    for (std::uint64_t k : keysHomedAt(15, 6, run.back() + 1)) {
        m[k] = std::uint32_t(k);
        ref[k] = std::uint32_t(k);
        expectSameContents(m, ref);
    }
    m.clear();
    ref.clear();
    expectSameContents(m, ref);
    EXPECT_EQ(m.find(run[2]), nullptr);
}

// ~100k random operations against std::unordered_map: small key pools
// make hits, re-inserts and long runs common; the map grows from empty
// and is cleared now and then.
TEST(FlatMap, MatchesUnorderedMapOnRandomOperations)
{
    FlatMap<std::uint32_t> m;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    Rng rng(0xf1a7);
    std::vector<std::uint64_t> pool;
    for (unsigned i = 0; i < 600; ++i)
        pool.push_back(i < 300 ? i * 4096 // page-aligned, like IOVAs
                               : rng.next() >> 1);
    pool.push_back(0);
    pool.push_back(FlatMap<std::uint32_t>::kEmptyKey - 1);
    for (unsigned op = 0; op < 100000; ++op) {
        // Vary the live key range so the map both grows and drains.
        const std::size_t span =
            op % 20000 < 10000 ? pool.size() : pool.size() / 8;
        const std::uint64_t k = pool[rng.below(span)];
        const unsigned kind = unsigned(rng.below(1000));
        if (kind < 450) {
            const std::uint32_t v = std::uint32_t(rng.next());
            m[k] = v;
            ref[k] = v;
        } else if (kind < 750) {
            ASSERT_EQ(m.erase(k), ref.erase(k) == 1) << "op " << op;
        } else if (kind < 999) {
            const std::uint32_t *got = m.find(k);
            const auto it = ref.find(k);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
            if (got != nullptr) {
                ASSERT_EQ(*got, it->second) << "op " << op;
            }
        } else {
            m.clear();
            ref.clear();
        }
        ASSERT_EQ(m.size(), ref.size()) << "op " << op;
        if (op % 5000 == 0) {
            expectSameContents(m, ref);
            if (HasFatalFailure())
                return;
        }
    }
    expectSameContents(m, ref);
}

// eraseIf() removes exactly the entries its predicate accepts and asks
// about each entry once, also when erasing shifts later entries of a
// run (wrapping past the table's end) into the slots it visits.
TEST(FlatMap, EraseIfTestsEachEntryOnce)
{
    FlatMap<std::uint32_t> m;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    // The wrapping run of the test above: homes 14, 14, 14, 15, 15, 0, 0.
    std::vector<std::uint64_t> run;
    for (const auto &[slot, n] : {std::pair{14u, 3u}, {15u, 2u}, {0u, 2u}})
        for (std::uint64_t k : keysHomedAt(slot, n, 1))
            run.push_back(k);
    for (std::uint32_t i = 0; i < run.size(); ++i)
        ref[run[i]] = m[run[i]] = i;

    std::unordered_map<std::uint64_t, unsigned> asked;
    const auto even = [&asked](std::uint64_t k, std::uint32_t v) {
        ++asked[k];
        return v % 2 == 0;
    };
    EXPECT_EQ(m.eraseIf(even), 4u);
    EXPECT_EQ(asked.size(), run.size());
    for (const auto &[k, n] : asked)
        EXPECT_EQ(n, 1u) << "key " << k;
    std::erase_if(ref, [](const auto &kv) { return kv.second % 2 == 0; });
    expectSameContents(m, ref);

    // Random contents and predicates against the same rule on
    // std::unordered_map, at several table sizes.
    Rng rng(0xe7a5e);
    for (unsigned round = 0; round < 200; ++round) {
        const unsigned n = unsigned(rng.below(300));
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t k = rng.below(2048) * 4096;
            const auto v = std::uint32_t(rng.next());
            m[k] = v;
            ref[k] = v;
        }
        const std::uint32_t mod = 1 + std::uint32_t(rng.below(4));
        asked.clear();
        const std::size_t before = m.size();
        const auto pick = [&](std::uint64_t k, std::uint32_t v) {
            ++asked[k];
            return v % mod == 0;
        };
        const std::size_t erased = m.eraseIf(pick);
        ASSERT_EQ(asked.size(), before) << "round " << round;
        for (const auto &[k, times] : asked)
            ASSERT_EQ(times, 1u) << "round " << round << " key " << k;
        ASSERT_EQ(erased, std::erase_if(ref, [mod](const auto &kv) {
                      return kv.second % mod == 0;
                  })) << "round " << round;
        expectSameContents(m, ref);
        if (HasFatalFailure())
            return;
    }
}
