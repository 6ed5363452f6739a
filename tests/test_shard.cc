/**
 * @file
 * Sharded-simulation suite (ctest labels `shard`, `par`): the
 * conservative-lookahead parallel engine (sim/shard.hh) must be
 * byte-identical to serial at any worker count, handle zero-lookahead
 * edges in serial FIFO order, honor sender promises, report per-shard
 * stalls, and carry the whole damn_bench --intra-jobs path end to end.
 *
 * Built into the verify-tsan tree as well: under -fsanitize=thread the
 * multi-worker cases double as a data-race audit of the round
 * protocol, the channel outboxes, and everything the intra-run cell
 * pool executes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/driver.hh"
#include "sim/shard.hh"
#include "workloads/sharded.hh"

using namespace damn;

namespace {

// ---------------------------------------------------------------------
// Engine peek primitive
// ---------------------------------------------------------------------

TEST(Shard, NextEventTimePeeksAndPrunes)
{
    sim::Engine eng;
    EXPECT_EQ(eng.nextEventTime(), sim::kTimeNever);
    const auto id = eng.schedule(50, [] {});
    eng.schedule(90, [] {});
    EXPECT_EQ(eng.nextEventTime(), 50u);
    // A cancelled head must be pruned, not reported.
    eng.cancel(id);
    EXPECT_EQ(eng.nextEventTime(), 90u);
    eng.runAll();
    EXPECT_EQ(eng.nextEventTime(), sim::kTimeNever);
}

// ---------------------------------------------------------------------
// Cross-shard message exchange vs a single-engine reference
// ---------------------------------------------------------------------

/** Two shards ping-pong a counter; the single-engine reference runs
 *  the same exchange with plain schedule() calls.  The sharded run
 *  must match the reference trace exactly, at every worker count. */
std::vector<std::uint64_t>
pingPongReference(unsigned hops, sim::TimeNs latency)
{
    sim::Engine eng;
    std::vector<std::uint64_t> trace;
    std::function<void(unsigned)> hop = [&](unsigned n) {
        trace.push_back(eng.now());
        if (n + 1 < hops)
            eng.scheduleIn(latency, [&hop, n] { hop(n + 1); });
    };
    eng.schedule(10, [&hop] { hop(0); });
    eng.runAll();
    return trace;
}

std::vector<std::uint64_t>
pingPongSharded(unsigned hops, sim::TimeNs latency, unsigned workers)
{
    sim::Engine a, b;
    sim::ShardedEngine se;
    se.addShard("a", a);
    se.addShard("b", b);
    const unsigned ab = se.connect(0, 1, latency);
    const unsigned ba = se.connect(1, 0, latency);

    std::vector<std::uint64_t> trace;
    struct Ctx
    {
        sim::ShardedEngine *se;
        sim::Engine *self;
        unsigned out;     //!< channel to the peer
        Ctx *peer;
        std::vector<std::uint64_t> *trace;
        unsigned hops;
    };
    Ctx ca{&se, &a, ab, nullptr, &trace, hops};
    Ctx cb{&se, &b, ba, &ca, &trace, hops};
    ca.peer = &cb;
    std::function<void(Ctx *, unsigned)> hop = [&hop](Ctx *c,
                                                      unsigned n) {
        c->trace->push_back(c->self->now());
        if (n + 1 < c->hops) {
            Ctx *peer = c->peer;
            c->se->send(c->out,
                        [&hop, peer, n] { hop(peer, n + 1); });
        }
    };
    a.schedule(10, [&hop, &ca] { hop(&ca, 0); });
    se.runAll(workers);
    return trace;
}

TEST(Shard, PingPongMatchesSingleEngineReference)
{
    const auto ref = pingPongReference(12, 250);
    ASSERT_EQ(ref.size(), 12u);
    for (const unsigned workers : {1u, 2u, 4u})
        EXPECT_EQ(pingPongSharded(12, 250, workers), ref)
            << "workers=" << workers;
}

// ---------------------------------------------------------------------
// Zero-lookahead edges: serial FIFO order at equal timestamps
// ---------------------------------------------------------------------

TEST(Shard, ZeroLookaheadDeliversAfterPreexistingSameTimeEvents)
{
    // Regression for the same-timestamp tie-break: a message sent over
    // a zero-lookahead channel at time T must dispatch *after* the
    // destination's pre-existing events at T — the order a single
    // serial engine would produce for a callback scheduled at `now`.
    for (const unsigned workers : {1u, 2u, 4u}) {
        sim::Engine src, dst;
        sim::ShardedEngine se;
        se.addShard("src", src);
        se.addShard("dst", dst);
        const unsigned ch = se.connect(0, 1, 0);

        // Only the destination's events log: different shards' events
        // in one lock-step round may run on different workers at once,
        // and their relative order is unspecified anyway.
        std::vector<std::string> order;
        dst.schedule(100, [&order] { order.push_back("dst-pre"); });
        src.schedule(100, [&] {
            se.send(ch, [&order] { order.push_back("dst-msg"); });
        });
        se.runAll(workers);

        EXPECT_EQ(order,
                  (std::vector<std::string>{"dst-pre", "dst-msg"}))
            << "workers=" << workers;
        EXPECT_GT(se.lastRunStats().lockstepRounds, 0u)
            << "zero lookahead must force lock-step rounds";
    }
}

// ---------------------------------------------------------------------
// Promises widen windows (null messages as state)
// ---------------------------------------------------------------------

TEST(Shard, PromisesReduceRoundCount)
{
    // Two shards with busy local timers and one quiet channel: without
    // a promise the window is bounded by src activity + lookahead;
    // with a promise covering the whole run the shards advance in one
    // window each.
    const auto rounds = [](bool promise) {
        sim::Engine a, b;
        sim::ShardedEngine se;
        se.addShard("a", a);
        se.addShard("b", b);
        const unsigned ch = se.connect(0, 1, 100);
        for (sim::TimeNs t = 10; t <= 10000; t += 10) {
            a.schedule(t, [] {});
            b.schedule(t, [] {});
        }
        if (promise)
            se.promiseNoSendBefore(ch, 1'000'000);
        se.run(10000, 1);
        return se.lastRunStats().rounds;
    };
    const std::uint64_t quiet = rounds(true);
    const std::uint64_t chatty = rounds(false);
    EXPECT_LT(quiet, chatty);
    EXPECT_LE(quiet, 2u);
}

// ---------------------------------------------------------------------
// Per-shard stall watchdog
// ---------------------------------------------------------------------

TEST(Shard, WatchdogReportsStallingShardByName)
{
    for (const unsigned workers : {1u, 2u}) {
        sim::Engine healthy, stuck;
        sim::ShardedEngine se;
        se.addShard("healthy", healthy);
        se.addShard("stuck", stuck);

        // Both shards run self-perpetuating timers; only the healthy
        // one's progress probe advances.
        std::uint64_t healthyWork = 0;
        std::function<void()> h = [&] {
            ++healthyWork;
            healthy.scheduleIn(10, h);
        };
        std::function<void()> s = [&] { stuck.scheduleIn(10, s); };
        healthy.schedule(10, h);
        stuck.schedule(10, s);

        se.armWatchdog(1000, [&healthyWork](unsigned shard) {
            return shard == 0 ? healthyWork : 0;
        });
        se.run(1'000'000, workers);

        ASSERT_EQ(se.stallsDetected(), 1u) << "workers=" << workers;
        EXPECT_EQ(se.stalls()[0].shard, 1u);
        EXPECT_EQ(se.stalls()[0].name, "stuck");
        EXPECT_GE(se.stalls()[0].info.eventsSinceProgress, 1000u);
    }
}

// ---------------------------------------------------------------------
// Task shards: isolated cells, error propagation
// ---------------------------------------------------------------------

TEST(Shard, TasksAllRunAndFirstErrorInTaskOrderWins)
{
    for (const unsigned workers : {1u, 4u}) {
        sim::ShardedEngine se;
        std::atomic<unsigned> ran{0};
        se.addTask("ok0", [&] { ++ran; });
        se.addTask("boom1", [&]() -> void {
            ++ran;
            throw std::runtime_error("first failure");
        });
        se.addTask("boom2", [&]() -> void {
            ++ran;
            throw std::logic_error("second failure");
        });
        se.addTask("ok3", [&] { ++ran; });
        try {
            se.runAll(workers);
            FAIL() << "expected a throw, workers=" << workers;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "first failure");
        }
        // A failing task must not stop its siblings.
        EXPECT_EQ(ran.load(), 4u) << "workers=" << workers;
    }
}

// ---------------------------------------------------------------------
// Sharded netperf: digests identical at any worker count
// ---------------------------------------------------------------------

TEST(Shard, ShardedNetperfDigestIdenticalAcrossWorkers)
{
    work::ShardedNetperfOpts o;
    o.plan.shards = 3;
    o.runWindow = work::RunWindow{sim::kNsPerMs, 2 * sim::kNsPerMs};
    o.instancesPerShard = 4;
    o.stallBudgetEvents = 200'000;

    o.workers = 1;
    const work::ShardedNetperfResult serial =
        work::runShardedNetperf(o);
    EXPECT_GT(serial.segments, 0u);
    EXPECT_GT(serial.telemetryReceived, 0u);
    EXPECT_TRUE(serial.stalls.empty());
    for (const unsigned workers : {2u, 4u}) {
        o.workers = workers;
        const work::ShardedNetperfResult r =
            work::runShardedNetperf(o);
        EXPECT_EQ(r.digest, serial.digest) << "workers=" << workers;
        EXPECT_EQ(r.events, serial.events) << "workers=" << workers;
        EXPECT_EQ(r.segments, serial.segments)
            << "workers=" << workers;
        EXPECT_EQ(r.messages, serial.messages)
            << "workers=" << workers;
    }
}

// ---------------------------------------------------------------------
// The --intra-jobs driver path, end to end in-process
// ---------------------------------------------------------------------

exp::DriverOptions
matrixOpts(const std::string &only, unsigned intraJobs)
{
    exp::DriverOptions o;
    o.only = only;
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 2 * sim::kNsPerMs;
    o.jobs = 1;
    o.intraJobs = intraJobs;
    o.schemes = {dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
                 dma::SchemeKind::Deferred, dma::SchemeKind::Damn};
    o.backends = {iommu::BackendKind::Vtd, iommu::BackendKind::SmmuV3};
    // Non-empty trace path => trace-event recording, so the byte
    // comparison covers the Chrome exporter too.
    o.tracePath = "unused-in-process";
    return o;
}

struct Serialized
{
    std::string json;
    std::string trace;
};

Serialized
serialize(const exp::DriverOptions &o)
{
    const exp::Report r = exp::runExperiments(o);
    return {exp::reportJson(r).dump(), exp::chromeTraceForReport(r)};
}

TEST(Shard, IntraJobsMatrixByteIdenticalToSerial)
{
    // 4 schemes x both backends through the cell-routed experiment,
    // at every --intra-jobs point of the acceptance matrix.
    const Serialized serial = serialize(matrixOpts("netperf_stream", 1));
    EXPECT_GT(serial.trace.size(), 1000u)
        << "trace suspiciously small; comparison would be vacuous";
    for (const unsigned k : {2u, 4u, 8u}) {
        const Serialized sharded =
            serialize(matrixOpts("netperf_stream", k));
        EXPECT_EQ(serial.json, sharded.json) << "intra-jobs=" << k;
        EXPECT_EQ(serial.trace, sharded.trace) << "intra-jobs=" << k;
    }
}

TEST(Shard, IntraJobsComposesWithJobs)
{
    exp::DriverOptions serial = matrixOpts("rdma_pagefault", 1);
    exp::DriverOptions both = matrixOpts("rdma_pagefault", 4);
    both.jobs = 2;
    both.repeat = serial.repeat = 2;
    const Serialized a = serialize(serial);
    const Serialized b = serialize(both);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.trace, b.trace);
}

TEST(Shard, IntraJobsFlagParses)
{
    exp::DriverOptions o;
    std::string err;
    const char *argv[] = {"damn_bench", "--intra-jobs=4"};
    ASSERT_TRUE(exp::parseArgs(2, argv, &o, &err)) << err;
    EXPECT_EQ(o.intraJobs, 4u);

    exp::DriverOptions d;
    const char *argv1[] = {"damn_bench"};
    ASSERT_TRUE(exp::parseArgs(1, argv1, &d, &err)) << err;
    EXPECT_EQ(d.intraJobs, 1u) << "default must stay serial";

    exp::DriverOptions bad;
    const char *argv0[] = {"damn_bench", "--intra-jobs=0"};
    EXPECT_FALSE(exp::parseArgs(2, argv0, &bad, &err));
    const char *argvx[] = {"damn_bench", "--intra-jobs=x"};
    EXPECT_FALSE(exp::parseArgs(2, argvx, &bad, &err));
}

} // namespace
