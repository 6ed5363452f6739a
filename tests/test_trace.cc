/**
 * @file
 * Tracer/observability tests: attribution invariants, ring-buffer
 * bounds, the zero-virtual-cost rule, golden-trace determinism of the
 * exporter, and the schema-v2 attribution block.
 */

#include <gtest/gtest.h>

#include "exp/driver.hh"
#include "net/system.hh"
#include "workloads/netperf.hh"
#include "tests/json_reader.hh"

using namespace damn;
using namespace damn::testjson;
using exp::Json;

// ---------------------------------------------------------------------
// Attribution mechanics
// ---------------------------------------------------------------------

namespace {

struct TracerFixture : ::testing::Test
{
    TracerFixture() : ctx(sim::CostModel{}, 1, 4) {}
    sim::Context ctx;
};

} // namespace

TEST_F(TracerFixture, BusyTimeLandsInTheInnermostCategory)
{
    sim::CpuCursor cpu(ctx.machine.core(0), 0);
    cpu.charge(100); // outside any span -> "other"
    {
        sim::TraceSpan outer(ctx.tracer, cpu, sim::TraceCat::NetStack,
                             "outer");
        cpu.charge(200);
        {
            sim::TraceSpan inner(ctx.tracer, cpu, sim::TraceCat::Copy,
                                 "inner");
            cpu.charge(50);
        }
        cpu.charge(25);
    }
    EXPECT_EQ(ctx.tracer.attributedNs(sim::TraceCat::Other), 100u);
    EXPECT_EQ(ctx.tracer.attributedNs(sim::TraceCat::NetStack), 225u);
    EXPECT_EQ(ctx.tracer.attributedNs(sim::TraceCat::Copy), 50u);
}

TEST_F(TracerFixture, AttributionCoversAllBusyTimeByConstruction)
{
    sim::CpuCursor a(ctx.machine.core(0), 0);
    sim::CpuCursor b(ctx.machine.core(2), 10);
    a.charge(123);
    {
        sim::TraceSpan s(ctx.tracer, b, sim::TraceCat::DmaMap, "m");
        b.charge(456);
    }
    const sim::TraceBundle bd = ctx.tracer.bundle(ctx.machine, 2.0);
    EXPECT_EQ(bd.totalBusyNs, 579u);
    EXPECT_EQ(bd.attributedNs, bd.totalBusyNs);
    EXPECT_DOUBLE_EQ(bd.coveragePct(), 100.0);
    EXPECT_EQ(bd.totalCycles, std::uint64_t(579 * 2.0));
}

TEST_F(TracerFixture, RecordingIsOffByDefaultAndCostsNoVirtualTime)
{
    EXPECT_FALSE(ctx.tracer.recording());
    sim::CpuCursor cpu(ctx.machine.core(0), 0);
    {
        sim::TraceSpan s(ctx.tracer, cpu, sim::TraceCat::App, "a");
        ctx.tracer.instant(0, sim::TraceCat::Fault, "f", 5);
    }
    EXPECT_EQ(ctx.tracer.bufferedEvents(), 0u);
    // Spans and instants never advance the cursor by themselves.
    EXPECT_EQ(cpu.time, 0u);
}

TEST_F(TracerFixture, RingIsBoundedAndCountsDrops)
{
    ctx.tracer.startRecording(/*capacity=*/8);
    for (unsigned i = 0; i < 20; ++i)
        ctx.tracer.instant(0, sim::TraceCat::NicRing, "e", i, 0, i);
    EXPECT_EQ(ctx.tracer.bufferedEvents(), 8u);
    EXPECT_EQ(ctx.tracer.droppedEvents(), 12u);
    // The ring keeps the *newest* events: 12..19 survive.
    const sim::TraceBundle b = ctx.tracer.bundle(ctx.machine, 2.0);
    ASSERT_EQ(b.events.size(), 8u);
    for (const sim::TraceEvent &ev : b.events)
        EXPECT_GE(ev.aux, 12u);
    EXPECT_EQ(b.droppedEvents, 12u);
}

TEST_F(TracerFixture, ResetWindowClearsTotalsAndEventsButNotNames)
{
    ctx.tracer.startRecording(16);
    sim::CpuCursor cpu(ctx.machine.core(1), 0);
    {
        sim::TraceSpan s(ctx.tracer, cpu, sim::TraceCat::Nvme, "io");
        cpu.charge(77);
    }
    const std::uint32_t id = ctx.tracer.intern("io");
    ctx.tracer.resetWindow();
    EXPECT_EQ(ctx.tracer.attributedNs(sim::TraceCat::Nvme), 0u);
    EXPECT_EQ(ctx.tracer.bufferedEvents(), 0u);
    EXPECT_TRUE(ctx.tracer.recording()) << "recording flag survives";
    EXPECT_EQ(ctx.tracer.intern("io"), id) << "name ids stay stable";
}

TEST_F(TracerFixture, EventsSortByTimeThenSequence)
{
    ctx.tracer.startRecording(16);
    // Same timestamp on two cores: record order breaks the tie.
    ctx.tracer.instant(1, sim::TraceCat::NicRing, "first", 100);
    ctx.tracer.instant(0, sim::TraceCat::NicRing, "second", 100);
    ctx.tracer.instant(2, sim::TraceCat::NicRing, "earlier", 50);
    const sim::TraceBundle b = ctx.tracer.bundle(ctx.machine, 2.0);
    ASSERT_EQ(b.events.size(), 3u);
    EXPECT_EQ(b.names[b.events[0].nameId], "earlier");
    EXPECT_EQ(b.names[b.events[1].nameId], "first");
    EXPECT_EQ(b.names[b.events[2].nameId], "second");
}

// ---------------------------------------------------------------------
// Exporter: valid, deterministic Chrome trace JSON
// ---------------------------------------------------------------------

TEST_F(TracerFixture, ChromeJsonIsValidAndEscaped)
{
    ctx.tracer.startRecording(16);
    sim::CpuCursor cpu(ctx.machine.core(0), 0);
    {
        sim::TraceSpan s(ctx.tracer, cpu, sim::TraceCat::Copy,
                         "weird \"name\"\n\t\\");
        cpu.charge(1500);
        s.bytes(4096);
        s.aux(7);
    }
    ctx.tracer.instant(1, sim::TraceCat::Fault, "f", 250);
    const sim::TraceBundle b = ctx.tracer.bundle(ctx.machine, 2.0);
    const std::string json =
        sim::chromeTraceJson({{"proc \"zero\"", &b}});

    const Json doc = parseJson(json);
    const Json *evs = find(doc, "traceEvents");
    ASSERT_NE(evs, nullptr);
    // metadata + span + instant
    ASSERT_EQ(evs->items().size(), 3u);
    const Json &meta = evs->items()[0];
    EXPECT_EQ(at(meta, "ph").str(), "M");
    EXPECT_EQ(at(meta, "args", "name").str(), "proc \"zero\"");
    const Json &span = evs->items()[1];
    EXPECT_EQ(at(span, "ph").str(), "X");
    EXPECT_EQ(at(span, "name").str(), "weird \"name\"\n\t\\");
    EXPECT_EQ(at(span, "cat").str(), "copy");
    EXPECT_EQ(asUint(at(span, "args", "bytes")), 4096u);
    const Json &inst = evs->items()[2];
    EXPECT_EQ(at(inst, "ph").str(), "i");
}

TEST_F(TracerFixture, TimestampsAreMicrosecondsWithFixedPrecision)
{
    ctx.tracer.startRecording(4);
    ctx.tracer.instant(0, sim::TraceCat::NicRing, "e", 1234567);
    const sim::TraceBundle b = ctx.tracer.bundle(ctx.machine, 2.0);
    const std::string json = sim::chromeTraceJson({{"p", &b}});
    EXPECT_NE(json.find("\"ts\":1234.567"), std::string::npos) << json;
}

// ---------------------------------------------------------------------
// Golden-trace determinism and the zero-cost rule, through the full
// netperf + driver pipeline
// ---------------------------------------------------------------------

namespace {

exp::DriverOptions
traceDriverOpts()
{
    exp::DriverOptions o;
    o.only = "netperf_stream";
    o.schemes = {dma::SchemeKind::Strict, dma::SchemeKind::Damn};
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 4 * sim::kNsPerMs;
    o.tracePath = "unused"; // non-empty => machines record events
    return o;
}

} // namespace

TEST(GoldenTrace, SameSeedSameGlobByteIdenticalOutput)
{
    const exp::DriverOptions o = traceDriverOpts();
    const exp::Report r1 = exp::runExperiments(o);
    const exp::Report r2 = exp::runExperiments(o);

    const std::string t1 = exp::chromeTraceForReport(r1);
    const std::string t2 = exp::chromeTraceForReport(r2);
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, t2) << "trace output must be byte-identical";

    const std::string j1 = exp::reportJson(r1).dump();
    const std::string j2 = exp::reportJson(r2).dump();
    EXPECT_EQ(j1, j2) << "attribution JSON must be byte-identical";
}

TEST(GoldenTrace, TraceIsValidJsonWithLabeledProcesses)
{
    const exp::Report r = exp::runExperiments(traceDriverOpts());
    const Json doc = parseJson(exp::chromeTraceForReport(r));
    const Json *evs = find(doc, "traceEvents");
    ASSERT_NE(evs, nullptr);
    ASSERT_GT(evs->items().size(), 100u);
    // One labeled process per traced run (two schemes selected).
    unsigned procs = 0;
    for (const Json &ev : evs->items())
        if (at(ev, "ph").str() == "M") {
            ++procs;
            const std::string label =
                at(ev, "args", "name").str();
            EXPECT_EQ(label.rfind("netperf_stream/", 0), 0u) << label;
        }
    EXPECT_EQ(procs, 2u);
}

TEST(GoldenTrace, RecordingDoesNotChangeMetrics)
{
    work::NetperfOpts o =
        work::multiCoreOpts(dma::SchemeKind::Strict, work::NetMode::Rx);
    o.runWindow = work::RunWindow{1 * sim::kNsPerMs, 4 * sim::kNsPerMs};

    o.sysParams.recordTrace = false;
    const work::NetperfRun off = work::runNetperf(o);
    o.sysParams.recordTrace = true;
    const work::NetperfRun on = work::runNetperf(o);

    EXPECT_EQ(off.res.totalGbps, on.res.totalGbps);
    EXPECT_EQ(off.res.cpuPct, on.res.cpuPct);
    EXPECT_EQ(off.common.opsPerSec, on.common.opsPerSec);
    EXPECT_TRUE(off.common.trace.events.empty());
    EXPECT_FALSE(on.common.trace.events.empty());
    // Attribution itself is identical with recording on or off.
    ASSERT_EQ(off.common.trace.categories.size(),
              on.common.trace.categories.size());
    for (std::size_t i = 0; i < off.common.trace.categories.size();
         ++i) {
        EXPECT_EQ(off.common.trace.categories[i].name,
                  on.common.trace.categories[i].name);
        EXPECT_EQ(off.common.trace.categories[i].ns,
                  on.common.trace.categories[i].ns);
    }
}

/**
 * The driver owns trace recording, so --trace reaches the experiments
 * that never forwarded a trace flag themselves, and every run's
 * attribution covers all of its busy time.
 */
TEST(GoldenTrace, TraceReachesEveryWorkload)
{
    exp::DriverOptions o;
    o.schemes = {dma::SchemeKind::Strict};
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 1 * sim::kNsPerMs;
    o.tracePath = "unused"; // non-empty => machines record events
    for (const char *name :
         {"fig7_memcached", "fig2_graph500", "fig4_singlecore",
          "fig11_nvme", "fault_storm", "chaos_soak", "pressure_storm"}) {
        o.only = name;
        const exp::Report r = exp::runExperiments(o);
        const Json doc = parseJson(exp::chromeTraceForReport(r));
        unsigned procs = 0;
        for (const Json &ev : at(doc, "traceEvents").items())
            procs += at(ev, "ph").str() == "M";
        EXPECT_GE(procs, 1u) << name;
        for (const exp::Run &run : r.experiments.at(0).runs) {
            if (run.trace.hasData()) {
                EXPECT_EQ(run.trace.coveragePct(), 100.0) << name;
            }
        }
    }
}

TEST(GoldenTrace, AttributionCoversAtLeast95PctForEveryScheme)
{
    for (const dma::SchemeKind k : exp::defaultSchemes()) {
        work::NetperfOpts o = work::multiCoreOpts(k, work::NetMode::Rx);
        o.runWindow =
            work::RunWindow{1 * sim::kNsPerMs, 4 * sim::kNsPerMs};
        const work::NetperfRun run = work::runNetperf(o);
        const sim::TraceBundle &b = run.common.trace;
        EXPECT_GT(b.totalBusyNs, 0u) << dma::schemeKindName(k);
        EXPECT_GE(b.coveragePct(), 95.0) << dma::schemeKindName(k);
    }
}

TEST(GoldenTrace, RdmaPagefaultRunIsByteIdenticalAndServicesFaults)
{
    exp::DriverOptions o;
    o.only = "rdma_pagefault";
    o.schemes = {dma::SchemeKind::Strict, dma::SchemeKind::Deferred};
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 2 * sim::kNsPerMs;
    o.tracePath = "unused"; // non-empty => machines record events

    const exp::Report r1 = exp::runExperiments(o);
    const exp::Report r2 = exp::runExperiments(o);
    const std::string j1 = exp::reportJson(r1).dump();
    EXPECT_EQ(j1, exp::reportJson(r2).dump())
        << "rdma_pagefault JSON must be byte-identical";
    EXPECT_EQ(exp::chromeTraceForReport(r1),
              exp::chromeTraceForReport(r2))
        << "rdma_pagefault trace must be byte-identical";

    // Every run of the sweep must actually exercise the PRI path and
    // report the new metric block.
    const Json doc = parseJson(j1);
    const Json *runs = nullptr;
    for (const Json &e : at(doc, "experiments").items())
        if (at(e, "name").str() == "rdma_pagefault")
            runs = find(e, "runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_FALSE(runs->items().empty());
    for (const Json &run : runs->items()) {
        const Json *m = find(run, "metrics");
        ASSERT_NE(m, nullptr);
        for (const char *name :
             {"faults_serviced", "auto_responses", "prq_max_depth",
              "devtlb_hit_rate", "fault_service_avg_ns"})
            ASSERT_NE(find(*m, name), nullptr) << name;
        EXPECT_GT(asDouble(at(*m, "faults_serviced", "value")),
                  0.0)
            << at(run, "scheme").str() << "/"
            << at(run, "params", "backend").str();
        EXPECT_GT(asDouble(at(*m, "prq_max_depth", "value")),
                  0.0);
    }
}

TEST(GoldenTrace, SchemaV2AttributionBlockIsDocumentedShape)
{
    const exp::Report r = exp::runExperiments(traceDriverOpts());
    const Json doc = parseJson(exp::reportJson(r).dump());
    EXPECT_EQ(asInt(at(doc, "schema_version")), 2);
    const Json &run =
        at(at(doc, "experiments").items()[0], "runs").items()[0];
    const Json *attr = find(run, "attribution");
    ASSERT_NE(attr, nullptr);
    ASSERT_NE(find(*attr, "total_busy_ns"), nullptr);
    ASSERT_NE(find(*attr, "total_cycles"), nullptr);
    ASSERT_NE(find(*attr, "attributed_ns"), nullptr);
    ASSERT_NE(find(*attr, "coverage_pct"), nullptr);
    ASSERT_NE(find(*attr, "dropped_events"), nullptr);
    const Json *cats = find(*attr, "categories");
    ASSERT_NE(cats, nullptr);
    EXPECT_FALSE(cats->members().empty());
    bool saw_dma_map = false;
    for (const auto &[name, jc] : cats->members()) {
        ASSERT_NE(find(jc, "ns"), nullptr) << name;
        ASSERT_NE(find(jc, "cycles"), nullptr) << name;
        ASSERT_NE(find(jc, "bytes"), nullptr) << name;
        ASSERT_NE(find(jc, "events"), nullptr) << name;
        if (name == "dma.map")
            saw_dma_map = true;
    }
    EXPECT_TRUE(saw_dma_map) << "strict runs must attribute dma.map";
    EXPECT_GE(asDouble(at(*attr, "coverage_pct")), 95.0);
}
