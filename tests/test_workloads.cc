/**
 * @file
 * Tests for the workload library: the Graph500 co-runner, netperf/
 * memcached/fio runners (smoke-level invariants), kbuild churn, and the
 * full DMA attack suite — the paper's Table 1 security claims as
 * assertions.
 */

#include <gtest/gtest.h>

#include "workloads/attacks.hh"
#include "workloads/fio.hh"
#include "workloads/graph500.hh"
#include "workloads/kbuild.hh"
#include "workloads/memcached.hh"
#include "workloads/netperf.hh"

using namespace damn;
using namespace damn::work;

// ---------------------------------------------------------------------
// Graph500 co-runner
// ---------------------------------------------------------------------

TEST(Graph500, CorunnerMakesProgress)
{
    sim::Context ctx(sim::CostModel{}, 2, 14);
    BfsCorunner co(ctx);
    co.start();
    ctx.engine.run(100 * sim::kNsPerMs);
    EXPECT_GT(co.meanIterationSeconds(ctx.now()), 0.0);
}

TEST(Graph500, CorunnerSlowsUnderMemoryPressure)
{
    // Saturate the controllers with a fake competing stream; the BFS
    // iteration time must stretch.
    const auto run = [](bool pressure) {
        sim::Context ctx(sim::CostModel{}, 2, 14);
        BfsCorunner co(ctx);
        co.start();
        if (pressure) {
            std::function<void()> hog = [&ctx, &hog] {
                ctx.memBw.occupy(ctx.now(), 40 * 1024);
                ctx.engine.scheduleIn(1000, hog);
            };
            ctx.engine.schedule(0, hog);
        }
        ctx.engine.run(100 * sim::kNsPerMs);
        return co.meanIterationSeconds(ctx.now());
    };
    EXPECT_GT(run(true), run(false) * 1.2);
}

// ---------------------------------------------------------------------
// Attack suite — Table 1 as assertions
// ---------------------------------------------------------------------

TEST(Attacks, IommuOffIsDefenseless)
{
    const AttackReport r = runAttacks({.scheme = dma::SchemeKind::IommuOff});
    EXPECT_TRUE(r.colocationTheft);
    EXPECT_TRUE(r.staleWindowTheft);
    EXPECT_TRUE(r.tocttou);
}

TEST(Attacks, StrictStopsWindowsButNotColocation)
{
    const AttackReport r = runAttacks({.scheme = dma::SchemeKind::Strict});
    EXPECT_TRUE(r.colocationTheft) << "page granularity: partial only";
    EXPECT_FALSE(r.staleWindowTheft);
    EXPECT_FALSE(r.tocttou);
}

TEST(Attacks, DeferredHasTheWindow)
{
    const AttackReport r = runAttacks({.scheme = dma::SchemeKind::Deferred});
    EXPECT_TRUE(r.colocationTheft);
    EXPECT_TRUE(r.staleWindowTheft) << "the batched-flush window";
    EXPECT_TRUE(r.tocttou);
}

TEST(Attacks, ShadowBuffersBlockEverything)
{
    const AttackReport r = runAttacks({.scheme = dma::SchemeKind::Shadow});
    EXPECT_FALSE(r.colocationTheft);
    EXPECT_FALSE(r.staleWindowTheft);
    EXPECT_FALSE(r.tocttou);
}

TEST(Attacks, DamnBlocksEverything)
{
    const AttackReport r = runAttacks({.scheme = dma::SchemeKind::Damn});
    EXPECT_FALSE(r.colocationTheft) << "byte granularity by separation";
    EXPECT_FALSE(r.staleWindowTheft) << "secrets never land in chunks";
    EXPECT_FALSE(r.tocttou) << "copy-on-access defense";
    EXPECT_FALSE(r.anySucceeded());
}

// ---------------------------------------------------------------------
// netperf runner invariants (smoke scale)
// ---------------------------------------------------------------------

namespace {

NetperfOpts
smokeOpts(dma::SchemeKind k, NetMode mode)
{
    NetperfOpts o;
    o.sysParams.scheme = k;
    o.mode = mode;
    o.instances = 4;
    o.coreLimit = 4;
    o.segBytes = 16 * 1024;
    o.runWindow.warmupNs = 5 * sim::kNsPerMs;
    o.runWindow.measureNs = 20 * sim::kNsPerMs;
    return o;
}

} // namespace

TEST(Netperf, AllSchemesMoveTraffic)
{
    for (const auto k :
         {dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
          dma::SchemeKind::Deferred, dma::SchemeKind::Shadow,
          dma::SchemeKind::Damn}) {
        const auto run = runNetperf(smokeOpts(k, NetMode::Rx));
        EXPECT_GT(run.res.rxGbps, 1.0) << dma::schemeKindName(k);
        EXPECT_LE(run.res.cpuPct, 100.0);
    }
}

TEST(Netperf, DamnTracksIommuOff)
{
    const auto off =
        runNetperf(smokeOpts(dma::SchemeKind::IommuOff, NetMode::Rx));
    const auto dam =
        runNetperf(smokeOpts(dma::SchemeKind::Damn, NetMode::Rx));
    EXPECT_GT(dam.res.rxGbps, off.res.rxGbps * 0.9)
        << "the headline claim: damn ~ unprotected";
}

TEST(Netperf, ShadowSlowerThanDamnSingleCore)
{
    NetperfOpts shadow_opts = smokeOpts(dma::SchemeKind::Shadow,
                                        NetMode::Rx);
    shadow_opts.coreLimit = 1;
    NetperfOpts damn_opts = smokeOpts(dma::SchemeKind::Damn,
                                      NetMode::Rx);
    damn_opts.coreLimit = 1;
    const auto shadow = runNetperf(shadow_opts);
    const auto dam = runNetperf(damn_opts);
    EXPECT_GT(dam.res.rxGbps, shadow.res.rxGbps * 1.5);
}

TEST(Netperf, BidiUsesBothDirections)
{
    const auto run =
        runNetperf(smokeOpts(dma::SchemeKind::IommuOff, NetMode::Bidi));
    EXPECT_GT(run.res.rxGbps, 1.0);
    EXPECT_GT(run.res.txGbps, 1.0);
}

TEST(Netperf, NoDmaFaultsDuringNormalTraffic)
{
    const auto run =
        runNetperf(smokeOpts(dma::SchemeKind::Strict, NetMode::Bidi));
    EXPECT_EQ(run.nic->faultedDmas(), 0u);
}

TEST(Netperf, DeterministicAcrossRuns)
{
    const auto a =
        runNetperf(smokeOpts(dma::SchemeKind::Deferred, NetMode::Rx));
    const auto b =
        runNetperf(smokeOpts(dma::SchemeKind::Deferred, NetMode::Rx));
    EXPECT_DOUBLE_EQ(a.res.rxGbps, b.res.rxGbps);
    EXPECT_DOUBLE_EQ(a.res.cpuPct, b.res.cpuPct);
}

TEST(Netperf, DamnMemoryStaysBounded)
{
    auto o = smokeOpts(dma::SchemeKind::Damn, NetMode::Bidi);
    o.runWindow.measureNs = 50 * sim::kNsPerMs;
    const auto run = runNetperf(o);
    // DMA caches recycle: owned memory is far below traffic volume.
    EXPECT_LT(run.sys->damn->ownedBytes(), 64ull << 20);
    EXPECT_GT(run.res.totalGbps, 1.0);
}

// ---------------------------------------------------------------------
// memcached / fio / kbuild
// ---------------------------------------------------------------------

TEST(Memcached, MovesOperations)
{
    MemcachedOpts o;
    o.sysParams.scheme = dma::SchemeKind::IommuOff;
    o.instances = 4;
    o.runWindow.warmupNs = 5 * sim::kNsPerMs;
    o.runWindow.measureNs = 20 * sim::kNsPerMs;
    const MemcachedResult r = runMemcached(o);
    EXPECT_GT(r.common.opsPerSec, 100.0);
    EXPECT_LE(r.common.cpuPct, 100.0);
}

TEST(Memcached, StrictWellBelowOthers)
{
    MemcachedOpts o;
    o.instances = 8;
    o.runWindow.warmupNs = 5 * sim::kNsPerMs;
    o.runWindow.measureNs = 25 * sim::kNsPerMs;
    o.sysParams.scheme = dma::SchemeKind::Damn;
    const double damn_tps = runMemcached(o).common.opsPerSec;
    o.sysParams.scheme = dma::SchemeKind::Strict;
    const double strict_tps = runMemcached(o).common.opsPerSec;
    EXPECT_LT(strict_tps, damn_tps * 0.8);
}

TEST(Fio, DeviceBoundAt512B)
{
    FioOpts o;
    o.sysParams.scheme = dma::SchemeKind::IommuOff;
    o.blockBytes = 512;
    o.runWindow.warmupNs = 5 * sim::kNsPerMs;
    o.runWindow.measureNs = 30 * sim::kNsPerMs;
    const FioResult r = runFio(o);
    EXPECT_NEAR(r.kiops(), 900.0, 50.0);
}

TEST(Fio, ThroughputBoundAtLargeBlocks)
{
    FioOpts o;
    o.sysParams.scheme = dma::SchemeKind::Deferred;
    o.blockBytes = 65536;
    o.runWindow.warmupNs = 5 * sim::kNsPerMs;
    o.runWindow.measureNs = 30 * sim::kNsPerMs;
    const FioResult r = runFio(o);
    EXPECT_NEAR(r.throughputGBps, 3.4, 0.3); // ~3.2 GiB/s media cap
}

TEST(Fio, NoSchemeThrottlesTheDevice)
{
    FioOpts o;
    o.blockBytes = 512;
    o.runWindow.warmupNs = 5 * sim::kNsPerMs;
    o.runWindow.measureNs = 30 * sim::kNsPerMs;
    double iops[4];
    unsigned i = 0;
    for (const auto k :
         {dma::SchemeKind::IommuOff, dma::SchemeKind::Deferred,
          dma::SchemeKind::Strict, dma::SchemeKind::Shadow}) {
        o.sysParams.scheme = k;
        iops[i++] = runFio(o).kiops();
    }
    for (unsigned j = 1; j < 4; ++j)
        EXPECT_GT(iops[j], iops[0] * 0.93);
}

TEST(Fio, StrictBurnsMoreCpuAtSmallBlocks)
{
    FioOpts o;
    o.blockBytes = 512;
    o.runWindow.warmupNs = 5 * sim::kNsPerMs;
    o.runWindow.measureNs = 30 * sim::kNsPerMs;
    o.sysParams.scheme = dma::SchemeKind::Deferred;
    const double deferred_cpu = runFio(o).common.cpuPct;
    o.sysParams.scheme = dma::SchemeKind::Strict;
    const double strict_cpu = runFio(o).common.cpuPct;
    EXPECT_GT(strict_cpu, deferred_cpu * 1.5);
}

TEST(Kbuild, ChurnAllocatesAndFrees)
{
    sim::Context ctx(sim::CostModel{}, 1, 14);
    mem::PhysicalMemory pm(1ull << 30);
    mem::PageAllocator pa(pm, 1);
    KbuildChurn churn(ctx, pa);
    churn.start();
    ctx.engine.run(50 * sim::kNsPerMs);
    EXPECT_GT(churn.bursts(), 1000u);
    // Held pages are bounded (bursts expire).
    EXPECT_LT(pa.allocatedFrames(), pm.numFrames() / 2);
}

TEST(Kbuild, ChurnForcesDmaPageDiversity)
{
    // The figure-9 mechanism: with churn, the set of pages ever used
    // for RX DMA grows well beyond the working set.
    NetperfOpts o;
    o.sysParams.scheme = dma::SchemeKind::Deferred;
    o.mode = NetMode::Rx;
    o.instances = 2;
    o.coreLimit = 2;
    o.segBytes = 65536;
    NetperfRun run = makeNetperfSystem(o);
    KbuildChurn churn(run.sys->ctx, run.sys->pageAlloc);
    churn.start();
    net::StreamEngine eng(*run.sys, *run.nic, *run.stack, {});
    addNetperfFlows(run, eng, o);
    eng.startAll();
    run.sys->ctx.engine.run(50 * sim::kNsPerMs);
    const auto ever = run.sys->mmu.everMappedFrames();
    const auto current = run.sys->mmu.currentlyMappedPages();
    EXPECT_GT(ever, current * 3) << "ever-mapped must outgrow current";
}
