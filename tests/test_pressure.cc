/**
 * @file
 * Resource-pressure resilience tests: the pressure controller's
 * watermark/reclaim machinery, fail-soft allocation paths under
 * exhaustion (kmalloc, DMA map, shadow pools), forced-flush recovery
 * for the deferred scheme, and the engine's stall watchdog.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "dma/schemes.hh"
#include "net/nic.hh"
#include "net/system.hh"
#include "sim/pressure.hh"

using namespace damn;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

using Res = sim::PressureResource;
using Rec = sim::PressureReclaimer;

/** Minimal harness: a context plus a cursor to charge reclaim to. */
struct PressureFixture : ::testing::Test
{
    PressureFixture() : ctx(sim::CostModel{}, 1, 1) {}

    sim::CpuCursor
    cpu()
    {
        return sim::CpuCursor(ctx.machine.core(0), ctx.now());
    }

    sim::Context ctx;
};

} // namespace

// ---------------------------------------------------------------------
// PressureController
// ---------------------------------------------------------------------

TEST_F(PressureFixture, WatermarksMapToLevels)
{
    double usage = 0.1;
    ctx.pressure.registerResource(Res::Pages, [&] { return usage; });
    EXPECT_EQ(ctx.pressure.poll(), sim::PressureLevel::Ok);
    usage = 0.80;
    EXPECT_EQ(ctx.pressure.poll(), sim::PressureLevel::Low);
    usage = 0.95;
    EXPECT_EQ(ctx.pressure.poll(), sim::PressureLevel::Critical);
    EXPECT_EQ(ctx.pressure.level(Res::Pages), sim::PressureLevel::Critical);
    // Not registered: reads Ok.
    EXPECT_EQ(ctx.pressure.level(Res::Shadow), sim::PressureLevel::Ok);
}

TEST_F(PressureFixture, LevelTransitionsAreCounted)
{
    double usage = 0.1;
    ctx.pressure.registerResource(Res::Iova, [&] { return usage; });
    ctx.pressure.poll();
    usage = 0.95;
    ctx.pressure.poll();
    ctx.pressure.poll(); // unchanged level: no second transition
    usage = 0.1;
    ctx.pressure.poll();
    EXPECT_EQ(ctx.stats.get(sim::Ctr::PressureIovaToCritical), 1u);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::PressureIovaToOk), 1u);
    // Each resource books its own rows.
    EXPECT_EQ(ctx.stats.get(sim::Ctr::PressurePagesToCritical), 0u);
}

TEST_F(PressureFixture, ReclaimRunsInRegistrationOrder)
{
    double usage = 0.95;
    ctx.pressure.registerResource(Res::Pages, [&] { return usage; });
    std::vector<Rec> order;
    // Enum values and names sort the other way: registration must
    // decide.
    ctx.pressure.registerReclaimer(Rec::ShadowShrink,
                                   [&](sim::CpuCursor &) {
        order.push_back(Rec::ShadowShrink);
        return std::uint64_t{1};
    });
    ctx.pressure.registerReclaimer(Rec::FlushPending,
                                   [&](sim::CpuCursor &) {
        order.push_back(Rec::FlushPending);
        usage = 0.1;
        return std::uint64_t{1};
    });
    auto c = cpu();
    EXPECT_EQ(ctx.pressure.reclaim(c), 2u);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], Rec::ShadowShrink);
    EXPECT_EQ(order[1], Rec::FlushPending);
}

TEST_F(PressureFixture, ReclaimStopsOncePressureIsRelieved)
{
    double usage = 0.95;
    ctx.pressure.registerResource(Res::Pages, [&] { return usage; });
    unsigned expensiveRuns = 0;
    ctx.pressure.registerReclaimer(Rec::FlushPending,
                                   [&](sim::CpuCursor &) {
        usage = 0.1; // single pass fully relieves the pressure
        return std::uint64_t{100};
    });
    ctx.pressure.registerReclaimer(Rec::DamnShrink, [&](sim::CpuCursor &) {
        ++expensiveRuns;
        return std::uint64_t{100};
    });
    auto c = cpu();
    EXPECT_EQ(ctx.pressure.reclaim(c), 100u);
    EXPECT_EQ(expensiveRuns, 0u);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::PressureReclaimedFlushPending), 100u);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::PressureReclaimedDamnShrink), 0u);
    EXPECT_EQ(ctx.pressure.reclaimedUnits(), 100u);
}

TEST_F(PressureFixture, FutileReclaimIsCounted)
{
    ctx.pressure.registerResource(Res::Kmalloc, [] { return 0.95; });
    ctx.pressure.registerReclaimer(
        Rec::DamnShrink, [](sim::CpuCursor &) { return std::uint64_t{0}; });
    auto c = cpu();
    EXPECT_EQ(ctx.pressure.reclaim(c), 0u);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::PressureReclaimFutile), 1u);
    EXPECT_EQ(ctx.pressure.reclaimEvents(), 1u);
    EXPECT_EQ(ctx.pressure.reclaimedUnits(), 0u);
}

TEST_F(PressureFixture, NestedReclaimDoesNotRecurse)
{
    // A reclaimer whose own allocation fails re-enters reclaim();
    // the guard must turn that into a no-op instead of infinite
    // recursion.
    ctx.pressure.registerResource(Res::Damn, [] { return 0.95; });
    unsigned calls = 0;
    ctx.pressure.registerReclaimer(Rec::DamnShrink, [&](sim::CpuCursor &c) {
        ++calls;
        EXPECT_EQ(ctx.pressure.reclaim(c), 0u);
        return std::uint64_t{1};
    });
    auto c = cpu();
    EXPECT_EQ(ctx.pressure.reclaim(c), 1u);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(ctx.pressure.reclaimEvents(), 1u);
}

// ---------------------------------------------------------------------
// Fail-soft allocators
// ---------------------------------------------------------------------

TEST(KmallocPressure, ReturnsZeroWhenPagesExhausted)
{
    // 8 MiB / 1 zone: the first max-order block is reserved (frame 0),
    // leaving exactly one free max-order block to pin.
    mem::PhysicalMemory pm(8 * kMiB);
    mem::PageAllocator pa(pm, 1);
    mem::KmallocHeap heap(pa);
    // Pin every frame so slab refill has nowhere to grow.
    std::vector<mem::Pfn> hog;
    for (;;) {
        const mem::Pfn pfn = pa.allocPages(0, 0);
        if (pfn == mem::kInvalidPfn)
            break;
        hog.push_back(pfn);
    }
    ASSERT_FALSE(hog.empty());
    EXPECT_EQ(heap.kmalloc(256), 0u);
    EXPECT_GT(heap.refillFails(), 0u);
    // Relief: freeing pages makes kmalloc work again.
    pa.freePages(hog.back(), 0);
    hog.pop_back();
    EXPECT_NE(heap.kmalloc(256), 0u);
    for (const mem::Pfn pfn : hog)
        pa.freePages(pfn, 0);
}

namespace {

/** DMA scheme harness mirroring test_dma's fixture, sized small. */
struct SchemePressureFixture : ::testing::Test
{
    SchemePressureFixture()
        : ctx(sim::CostModel{}, 1, 2), pm(16 * kMiB), pa(pm, 1),
          mmu(ctx, /*enabled=*/true), dev(ctx, "dev0", mmu, pm)
    {}

    sim::CpuCursor
    cpu()
    {
        return sim::CpuCursor(ctx.machine.core(0), ctx.now());
    }

    sim::Context ctx;
    mem::PhysicalMemory pm;
    mem::PageAllocator pa;
    iommu::Iommu mmu;
    dma::Device dev;
};

} // namespace

TEST_F(SchemePressureFixture, StrictMapFailsSoftAndRecovers)
{
    auto api = dma::makeScheme(dma::SchemeKind::Strict, ctx, mmu, pa);
    api->iovaAllocator()->setSpaceBytes(4 * mem::kPageSize);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0);
    iommu::Iova held[4];
    for (iommu::Iova &iova : held) {
        iova = api->map(c, dev, mem::pfnToPa(pfn), mem::kPageSize,
                        dma::Dir::FromDevice);
        ASSERT_NE(iova, dma::kMapFailed);
    }
    // Space exhausted with everything still mapped: no assert, a
    // counted failure.
    EXPECT_EQ(api->map(c, dev, mem::pfnToPa(pfn), mem::kPageSize,
                       dma::Dir::FromDevice),
              dma::kMapFailed);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::DmaMapFails), 1u);
    // Unmapping one range makes the next map succeed (recycled).
    api->unmap(c, dev, held[0], mem::kPageSize, dma::Dir::FromDevice);
    EXPECT_NE(api->map(c, dev, mem::pfnToPa(pfn), mem::kPageSize,
                       dma::Dir::FromDevice),
              dma::kMapFailed);
}

TEST_F(SchemePressureFixture, DeferredForcedFlushRecoversIovaSpace)
{
    auto api = dma::makeScheme(dma::SchemeKind::Deferred, ctx, mmu, pa);
    api->iovaAllocator()->setSpaceBytes(16 * mem::kPageSize);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0);
    // Deferred unmaps park IOVAs in the flush queue, so a map/unmap
    // loop exhausts a 16-page space fast — every wraparound must
    // force-flush the queue (Linux's fq_ring fallback) and carry on.
    for (int i = 0; i < 200; ++i) {
        const iommu::Iova iova =
            api->map(c, dev, mem::pfnToPa(pfn), mem::kPageSize,
                     dma::Dir::FromDevice);
        ASSERT_NE(iova, dma::kMapFailed) << "iteration " << i;
        api->unmap(c, dev, iova, mem::kPageSize, dma::Dir::FromDevice);
    }
    EXPECT_GT(ctx.stats.get(sim::Ctr::IommuIovaForcedFlushes), 0u);
    EXPECT_GT(ctx.stats.get(sim::Ctr::IommuIovaFlushRecoveries), 0u);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::DmaMapFails), 0u);
}

TEST_F(SchemePressureFixture, ShadowPoolGrowthFailsSoft)
{
    auto api = dma::makeScheme(dma::SchemeKind::Shadow, ctx, mmu, pa);
    auto c = cpu();
    const mem::Pfn buf = pa.allocPages(0, 0);
    // Pin all remaining frames: the shadow pool cannot grow its
    // order-5 blocks.
    std::vector<mem::Pfn> hog;
    for (;;) {
        const mem::Pfn pfn = pa.allocPages(0, 0);
        if (pfn == mem::kInvalidPfn)
            break;
        hog.push_back(pfn);
    }
    EXPECT_EQ(api->map(c, dev, mem::pfnToPa(buf), mem::kPageSize,
                       dma::Dir::ToDevice),
              dma::kMapFailed);
    EXPECT_GT(ctx.stats.get(sim::Ctr::ShadowPoolGrowFails), 0u);
    // Relief: release the hog and the same map succeeds.
    for (const mem::Pfn pfn : hog)
        pa.freePages(pfn, 0);
    const iommu::Iova iova = api->map(
        c, dev, mem::pfnToPa(buf), mem::kPageSize, dma::Dir::ToDevice);
    EXPECT_NE(iova, dma::kMapFailed);
    api->unmap(c, dev, iova, mem::kPageSize, dma::Dir::ToDevice);
}

// ---------------------------------------------------------------------
// System wiring
// ---------------------------------------------------------------------

TEST(SystemPressure, ResourcesAndReclaimersAreRegistered)
{
    net::SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    p.sockets = 1;
    p.coresPerSocket = 2;
    p.physBytes = 16 * kMiB;
    net::System sys(p);
    // pages + kmalloc + iova + damn, flush_pending + damn_shrink.
    EXPECT_GE(sys.ctx.pressure.numResources(), 4u);
    EXPECT_GE(sys.ctx.pressure.numReclaimers(), 2u);

    net::SystemParams q;
    q.scheme = dma::SchemeKind::Shadow;
    q.sockets = 1;
    q.coresPerSocket = 2;
    q.physBytes = 16 * kMiB;
    net::System shadowSys(q);
    // pages + kmalloc + iova + shadow, flush_pending + shadow_shrink.
    EXPECT_GE(shadowSys.ctx.pressure.numResources(), 4u);
    EXPECT_GE(shadowSys.ctx.pressure.numReclaimers(), 2u);
}

TEST(SystemPressure, IovaSpaceParamIsApplied)
{
    net::SystemParams p;
    p.scheme = dma::SchemeKind::Strict;
    p.sockets = 1;
    p.coresPerSocket = 2;
    p.physBytes = 16 * kMiB;
    p.iovaSpaceBytes = 8 * mem::kPageSize;
    net::System sys(p);
    sim::CpuCursor c(sys.ctx.machine.core(0), 0);
    net::NicDevice nic(sys, "nic0");
    const mem::Pfn pfn = sys.pageAlloc.allocPages(0, 0);
    for (int i = 0; i < 8; ++i)
        ASSERT_NE(sys.dmaApi->map(c, nic, mem::pfnToPa(pfn),
                                  mem::kPageSize, dma::Dir::FromDevice),
                  dma::kMapFailed);
    EXPECT_EQ(sys.dmaApi->map(c, nic, mem::pfnToPa(pfn), mem::kPageSize,
                              dma::Dir::FromDevice),
              dma::kMapFailed);
    EXPECT_DOUBLE_EQ(sys.dmaApi->iovaAllocator()->utilization(), 1.0);
}

// ---------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, DetectsLivelockAndStopsRun)
{
    sim::Engine e;
    // Self-rescheduling event with a flat progress probe: the classic
    // retry livelock.  Without the watchdog this run would never end.
    std::function<void()> tick = [&] { e.scheduleIn(10, [&] { tick(); }); };
    e.schedule(0, [&] { tick(); });
    e.armWatchdog(1000, [] { return std::uint64_t{0}; });
    e.run(~sim::TimeNs{0});
    EXPECT_EQ(e.stallsDetected(), 1u);
    EXPECT_GE(e.lastStall().eventsSinceProgress, 1000u);
    EXPECT_GT(e.lastStall().pending, 0u);
    EXPECT_GT(e.pending(), 0u); // the livelocked event is still queued
}

TEST(Watchdog, ProgressPreventsStall)
{
    sim::Engine e;
    std::uint64_t work = 0;
    std::function<void()> tick = [&] {
        if (++work < 5000)
            e.scheduleIn(10, [&] { tick(); });
    };
    e.schedule(0, [&] { tick(); });
    e.armWatchdog(100, [&] { return work; });
    e.runAll();
    EXPECT_EQ(e.stallsDetected(), 0u);
    EXPECT_EQ(work, 5000u);
}

TEST(Watchdog, DisarmedEngineRunsNormally)
{
    sim::Engine e;
    std::uint64_t work = 0;
    std::function<void()> tick = [&] {
        if (++work < 2000)
            e.scheduleIn(10, [&] { tick(); });
    };
    e.schedule(0, [&] { tick(); });
    e.armWatchdog(100, [] { return std::uint64_t{0}; });
    e.disarmWatchdog();
    e.runAll();
    EXPECT_EQ(e.stallsDetected(), 0u);
    EXPECT_EQ(work, 2000u);
}

TEST(Watchdog, RearmedAfterStallTripsAgain)
{
    sim::Engine e;
    std::function<void()> tick = [&] { e.scheduleIn(10, [&] { tick(); }); };
    e.schedule(0, [&] { tick(); });
    e.armWatchdog(500, [] { return std::uint64_t{0}; });
    e.run(~sim::TimeNs{0});
    EXPECT_EQ(e.stallsDetected(), 1u);
    // Continuing after a trip is legal: the baseline was reset, so the
    // second stall needs another full budget of flat progress.
    const std::uint64_t before = e.dispatched();
    e.run(~sim::TimeNs{0});
    EXPECT_EQ(e.stallsDetected(), 2u);
    EXPECT_GE(e.dispatched() - before, 500u);
}
