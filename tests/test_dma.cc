/**
 * @file
 * Unit tests for the DMA API layer: devices and the four legacy
 * protection schemes, including their functional security semantics.
 */

#include <gtest/gtest.h>

#include "dma/schemes.hh"

using namespace damn;
using namespace damn::dma;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

struct DmaFixture : ::testing::TestWithParam<SchemeKind>
{
    DmaFixture()
        : ctx(sim::CostModel{}, 1, 2),
          pm(128 * kMiB),
          pa(pm, 1),
          mmu(ctx, /*enabled=*/GetParam() != SchemeKind::IommuOff),
          dev(ctx, "dev0", mmu, pm),
          api(makeScheme(GetParam(), ctx, mmu, pa))
    {}

    sim::CpuCursor
    cpu()
    {
        return sim::CpuCursor(ctx.machine.core(0), ctx.now());
    }

    /** Allocate a page-backed buffer with a recognizable pattern. */
    mem::Pa
    makeBuffer(std::uint32_t len, std::uint8_t fill)
    {
        const mem::Pfn pfn = pa.allocPages(4, 0, true);
        pm.fill(mem::pfnToPa(pfn), fill, len);
        return mem::pfnToPa(pfn);
    }

    sim::Context ctx;
    mem::PhysicalMemory pm;
    mem::PageAllocator pa;
    iommu::Iommu mmu;
    Device dev;
    std::unique_ptr<DmaApi> api;
};

} // namespace

TEST_P(DmaFixture, TxDataReachesDevice)
{
    auto c = cpu();
    const mem::Pa buf = makeBuffer(4096, 0x5c);
    const iommu::Iova dma = api->map(c, dev, buf, 4096, Dir::ToDevice);

    std::vector<std::uint8_t> wire(4096, 0);
    const DmaOutcome out = dev.dmaRead(c.time, dma, wire.data(), 4096);
    EXPECT_TRUE(out.ok);
    for (const std::uint8_t b : wire)
        ASSERT_EQ(b, 0x5c);

    api->unmap(c, dev, dma, 4096, Dir::ToDevice);
}

TEST_P(DmaFixture, RxDataReachesBuffer)
{
    auto c = cpu();
    const mem::Pa buf = makeBuffer(4096, 0);
    const iommu::Iova dma = api->map(c, dev, buf, 4096, Dir::FromDevice);

    std::vector<std::uint8_t> wire(4096, 0x7e);
    EXPECT_TRUE(dev.dmaWrite(c.time, dma, wire.data(), 4096).ok);
    api->unmap(c, dev, dma, 4096, Dir::FromDevice);

    // After unmap the *driver's buffer* holds the data (shadow copies
    // it back; the others DMAed in place).
    EXPECT_EQ(pm.readByte(buf), 0x7e);
    EXPECT_EQ(pm.readByte(buf + 4095), 0x7e);
}

TEST_P(DmaFixture, SubPageBuffersWork)
{
    auto c = cpu();
    const mem::Pa buf = makeBuffer(512, 0x21) + 128; // unaligned
    const iommu::Iova dma = api->map(c, dev, buf, 256, Dir::ToDevice);
    std::uint8_t wire[256];
    EXPECT_TRUE(dev.dmaRead(c.time, dma, wire, 256).ok);
    EXPECT_EQ(wire[0], 0x21);
    api->unmap(c, dev, dma, 256, Dir::ToDevice);
}

TEST_P(DmaFixture, ScatterGatherBatchUnmap)
{
    auto c = cpu();
    std::vector<DmaApi::UnmapReq> reqs;
    for (int i = 0; i < 5; ++i) {
        const mem::Pa buf = makeBuffer(4096, std::uint8_t(i));
        const iommu::Iova dma =
            api->map(c, dev, buf, 4096, Dir::ToDevice);
        reqs.push_back({dma, 4096, Dir::ToDevice});
    }
    api->unmapBatch(c, dev, reqs);
    // After a batch unmap, the addresses must no longer be usable
    // (for schemes that enforce a boundary at all).
    if (GetParam() == SchemeKind::Strict) {
        std::uint8_t b;
        EXPECT_TRUE(dev.dmaRead(c.time, reqs[0].dmaAddr, &b, 1).fault);
    }
}

TEST_P(DmaFixture, ManyMapsUnmapsStaySane)
{
    auto c = cpu();
    for (int round = 0; round < 200; ++round) {
        const mem::Pa buf = makeBuffer(8192, std::uint8_t(round));
        const iommu::Iova dma =
            api->map(c, dev, buf, 8192, Dir::FromDevice);
        EXPECT_TRUE(dev.dmaTouch(c.time, dma, 8192, true).ok);
        api->unmap(c, dev, dma, 8192, Dir::FromDevice);
        pa.freePages(mem::paToPfn(buf), 4);
    }
    EXPECT_EQ(dev.faultedDmas(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DmaFixture,
    ::testing::Values(SchemeKind::IommuOff, SchemeKind::Strict,
                      SchemeKind::Deferred, SchemeKind::Shadow),
    [](const auto &param_info) {
        std::string n = schemeKindName(param_info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Scheme-specific semantics
// ---------------------------------------------------------------------

namespace {

struct SchemeFixture : ::testing::Test
{
    SchemeFixture()
        : ctx(sim::CostModel{}, 1, 2),
          pm(128 * kMiB),
          pa(pm, 1),
          mmu(ctx),
          dev(ctx, "dev0", mmu, pm)
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
    Device dev;
};

} // namespace

TEST_F(SchemeFixture, StrictClosesWindowImmediately)
{
    StrictDmaApi api(ctx, mmu);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const iommu::Iova dma =
        api.map(c, dev, mem::pfnToPa(pfn), 4096, Dir::FromDevice);
    EXPECT_TRUE(dev.dmaTouch(c.time, dma, 4096, true).ok);
    api.unmap(c, dev, dma, 4096, Dir::FromDevice);
    EXPECT_TRUE(dev.dmaTouch(c.time, dma, 4096, true).fault);
}

TEST_F(SchemeFixture, DeferredLeavesWindowUntilFlush)
{
    DeferredDmaApi api(ctx, mmu);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const iommu::Iova dma =
        api.map(c, dev, mem::pfnToPa(pfn), 4096, Dir::FromDevice);
    EXPECT_TRUE(dev.dmaTouch(c.time, dma, 4096, true).ok); // warm IOTLB
    api.unmap(c, dev, dma, 4096, Dir::FromDevice);
    // The vulnerability window: stale IOTLB entry still translates.
    EXPECT_TRUE(dev.dmaTouch(c.time, dma, 4096, true).ok);
    EXPECT_EQ(api.pendingFlushes(), 1u);
    api.flushPending(c);
    EXPECT_TRUE(dev.dmaTouch(c.time, dma, 4096, true).fault);
    EXPECT_EQ(api.pendingFlushes(), 0u);
}

TEST_F(SchemeFixture, DeferredWindowClosedWithoutWarmTlb)
{
    // If the translation was never cached, clearing the PTE suffices.
    DeferredDmaApi api(ctx, mmu);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const iommu::Iova dma =
        api.map(c, dev, mem::pfnToPa(pfn), 4096, Dir::FromDevice);
    api.unmap(c, dev, dma, 4096, Dir::FromDevice);
    EXPECT_TRUE(dev.dmaTouch(c.time, dma, 4096, true).fault);
}

TEST_F(SchemeFixture, DeferredBatchThresholdFlushes)
{
    DeferredDmaApi api(ctx, mmu);
    auto c = cpu();
    const unsigned batch = ctx.cost.deferredBatch;
    for (unsigned i = 0; i < batch; ++i) {
        const mem::Pfn pfn = pa.allocPages(0, 0);
        const iommu::Iova dma =
            api.map(c, dev, mem::pfnToPa(pfn), 4096, Dir::FromDevice);
        api.unmap(c, dev, dma, 4096, Dir::FromDevice);
        pa.freePages(pfn, 0);
    }
    EXPECT_EQ(api.pendingFlushes(), 0u) << "threshold flush fired";
    EXPECT_EQ(ctx.stats.get(sim::Ctr::DmaDeferredFlushes), 1u);
}

TEST_F(SchemeFixture, DeferredTimerFlushes)
{
    DeferredDmaApi api(ctx, mmu);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const iommu::Iova dma =
        api.map(c, dev, mem::pfnToPa(pfn), 4096, Dir::FromDevice);
    EXPECT_TRUE(dev.dmaTouch(c.time, dma, 4096, true).ok);
    api.unmap(c, dev, dma, 4096, Dir::FromDevice);
    ctx.engine.run(ctx.cost.deferredFlushTimerNs + 1);
    EXPECT_EQ(api.pendingFlushes(), 0u);
    EXPECT_TRUE(dev.dmaTouch(ctx.now(), dma, 4096, true).fault);
}

TEST_F(SchemeFixture, DeferredRecyclesIovaOnlyAfterFlush)
{
    DeferredDmaApi api(ctx, mmu);
    auto c = cpu();
    const mem::Pfn p1 = pa.allocPages(0, 0, true);
    const iommu::Iova dma1 =
        api.map(c, dev, mem::pfnToPa(p1), 4096, Dir::FromDevice);
    api.unmap(c, dev, dma1, 4096, Dir::FromDevice);
    // Before the flush, a new map must not reuse the stale IOVA.
    const mem::Pfn p2 = pa.allocPages(0, 0, true);
    const iommu::Iova dma2 =
        api.map(c, dev, mem::pfnToPa(p2), 4096, Dir::FromDevice);
    EXPECT_NE(dma2 & ~iommu::Iova(0xfff), dma1 & ~iommu::Iova(0xfff));
}

TEST_F(SchemeFixture, ShadowTxCopiesAtMapTime)
{
    ShadowDmaApi api(ctx, mmu, pa);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const mem::Pa buf = mem::pfnToPa(pfn);
    pm.fill(buf, 0x44, 4096);
    const iommu::Iova dma = api.map(c, dev, buf, 4096, Dir::ToDevice);

    // Changing the original *after* map must not be visible: the
    // device reads the shadow copy (that is the security property).
    pm.fill(buf, 0x99, 4096);
    std::uint8_t wire[16];
    EXPECT_TRUE(dev.dmaRead(c.time, dma, wire, 16).ok);
    EXPECT_EQ(wire[0], 0x44);
    api.unmap(c, dev, dma, 4096, Dir::ToDevice);
}

TEST_F(SchemeFixture, ShadowRxCopiesBackAtUnmap)
{
    ShadowDmaApi api(ctx, mmu, pa);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const mem::Pa buf = mem::pfnToPa(pfn);
    const iommu::Iova dma = api.map(c, dev, buf, 4096, Dir::FromDevice);
    std::vector<std::uint8_t> wire(4096, 0x31);
    EXPECT_TRUE(dev.dmaWrite(c.time, dma, wire.data(), 4096).ok);
    EXPECT_EQ(pm.readByte(buf), 0) << "data must not be in place yet";
    api.unmap(c, dev, dma, 4096, Dir::FromDevice);
    EXPECT_EQ(pm.readByte(buf), 0x31);
}

TEST_F(SchemeFixture, ShadowDriverBufferNeverDeviceVisible)
{
    ShadowDmaApi api(ctx, mmu, pa);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const mem::Pa buf = mem::pfnToPa(pfn);
    const iommu::Iova dma = api.map(c, dev, buf, 4096, Dir::FromDevice);
    (void)dma;
    // The *driver buffer's own PA* is not a valid DMA address.
    std::uint8_t b;
    EXPECT_TRUE(dev.dmaRead(c.time, buf, &b, 1).fault);
    api.unmap(c, dev, dma, 4096, Dir::FromDevice);
}

TEST_F(SchemeFixture, ShadowPoolRecyclesBuffers)
{
    ShadowDmaApi api(ctx, mmu, pa);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const mem::Pa buf = mem::pfnToPa(pfn);
    const iommu::Iova d1 = api.map(c, dev, buf, 2048, Dir::ToDevice);
    api.unmap(c, dev, d1, 2048, Dir::ToDevice);
    const iommu::Iova d2 = api.map(c, dev, buf, 2048, Dir::ToDevice);
    EXPECT_EQ(d1, d2) << "freed shadow buffer should be reused (LIFO)";
    api.unmap(c, dev, d2, 2048, Dir::ToDevice);
    const std::uint64_t frames = api.poolFrames();
    // Another cycle must not grow the pool.
    const iommu::Iova d3 = api.map(c, dev, buf, 2048, Dir::ToDevice);
    api.unmap(c, dev, d3, 2048, Dir::ToDevice);
    EXPECT_EQ(api.poolFrames(), frames);
}

// Shadow keeps every domain's in-flight maps in one table and a pool
// per domain.  Draining one domain aborts exactly its maps and
// releases its pool; the other domain's maps still reach the device
// and unmap; the pressure shrinker releases only pools with nothing
// in flight.
TEST_F(SchemeFixture, ShadowDrainAndShrinkStayInTheirDomain)
{
    ShadowDmaApi api(ctx, mmu, pa);
    Device dev2(ctx, "dev1", mmu, pm);
    Device dev3(ctx, "dev2", mmu, pm);
    auto c = cpu();
    const mem::Pa buf = mem::pfnToPa(pa.allocPages(0, 0, true));
    std::vector<iommu::Iova> mine, theirs;
    for (int i = 0; i < 3; ++i)
        mine.push_back(api.map(c, dev, buf, 2048, Dir::ToDevice));
    for (int i = 0; i < 5; ++i)
        theirs.push_back(api.map(c, dev2, buf, 4096, Dir::FromDevice));
    constexpr std::uint64_t kBlockPages = 32; // one order-5 pool block
    EXPECT_EQ(api.poolFrames(), 2 * kBlockPages);

    EXPECT_EQ(api.drainDomain(c, dev), kBlockPages);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::ShadowAbortedMaps), 3u);
    EXPECT_EQ(api.poolFrames(), kBlockPages);
    std::uint8_t byte = 0;
    for (const iommu::Iova iova : mine)
        EXPECT_TRUE(dev.dmaRead(c.time, iova, &byte, 1).fault);
    for (const iommu::Iova iova : theirs) {
        EXPECT_TRUE(dev2.dmaWrite(c.time, iova, &byte, 1).ok);
        api.unmap(c, dev2, iova, 4096, Dir::FromDevice);
    }
    EXPECT_EQ(ctx.stats.get(sim::Ctr::ShadowAbortedMaps), 3u);

    // dev2's pool is idle now; dev3 holds one map in flight.
    const iommu::Iova busy = api.map(c, dev3, buf, 512, Dir::ToDevice);
    EXPECT_EQ(api.shrinkIdle(c), kBlockPages);
    EXPECT_EQ(api.poolFrames(), kBlockPages);
    EXPECT_TRUE(dev3.dmaRead(c.time, busy, &byte, 1).ok);
    api.unmap(c, dev3, busy, 512, Dir::ToDevice);
    EXPECT_EQ(api.shrinkIdle(c), kBlockPages);
    EXPECT_EQ(api.poolFrames(), 0u);
    EXPECT_EQ(api.iovaAllocator()->outstanding(), 0u);
    EXPECT_EQ(mmu.currentlyMappedPages(), 0u);
}

TEST_F(SchemeFixture, DeviceFaultCounting)
{
    StrictDmaApi api(ctx, mmu);
    auto c = cpu();
    std::uint8_t b;
    EXPECT_TRUE(dev.dmaRead(c.time, 0xdead000, &b, 1).fault);
    EXPECT_EQ(dev.faultedDmas(), 1u);
}

TEST_F(SchemeFixture, DmaStopsAtFaultingPage)
{
    StrictDmaApi api(ctx, mmu);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const iommu::Iova dma =
        api.map(c, dev, mem::pfnToPa(pfn), 4096, Dir::FromDevice);
    // Write 8 KiB: the second page is unmapped.
    std::vector<std::uint8_t> wire(8192, 0x66);
    const DmaOutcome out =
        dev.dmaWrite(c.time, dma, wire.data(), wire.size());
    EXPECT_TRUE(out.fault);
    EXPECT_EQ(out.bytesDone, 4096u);
    api.unmap(c, dev, dma, 4096, Dir::FromDevice);
}

TEST_F(SchemeFixture, PermDirectionEnforced)
{
    StrictDmaApi api(ctx, mmu);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const iommu::Iova dma =
        api.map(c, dev, mem::pfnToPa(pfn), 4096, Dir::ToDevice);
    std::uint8_t b = 7;
    EXPECT_TRUE(dev.dmaRead(c.time, dma, &b, 1).ok);
    EXPECT_TRUE(dev.dmaWrite(c.time, dma, &b, 1).fault)
        << "TX mapping must not be writable by the device";
    api.unmap(c, dev, dma, 4096, Dir::ToDevice);
}

TEST_F(SchemeFixture, StrictChargesInvalidationTime)
{
    StrictDmaApi api(ctx, mmu);
    auto c = cpu();
    const mem::Pfn pfn = pa.allocPages(0, 0, true);
    const iommu::Iova dma =
        api.map(c, dev, mem::pfnToPa(pfn), 4096, Dir::FromDevice);
    const sim::TimeNs before = c.time;
    api.unmap(c, dev, dma, 4096, Dir::FromDevice);
    EXPECT_GE(c.time - before, ctx.cost.strictInvalidateNs);
}

TEST_F(SchemeFixture, SchemeNamesAndProperties)
{
    const std::pair<SchemeKind, const char *> schemes[] = {
        {SchemeKind::IommuOff, "iommu-off"},
        {SchemeKind::Strict, "strict"},
        {SchemeKind::Deferred, "deferred"},
        {SchemeKind::Shadow, "shadow"},
    };
    for (const auto &[kind, name] : schemes) {
        EXPECT_STREQ(schemeKindName(kind), name);
        SchemeKind parsed;
        ASSERT_TRUE(schemeFromName(name, &parsed)) << name;
        EXPECT_EQ(parsed, kind);
        // Only iommu-off allocates no IOVAs.
        const auto api = makeScheme(kind, ctx, mmu, pa);
        EXPECT_EQ(api->iovaAllocator() == nullptr,
                  kind == SchemeKind::IommuOff)
            << name;
    }
}
