/**
 * @file
 * Tests for extension features beyond the paper's core evaluation:
 * the latency histogram, per-segment latency reporting, and the
 * zero-copy (sendfile) fallback path of section 2.2.
 */

#include <gtest/gtest.h>

#include "net/stream.hh"
#include "sim/histogram.hh"
#include "workloads/netperf.hh"

using namespace damn;

// ---------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------

TEST(Histogram, BasicStats)
{
    sim::LatencyHistogram h;
    for (sim::TimeNs v : {100u, 200u, 300u, 400u, 500u})
        h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.minNs(), 100u);
    EXPECT_EQ(h.maxNs(), 500u);
    EXPECT_NEAR(h.meanNs(), 300.0, 1.0);
}

TEST(Histogram, QuantilesWithinBucketResolution)
{
    sim::LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(sim::TimeNs(i));
    // 19% bucket resolution: quantiles land near the true values.
    EXPECT_NEAR(double(h.p50()), 500.0, 500.0 * 0.25);
    EXPECT_NEAR(double(h.p99()), 990.0, 990.0 * 0.25);
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
}

TEST(Histogram, WideRange)
{
    sim::LatencyHistogram h;
    h.record(1);
    h.record(1'000'000'000ull);
    h.record(1'000'000'000'000ull);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_GE(h.quantile(1.0), 1'000'000'000'000ull);
}

TEST(Histogram, ResetClears)
{
    sim::LatencyHistogram h;
    h.record(123);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

TEST(Histogram, MonotoneQuantiles)
{
    sim::LatencyHistogram h;
    sim::Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        h.record(rng.between(50, 500000));
    sim::TimeNs prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        EXPECT_GE(h.quantile(q), prev);
        prev = h.quantile(q);
    }
}

// ---------------------------------------------------------------------
// Stream latency reporting
// ---------------------------------------------------------------------

TEST(StreamLatency, StrictHasFatterTailThanDamn)
{
    const auto run = [](dma::SchemeKind k) {
        work::NetperfOpts o;
        o.sysParams.scheme = k;
        o.mode = work::NetMode::Rx;
        o.instances = 28;
        o.segBytes = 16 * 1024;
        o.costFactor = o.sysParams.cost.multiFlowFactor;
        o.runWindow.warmupNs = 5 * sim::kNsPerMs;
        o.runWindow.measureNs = 30 * sim::kNsPerMs;
        return work::runNetperf(o);
    };
    const auto strict = run(dma::SchemeKind::Strict);
    const auto dam = run(dma::SchemeKind::Damn);
    ASSERT_GT(strict.res.latency.count(), 0u);
    ASSERT_GT(dam.res.latency.count(), 0u);
    // Invalidation-lock queueing shows up in strict's tail latency.
    EXPECT_GT(strict.res.latency.p99(), dam.res.latency.p99() * 2);
}

TEST(StreamLatency, RecordsEverySegmentInWindow)
{
    work::NetperfOpts o;
    o.sysParams.scheme = dma::SchemeKind::IommuOff;
    o.instances = 2;
    o.coreLimit = 2;
    o.runWindow.warmupNs = 2 * sim::kNsPerMs;
    o.runWindow.measureNs = 10 * sim::kNsPerMs;
    const auto run = work::runNetperf(o);
    std::uint64_t segs = 0;
    for (const auto &f : run.res.flows)
        segs += f.segments;
    EXPECT_EQ(run.res.latency.count(), segs);
}

// ---------------------------------------------------------------------
// Zero-copy (sendfile) fallback — paper section 2.2
// ---------------------------------------------------------------------

namespace {

struct ZeroCopyFixture : ::testing::Test
{
    ZeroCopyFixture()
    {
        net::SystemParams p;
        p.scheme = dma::SchemeKind::Damn;
        sys = std::make_unique<net::System>(p);
        nic = std::make_unique<net::NicDevice>(*sys, "mlx5_0");
        stack = std::make_unique<net::TcpStack>(*sys, *nic);
    }

    sim::CpuCursor
    cpu()
    {
        return sim::CpuCursor(sys->ctx.machine.core(0), sys->ctx.now());
    }

    /** Simulated page-cache pages holding file data. */
    std::vector<mem::Pa>
    fileCache(unsigned pages, std::uint8_t fill)
    {
        std::vector<mem::Pa> out;
        for (unsigned i = 0; i < pages; ++i) {
            const mem::Pfn pfn = sys->pageAlloc.allocPages(0, 0, true);
            sys->phys.fill(mem::pfnToPa(pfn), fill, mem::kPageSize);
            out.push_back(mem::pfnToPa(pfn));
        }
        return out;
    }

    std::unique_ptr<net::System> sys;
    std::unique_ptr<net::NicDevice> nic;
    std::unique_ptr<net::TcpStack> stack;
};

} // namespace

TEST_F(ZeroCopyFixture, FilePagesMapThroughFallback)
{
    auto c = cpu();
    const auto pages = fileCache(4, 0x42);
    net::SkBuff skb =
        stack->txBuildZeroCopy(c, pages, 4 * 4096, 1.0);

    // The head is DAMN; the file frags are legacy-mapped.
    const std::uint64_t damn_hits =
        sys->ctx.stats.get(sim::Ctr::DamnMapHits);
    EXPECT_EQ(damn_hits, 1u) << "only the header buffer is DAMN's";
    unsigned legacy = 0;
    for (const auto &seg : skb.segs)
        if (!core::isDamnIova(seg.dmaAddr))
            ++legacy;
    EXPECT_EQ(legacy, 4u);
    stack->txComplete(c, skb, 1.0);
    for (const mem::Pa pa : pages)
        sys->pageAlloc.freePages(mem::paToPfn(pa), 0);
}

TEST_F(ZeroCopyFixture, DeviceReadsFileDataWithoutCopies)
{
    auto c = cpu();
    const auto pages = fileCache(2, 0x6c);
    net::SkBuff skb = stack->txBuildZeroCopy(c, pages, 8192, 1.0);

    // No user->kernel copy happened: tx path stats show a zero-copy
    // segment, and the device reads the page-cache bytes directly.
    EXPECT_EQ(sys->ctx.stats.get(sim::Ctr::NetTxZerocopySegments), 1u);
    std::vector<std::uint8_t> wire(4096);
    ASSERT_EQ(skb.segs.size(), 3u); // head + 2 file pages
    ASSERT_TRUE(skb.segs[1].dmaMapped);
    EXPECT_TRUE(
        nic->dmaRead(c.time, skb.segs[1].dmaAddr, wire.data(), 4096).ok);
    EXPECT_EQ(wire[0], 0x6c);
    EXPECT_EQ(wire[4095], 0x6c);
    stack->txComplete(c, skb, 1.0);
    for (const mem::Pa pa : pages)
        sys->pageAlloc.freePages(mem::paToPfn(pa), 0);
}

TEST_F(ZeroCopyFixture, FallbackProtectionStillApplies)
{
    // Under damn's deferred fallback, the file pages become
    // inaccessible once the batched invalidation runs after the
    // zero-copy skb completes — protection is maintained for the path
    // DAMN does not cover.
    auto c = cpu();
    const auto pages = fileCache(1, 0x31);
    net::SkBuff skb = stack->txBuildZeroCopy(c, pages, 4096, 1.0);
    ASSERT_TRUE(skb.segs[1].dmaMapped);
    const iommu::Iova file_iova = skb.segs[1].dmaAddr;
    EXPECT_TRUE(nic->dmaTouch(c.time, file_iova, 64, false).ok);

    stack->txComplete(c, skb, 1.0);
    sys->dmaApi->flushPending(c);
    EXPECT_TRUE(nic->dmaTouch(c.time, file_iova, 64, false).fault)
        << "the fallback must revoke access once it flushes";
    for (const mem::Pa pa : pages)
        sys->pageAlloc.freePages(mem::paToPfn(pa), 0);
}

TEST_F(ZeroCopyFixture, PageCachePagesSurviveSkbFree)
{
    auto c = cpu();
    const auto pages = fileCache(2, 0x77);
    net::SkBuff skb = stack->txBuildZeroCopy(c, pages, 8192, 1.0);
    stack->txComplete(c, skb, 1.0);
    // Borrowed frags: the page-cache data is untouched after free.
    EXPECT_EQ(sys->phys.readByte(pages[0]), 0x77);
    EXPECT_EQ(sys->phys.readByte(pages[1] + 4095), 0x77);
    for (const mem::Pa pa : pages)
        sys->pageAlloc.freePages(mem::paToPfn(pa), 0);
}
