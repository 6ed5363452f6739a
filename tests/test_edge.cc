/**
 * @file
 * Edge cases and defensive-invariant tests (including death tests for
 * the contracts the library enforces with assertions).
 */

#include <gtest/gtest.h>

#include "net/stream.hh"
#include "workloads/memcached.hh"

using namespace damn;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

struct DamnSys
{
    DamnSys()
    {
        net::SystemParams p;
        p.scheme = dma::SchemeKind::Damn;
        sys = std::make_unique<net::System>(p);
        nic = std::make_unique<net::NicDevice>(*sys, "mlx5_0");
    }

    sim::CpuCursor
    cpu(sim::CoreId c = 0)
    {
        return sim::CpuCursor(sys->ctx.machine.core(c), sys->ctx.now());
    }

    std::unique_ptr<net::System> sys;
    std::unique_ptr<net::NicDevice> nic;
};

} // namespace

// ---------------------------------------------------------------------
// Short / degenerate packets
// ---------------------------------------------------------------------

TEST(Edge, PacketShorterThanHeaderStillProcessed)
{
    DamnSys d;
    net::TcpStack stack(*d.sys, *d.nic);
    auto c = d.cpu();
    net::RxBuffer buf = stack.driver.allocRxBuffer(c, 4096);
    std::uint8_t tiny[40] = {0x09};
    d.nic->dmaWrite(0, buf.seg.dmaAddr, tiny, sizeof(tiny));
    net::SkBuff skb = stack.driver.rxBuild(c, buf, 40);
    stack.rxSegment(c, skb, 1.0); // header access clamps to len
    EXPECT_LE(d.sys->accessor().securedBytes(), 40u);
    d.sys->accessor().freeSkb(c, skb);
}

TEST(Edge, MinimumSizeAllocations)
{
    DamnSys d;
    auto c = d.cpu();
    const mem::Pa one =
        d.sys->damn->damnAlloc(c, d.nic.get(), core::Rights::Write, 1);
    ASSERT_NE(one, 0u);
    EXPECT_TRUE(d.sys->damn->isDamnBuffer(one));
    d.sys->damn->damnFree(c, one);
}

TEST(Edge, ZeroLengthSecureRangeIsNoop)
{
    DamnSys d;
    net::TcpStack stack(*d.sys, *d.nic);
    auto c = d.cpu();
    net::RxBuffer buf = stack.driver.allocRxBuffer(c, 4096);
    d.nic->dmaTouch(0, buf.seg.dmaAddr, 4096, true);
    net::SkBuff skb = stack.driver.rxBuild(c, buf, 4096);
    EXPECT_EQ(d.sys->accessor().secureRange(c, skb, 100, 0), 0u);
    d.sys->accessor().freeSkb(c, skb);
}

TEST(Edge, TouchOnlyAccessStillSecures)
{
    // access() with a null destination (checksum-style touch) must
    // still trigger the TOCTTOU copy.
    DamnSys d;
    net::TcpStack stack(*d.sys, *d.nic);
    auto c = d.cpu();
    net::RxBuffer buf = stack.driver.allocRxBuffer(c, 4096);
    d.nic->dmaTouch(0, buf.seg.dmaAddr, 4096, true);
    net::SkBuff skb = stack.driver.rxBuild(c, buf, 4096);
    d.sys->accessor().access(c, skb, 0, 512, nullptr);
    EXPECT_EQ(d.sys->accessor().securedBytes(), 512u);
    d.sys->accessor().freeSkb(c, skb);
}

TEST(Edge, AllRightsCombinationsAllocate)
{
    DamnSys d;
    auto c = d.cpu();
    for (const auto r :
         {core::Rights::Read, core::Rights::Write, core::Rights::RW}) {
        const mem::Pa buf =
            d.sys->damn->damnAlloc(c, d.nic.get(), r, 1024);
        ASSERT_NE(buf, 0u);
        EXPECT_EQ(d.sys->damn->rightsOf(buf), r);
        const iommu::Iova iova = d.sys->damn->iovaOf(buf);
        const bool can_read =
            d.sys->mmu.translate(d.nic->domain(), iova, false).ok;
        const bool can_write =
            d.sys->mmu.translate(d.nic->domain(), iova, true).ok;
        EXPECT_EQ(can_read, r != core::Rights::Write);
        EXPECT_EQ(can_write, r != core::Rights::Read);
        d.sys->damn->damnFree(c, buf);
    }
}

TEST(Edge, ManyDevicesGetDistinctCaches)
{
    DamnSys d;
    auto c = d.cpu();
    std::vector<std::unique_ptr<dma::Device>> devs;
    std::set<iommu::Iova> iovas;
    for (int i = 0; i < 16; ++i) {
        devs.push_back(std::make_unique<dma::Device>(
            d.sys->ctx, "dev" + std::to_string(i), d.sys->mmu,
            d.sys->phys));
        const mem::Pa buf = d.sys->damn->damnAlloc(
            c, devs.back().get(), core::Rights::Write, 4096);
        const iommu::Iova iova = d.sys->damn->iovaOf(buf);
        EXPECT_TRUE(iovas.insert(iova).second);
        // Each device's buffer is invisible to every other device.
        for (const auto &other : devs) {
            const bool ok =
                d.sys->mmu.translate(other->domain(), iova, true).ok;
            EXPECT_EQ(ok, other.get() == devs.back().get());
        }
        d.sys->damn->damnFree(c, buf);
    }
}

// ---------------------------------------------------------------------
// Contract violations die loudly (asserts are on in all build types)
// ---------------------------------------------------------------------

using EdgeDeath = ::testing::Test;

TEST(EdgeDeath, DoubleDamnFreeAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH(
        {
            DamnSys d;
            auto c = d.cpu();
            // Whole-chunk buffer; a second alloc retires the chunk's
            // bump bias so the first free drops its refcount to zero.
            const mem::Pa a = d.sys->damn->damnAlloc(
                c, d.nic.get(), core::Rights::Write, 65536);
            const mem::Pa b = d.sys->damn->damnAlloc(
                c, d.nic.get(), core::Rights::Write, 65536);
            (void)b;
            d.sys->damn->damnFree(c, a);
            d.sys->damn->damnFree(c, a); // double free of a dead chunk
        },
        "damn_free of a free buffer");
}

TEST(EdgeDeath, OversizeDamnAllocAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH(
        {
            DamnSys d;
            auto c = d.cpu();
            d.sys->damn->damnAlloc(c, d.nic.get(), core::Rights::Write,
                                   65537);
        },
        "size");
}

TEST(EdgeDeath, BuddyDoubleFreeAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH(
        {
            mem::PhysicalMemory pm(64 * kMiB);
            mem::PageAllocator pa(pm, 1);
            const mem::Pfn p = pa.allocPages(2, 0);
            pa.freePages(p, 2);
            pa.freePages(p, 2);
        },
        "double free");
}

TEST(EdgeDeath, KfreeOfNonSlabAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH(
        {
            mem::PhysicalMemory pm(64 * kMiB);
            mem::PageAllocator pa(pm, 1);
            mem::KmallocHeap heap(pa);
            const mem::Pfn p = pa.allocPages(0, 0);
            heap.kfree(mem::pfnToPa(p));
        },
        "non-slab");
}

// ---------------------------------------------------------------------
// Determinism of the full workloads
// ---------------------------------------------------------------------

TEST(Edge, MemcachedDeterministic)
{
    work::MemcachedOpts o;
    o.instances = 4;
    o.runWindow.warmupNs = 5 * sim::kNsPerMs;
    o.runWindow.measureNs = 20 * sim::kNsPerMs;
    const auto a = work::runMemcached(o);
    const auto b = work::runMemcached(o);
    EXPECT_DOUBLE_EQ(a.common.opsPerSec, b.common.opsPerSec);
    EXPECT_DOUBLE_EQ(a.common.cpuPct, b.common.cpuPct);
}

TEST(Edge, SystemsAreFullyIsolated)
{
    // Two Systems in one process share nothing: traffic in one leaves
    // the other untouched.
    net::SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    net::System a(p), b(p);
    net::NicDevice nic_a(a, "a0");
    sim::CpuCursor c(a.ctx.machine.core(0), 0);
    const mem::Pa buf =
        a.damn->damnAlloc(c, &nic_a, core::Rights::Write, 4096);
    (void)buf;
    EXPECT_GT(a.pageAlloc.allocatedFrames(), 0u);
    EXPECT_EQ(b.pageAlloc.allocatedFrames(), 0u);
    EXPECT_EQ(b.ctx.stats.get(sim::Ctr::DamnAllocs), 0u);
    EXPECT_EQ(b.mmu.everMappedFrames(), 0u);
}

TEST(Edge, HugeVariantSurvivesManyChunks)
{
    net::SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    p.damnCache.hugeIovaPages = true;
    net::System sys(p);
    net::NicDevice nic(sys, "mlx5_0");
    sim::CpuCursor c(sys.ctx.machine.core(0), 0);
    // More than one 2 MiB block's worth of chunks (32 per block).
    std::vector<mem::Pa> bufs;
    for (int i = 0; i < 80; ++i) {
        bufs.push_back(sys.damn->damnAlloc(c, &nic, core::Rights::Write,
                                           65536));
    }
    std::set<mem::Pa> uniq(bufs.begin(), bufs.end());
    EXPECT_EQ(uniq.size(), bufs.size());
    for (const mem::Pa b : bufs) {
        const auto tr =
            sys.mmu.translate(nic.domain(), sys.damn->iovaOf(b), true);
        ASSERT_TRUE(tr.ok);
        ASSERT_EQ(tr.pa, b);
    }
    for (const mem::Pa b : bufs)
        sys.damn->damnFree(c, b);
}

TEST(Edge, FallbackIsDeferred)
{
    // damn's fallback for legacy buffers is the deferred scheme: an
    // unmapped buffer stays reachable until the batched flush.
    net::SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    net::System sys(p);
    net::NicDevice nic(sys, "mlx5_0");
    sim::CpuCursor c(sys.ctx.machine.core(0), 0);
    const mem::Pa kbuf = sys.heap.kmalloc(512);
    const iommu::Iova dma =
        sys.dmaApi->map(c, nic, kbuf, 512, dma::Dir::ToDevice);
    EXPECT_TRUE(nic.dmaTouch(0, dma, 512, false).ok);
    sys.dmaApi->unmap(c, nic, dma, 512, dma::Dir::ToDevice);
    EXPECT_TRUE(nic.dmaTouch(0, dma, 512, false).ok)
        << "the deferred window stays open until the flush";
    sys.dmaApi->flushPending(c);
    EXPECT_TRUE(nic.dmaTouch(0, dma, 512, false).fault)
        << "the flush closes it";
    sys.heap.kfree(kbuf);
}

TEST(Edge, StatsSurviveHeavyUse)
{
    DamnSys d;
    auto c = d.cpu();
    for (int i = 0; i < 1000; ++i) {
        const mem::Pa buf = d.sys->damn->damnAlloc(
            c, d.nic.get(), core::Rights::Write, 2048);
        d.sys->damn->damnFree(c, buf);
    }
    EXPECT_EQ(d.sys->ctx.stats.get(sim::Ctr::DamnAllocs), 1000u);
    EXPECT_EQ(d.sys->ctx.stats.get(sim::Ctr::DamnFrees), 1000u);
}
