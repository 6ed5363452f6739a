/**
 * @file
 * Cross-module integration tests: full packet flows with real data
 * under every scheme, end-to-end security sequences, allocator/IOMMU
 * interaction under sustained traffic, and property sweeps.
 */

#include <gtest/gtest.h>

#include "net/stream.hh"
#include "workloads/netperf.hh"

using namespace damn;
using namespace damn::net;

namespace {

struct E2E : ::testing::TestWithParam<dma::SchemeKind>
{
    E2E()
    {
        SystemParams p;
        p.scheme = GetParam();
        sys = std::make_unique<System>(p);
        nic = std::make_unique<NicDevice>(*sys, "mlx5_0");
        stack = std::make_unique<TcpStack>(*sys, *nic);
    }

    sim::CpuCursor
    cpu(sim::CoreId c = 0)
    {
        return sim::CpuCursor(sys->ctx.machine.core(c), sys->ctx.now());
    }

    std::unique_ptr<System> sys;
    std::unique_ptr<NicDevice> nic;
    std::unique_ptr<TcpStack> stack;
};

std::string
schemeName(const ::testing::TestParamInfo<dma::SchemeKind> &info)
{
    std::string n = dma::schemeKindName(info.param);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

TEST_P(E2E, HundredPacketsSurviveIntact)
{
    auto c = cpu();
    sim::Rng rng(99);
    for (int pkt = 0; pkt < 100; ++pkt) {
        const auto len = std::uint32_t(rng.between(64, 16384));
        RxBuffer buf = stack->driver.allocRxBuffer(c, 16384);
        std::vector<std::uint8_t> wire(len);
        for (auto &b : wire)
            b = std::uint8_t(rng.next());
        ASSERT_TRUE(nic->dmaWrite(c.time, buf.seg.dmaAddr, wire.data(),
                                  len).ok);
        SkBuff skb = stack->driver.rxBuild(c, buf, len);
        stack->rxSegment(c, skb, 1.0);
        std::vector<std::uint8_t> out(len);
        sys->accessor().access(c, skb, 0, len, out.data());
        ASSERT_EQ(out, wire) << "packet " << pkt;
        sys->accessor().freeSkb(c, skb);
    }
    EXPECT_EQ(sys->heap.liveObjects(), 0u);
}

TEST_P(E2E, InterleavedRxTxFlows)
{
    auto c = cpu();
    std::vector<SkBuff> tx;
    std::vector<RxBuffer> rx;
    for (int i = 0; i < 8; ++i) {
        tx.push_back(stack->txBuild(c, 32 * 1024, 1.0));
        rx.push_back(stack->driver.allocRxBuffer(c, 16384));
    }
    for (auto &buf : rx)
        ASSERT_TRUE(nic->dmaTouch(c.time, buf.seg.dmaAddr, 16384,
                                  true).ok);
    for (auto &skb : tx)
        for (const SkbSegment &seg : skb.segs)
            ASSERT_TRUE(seg.dmaMapped &&
                        nic->dmaTouch(c.time, seg.dmaAddr, seg.dmaLen,
                                      false).ok);
    for (auto &skb : tx)
        stack->txComplete(c, skb, 1.0);
    for (auto &buf : rx) {
        SkBuff skb = stack->driver.rxBuild(c, buf, 16384);
        stack->appRead(c, skb, 1.0);
    }
    EXPECT_EQ(nic->faultedDmas(), 0u);
}

TEST_P(E2E, SoakTrafficKeepsMemoryBounded)
{
    // Sustained traffic must not leak pages: the allocated-frame count
    // at the end is close to where it started.
    work::NetperfOpts o;
    o.sysParams.scheme = GetParam();
    o.mode = work::NetMode::Bidi;
    o.instances = 4;
    o.coreLimit = 4;
    o.segBytes = 16 * 1024;
    o.runWindow.warmupNs = 2 * sim::kNsPerMs;
    o.runWindow.measureNs = 40 * sim::kNsPerMs;
    const auto run = work::runNetperf(o);
    EXPECT_GT(run.res.totalGbps, 1.0);
    // Bound: posted buffers + DAMN/shadow pools + slack, well under
    // the gigabytes of traffic moved.
    EXPECT_LT(run.sys->pageAlloc.allocatedFrames() * mem::kPageSize,
              256ull << 20);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, E2E,
    ::testing::Values(dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
                      dma::SchemeKind::Deferred, dma::SchemeKind::Shadow,
                      dma::SchemeKind::Damn),
    schemeName);

// ---------------------------------------------------------------------
// Security end-to-end sequences
// ---------------------------------------------------------------------

TEST(SecurityE2E, FirewallDecisionStandsUnderDamn)
{
    // Full TOCTTOU storyline against the real stack: firewall approves
    // a packet; the device rewrites it; the approved bytes are what
    // the application receives.
    SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    System sys(p);
    NicDevice nic(sys, "mlx5_0");
    TcpStack stack(sys, nic);
    sim::CpuCursor c(sys.ctx.machine.core(0), 0);

    bool approved = false;
    stack.addHook([&](sim::CpuCursor &cpu, SkBuff &skb,
                      SkbAccessor &acc) {
        std::uint8_t hdr[64];
        acc.access(cpu, skb, 0, 64, hdr);
        approved = hdr[0] == 0x10; // "allow" rule
    });

    RxBuffer buf = stack.driver.allocRxBuffer(c, 4096);
    std::vector<std::uint8_t> wire(4096, 0x10);
    nic.dmaWrite(0, buf.seg.dmaAddr, wire.data(), wire.size());
    const iommu::Iova dma = buf.seg.dmaAddr;
    SkBuff skb = stack.driver.rxBuild(c, buf, 4096);
    stack.rxSegment(c, skb, 1.0);
    EXPECT_TRUE(approved);

    // Attacker rewrites the packet to a "deny"-worthy payload.
    std::vector<std::uint8_t> evil(4096, 0xE0);
    nic.dmaWrite(sys.ctx.now(), dma, evil.data(), evil.size());

    std::uint8_t delivered[64];
    sys.accessor().access(c, skb, 0, 64, delivered);
    EXPECT_EQ(delivered[0], 0x10) << "the OS must use checked bytes";
    sys.accessor().freeSkb(c, skb);
}

TEST(SecurityE2E, DamnChunksNeverHoldKernelData)
{
    // Sweep every frame DAMN ever mapped and verify it belongs to a
    // DAMN compound (never a slab page or other kernel data) — the
    // paper's TX security argument as a machine-checked invariant.
    SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    System sys(p);
    NicDevice nic(sys, "mlx5_0");
    TcpStack stack(sys, nic);
    sim::CpuCursor c(sys.ctx.machine.core(0), 0);

    // Generate mixed kernel + DAMN activity.
    for (int i = 0; i < 40; ++i) {
        const mem::Pa k = sys.heap.kmalloc(512);
        SkBuff skb = stack.txBuild(c, 32 * 1024, 1.0);
        stack.txComplete(c, skb, 1.0);
        sys.heap.kfree(k);
    }

    const auto &pt = sys.mmu.pageTable(nic.domain());
    std::uint64_t checked = 0;
    for (mem::Pfn pfn = 0; pfn < sys.phys.numFrames(); ++pfn) {
        const mem::Page &pg = sys.phys.page(pfn);
        if (!(pg.test(mem::PG_head) || pg.test(mem::PG_tail)))
            continue;
        const mem::Pfn head =
            pg.test(mem::PG_head) ? pfn : pg.compoundHead;
        if (!sys.phys.page(head + 2).test(mem::PG_damn))
            continue;
        EXPECT_FALSE(pg.test(mem::PG_slab));
        ++checked;
    }
    EXPECT_GT(checked, 0u);
    (void)pt;
}

TEST(SecurityE2E, ShrinkerClosesDeviceAccessBeforePageReuse)
{
    // After the shrinker returns chunks to the OS and the kernel
    // reuses a page for a secret, the device must not reach it through
    // any path (PTEs gone + IOTLB flushed).
    SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    System sys(p);
    NicDevice nic(sys, "mlx5_0");
    sim::CpuCursor c(sys.ctx.machine.core(0), 0);

    const mem::Pa buf =
        sys.damn->damnAlloc(c, &nic, core::Rights::Write, 65536);
    const iommu::Iova iova = sys.damn->iovaOf(buf);
    std::uint8_t tmp[8] = {};
    EXPECT_TRUE(nic.dmaWrite(0, iova, tmp, 8).ok); // warm the IOTLB
    sys.damn->damnFree(c, buf);
    sys.damn->shrink(c);

    // OS reuses the frames for "secret" kernel data.
    sys.phys.fill(buf, 0xAB, 65536);
    std::uint8_t loot[64] = {};
    const dma::DmaOutcome steal =
        nic.dmaRead(sys.ctx.now(), iova, loot, sizeof(loot));
    EXPECT_TRUE(steal.fault);
}

// ---------------------------------------------------------------------
// Property sweeps
// ---------------------------------------------------------------------

TEST(Properties, DamnIovaUniquenessUnderChurn)
{
    // Every live buffer's IOVA is unique and translates to its own PA,
    // across sizes, cores, contexts, rights and recycling.
    SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    System sys(p);
    NicDevice nic(sys, "mlx5_0");
    sim::Rng rng(5);

    std::map<iommu::Iova, mem::Pa> live;
    std::vector<std::pair<mem::Pa, sim::CoreId>> bufs;
    for (int step = 0; step < 2000; ++step) {
        const auto core = sim::CoreId(rng.below(28));
        sim::CpuCursor c(sys.ctx.machine.core(core), sys.ctx.now());
        if (bufs.empty() || rng.chance(0.6)) {
            const auto sz = std::uint32_t(rng.between(8, 65536));
            const auto rights =
                rng.chance(0.5) ? core::Rights::Write
                                : core::Rights::Read;
            const mem::Pa pa = sys.damn->damnAlloc(c, &nic, rights, sz);
            ASSERT_NE(pa, 0u);
            const iommu::Iova iova = sys.damn->iovaOf(pa);
            // Distinct from every other live buffer's IOVA.
            ASSERT_EQ(live.count(iova), 0u) << "step " << step;
            live[iova] = pa;
            bufs.emplace_back(pa, core);
        } else {
            const auto idx = rng.below(bufs.size());
            auto [pa, owner] = bufs[idx];
            bufs.erase(bufs.begin() + long(idx));
            live.erase(sys.damn->iovaOf(pa));
            sim::CpuCursor fc(sys.ctx.machine.core(owner),
                              sys.ctx.now());
            sys.damn->damnFree(fc, pa);
        }
    }
    // All remaining translations are exact.
    for (const auto &[iova, pa] : live) {
        const auto tr = sys.mmu.translate(nic.domain(), iova, false);
        const auto tw = sys.mmu.translate(nic.domain(), iova, true);
        EXPECT_TRUE(tr.ok || tw.ok);
        EXPECT_EQ(tr.ok ? tr.pa : tw.pa, pa);
    }
}

TEST(Properties, RefcountNeverLeaksAcrossPatterns)
{
    // Alternating alloc/free patterns across two contexts and cores;
    // at quiescence every chunk's refcount must be 0 or the bump bias.
    SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    System sys(p);
    NicDevice nic(sys, "mlx5_0");
    sim::Rng rng(17);
    std::vector<std::tuple<mem::Pa, sim::CoreId, core::AllocCtx>> live;

    for (int step = 0; step < 3000; ++step) {
        const auto core = sim::CoreId(rng.below(4));
        const auto actx = rng.chance(0.5) ? core::AllocCtx::Standard
                                          : core::AllocCtx::Interrupt;
        sim::CpuCursor c(sys.ctx.machine.core(core), sys.ctx.now());
        if (live.size() < 64 && rng.chance(0.55)) {
            const mem::Pa pa = sys.damn->damnAlloc(
                c, &nic, core::Rights::Write,
                std::uint32_t(rng.between(64, 16384)), actx);
            live.emplace_back(pa, core, actx);
        } else if (!live.empty()) {
            const auto idx = rng.below(live.size());
            auto [pa, owner, octx] = live[idx];
            live.erase(live.begin() + long(idx));
            sim::CpuCursor fc(sys.ctx.machine.core(owner),
                              sys.ctx.now());
            sys.damn->damnFree(fc, pa, octx);
        }
    }
    for (auto &[pa, owner, octx] : live) {
        sim::CpuCursor fc(sys.ctx.machine.core(owner), sys.ctx.now());
        sys.damn->damnFree(fc, pa, octx);
    }
    // Quiescent: every DAMN head page holds only the bump bias (1) or
    // is fully free (0).
    for (mem::Pfn pfn = 0; pfn < sys.phys.numFrames(); ++pfn) {
        const mem::Page &pg = sys.phys.page(pfn);
        if (pg.test(mem::PG_head) &&
            sys.phys.page(pfn + 2).test(mem::PG_damn)) {
            EXPECT_LE(pg.refcount, 1) << "pfn " << pfn;
        }
    }
}

TEST(Properties, SchemesAgreeOnDeliveredBytes)
{
    // Functional equivalence: for identical wire input, every scheme
    // delivers identical bytes to the application.
    std::vector<std::vector<std::uint8_t>> delivered;
    for (const auto k :
         {dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
          dma::SchemeKind::Deferred, dma::SchemeKind::Shadow,
          dma::SchemeKind::Damn}) {
        SystemParams p;
        p.scheme = k;
        System sys(p);
        NicDevice nic(sys, "mlx5_0");
        TcpStack stack(sys, nic);
        sim::CpuCursor c(sys.ctx.machine.core(0), 0);

        sim::Rng rng(1234);
        std::vector<std::uint8_t> wire(8192);
        for (auto &b : wire)
            b = std::uint8_t(rng.next());

        RxBuffer buf = stack.driver.allocRxBuffer(c, 8192);
        nic.dmaWrite(0, buf.seg.dmaAddr, wire.data(), wire.size());
        SkBuff skb = stack.driver.rxBuild(c, buf, 8192);
        stack.rxSegment(c, skb, 1.0);
        std::vector<std::uint8_t> out(8192);
        sys.accessor().access(c, skb, 0, 8192, out.data());
        sys.accessor().freeSkb(c, skb);
        delivered.push_back(std::move(out));
    }
    for (std::size_t i = 1; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], delivered[0]);
}
