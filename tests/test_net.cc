/**
 * @file
 * Unit tests for the networking substrate: skbuffs, the accessor API
 * and TOCTTOU guard, the driver, the TCP-lite stack, and the NIC
 * model.
 */

#include <gtest/gtest.h>

#include "net/stream.hh"

using namespace damn;
using namespace damn::net;

namespace {

struct NetFixture : ::testing::TestWithParam<dma::SchemeKind>
{
    NetFixture()
    {
        SystemParams p;
        p.scheme = GetParam();
        sys = std::make_unique<System>(p);
        nic = std::make_unique<NicDevice>(*sys, "mlx5_0");
        stack = std::make_unique<TcpStack>(*sys, *nic);
    }

    sim::CpuCursor
    cpu(sim::CoreId core = 0)
    {
        return sim::CpuCursor(sys->ctx.machine.core(core),
                              sys->ctx.now());
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

// ---------------------------------------------------------------------
// SkBuff basics
// ---------------------------------------------------------------------

TEST(SkBuff, LenSumsSegments)
{
    SkBuff skb;
    skb.append({0x1000, 100, SegOwner::Borrowed, 0, false, 0, 0, false,
                dma::Dir::FromDevice});
    skb.append({0x2000, 200, SegOwner::Borrowed, 0, false, 0, 0, false,
                dma::Dir::FromDevice});
    EXPECT_EQ(skb.len(), 300u);
}

// ---------------------------------------------------------------------
// Driver + stack across all schemes
// ---------------------------------------------------------------------

TEST_P(NetFixture, RxBufferAllocatedAndMapped)
{
    auto c = cpu();
    RxBuffer buf = stack->driver.allocRxBuffer(c, 16384);
    EXPECT_TRUE(buf.seg.dmaMapped);
    EXPECT_EQ(buf.seg.len, 16384u);
    if (sys->damnMode()) {
        EXPECT_EQ(buf.seg.owner, SegOwner::Damn);
        EXPECT_TRUE(core::isDamnIova(buf.seg.dmaAddr));
    } else {
        EXPECT_EQ(buf.seg.owner, SegOwner::Pages);
    }
    // The device can DMA into the posted buffer under every scheme.
    EXPECT_TRUE(
        nic->dmaTouch(c.time, buf.seg.dmaAddr, 16384, true).ok);
    SkBuff skb = stack->driver.rxBuild(c, buf, 16384);
    sys->accessor().freeSkb(c, skb);
}

TEST_P(NetFixture, RxEndToEndDataIntegrity)
{
    auto c = cpu();
    RxBuffer buf = stack->driver.allocRxBuffer(c, 8192);
    std::vector<std::uint8_t> wire(8192);
    for (std::size_t i = 0; i < wire.size(); ++i)
        wire[i] = std::uint8_t(i * 13 + 1);
    ASSERT_TRUE(
        nic->dmaWrite(c.time, buf.seg.dmaAddr, wire.data(), 8192).ok);

    SkBuff skb = stack->driver.rxBuild(c, buf, 8192);
    stack->rxSegment(c, skb, 1.0);

    // What the application reads must be exactly what was on the wire,
    // under every protection scheme.
    std::vector<std::uint8_t> out(8192);
    sys->accessor().access(c, skb, 0, 8192, out.data());
    EXPECT_EQ(out, wire);
    sys->accessor().freeSkb(c, skb);
}

TEST_P(NetFixture, TxSkbLayout)
{
    auto c = cpu();
    SkBuff skb = stack->txBuild(c, 64 * 1024, 1.0);
    // head + 4 x 16 KiB frags.
    ASSERT_EQ(skb.segs.size(), 5u);
    EXPECT_EQ(skb.segs[0].len, TcpStack::kTxHeadBytes);
    for (int i = 1; i <= 4; ++i)
        EXPECT_EQ(skb.segs[i].len, TcpStack::kTxFragBytes);
    for (const auto &seg : skb.segs) {
        EXPECT_TRUE(seg.dmaMapped);
        EXPECT_EQ(seg.dmaLen, seg.len);
    }
    stack->txComplete(c, skb, 1.0);
}

TEST_P(NetFixture, TxSegmentReadableByDevice)
{
    auto c = cpu();
    SkBuff skb = stack->txBuild(c, 32 * 1024, 1.0);
    for (const SkbSegment &seg : skb.segs) {
        ASSERT_TRUE(seg.dmaMapped);
        EXPECT_TRUE(nic->dmaTouch(c.time, seg.dmaAddr, seg.dmaLen, false).ok);
    }
    stack->txComplete(c, skb, 1.0);
}

TEST_P(NetFixture, TxCompleteReleasesEverything)
{
    auto c = cpu();
    const std::uint64_t heap_before = sys->heap.liveObjects();
    SkBuff skb = stack->txBuild(c, 64 * 1024, 1.0);
    stack->txComplete(c, skb, 1.0);
    EXPECT_TRUE(skb.segs.empty());
    EXPECT_EQ(sys->heap.liveObjects(), heap_before);
}

TEST_P(NetFixture, NetfilterHooksRunInOrder)
{
    auto c = cpu();
    std::vector<int> order;
    stack->addHook([&](sim::CpuCursor &, SkBuff &, SkbAccessor &) {
        order.push_back(1);
    });
    stack->addHook([&](sim::CpuCursor &, SkBuff &, SkbAccessor &) {
        order.push_back(2);
    });
    RxBuffer buf = stack->driver.allocRxBuffer(c, 4096);
    nic->dmaTouch(c.time, buf.seg.dmaAddr, 4096, true);
    SkBuff skb = stack->driver.rxBuild(c, buf, 4096);
    stack->rxSegment(c, skb, 1.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    sys->accessor().freeSkb(c, skb);
    stack->clearHooks();
}

TEST_P(NetFixture, AllocSegThenFreeSkbReturnsToBaseline)
{
    auto c = cpu();
    const bool damn = sys->damnMode();
    for (const SegOwner stock :
         {SegOwner::Kmalloc, SegOwner::Pages, SegOwner::PageFrag}) {
        for (dma::Device *dev : {static_cast<dma::Device *>(nic.get()),
                                 static_cast<dma::Device *>(nullptr)}) {
            // One warm-up round fills slab, frag and DAMN caches so the
            // counters below move only by what the skb owns.
            for (int round = 0; round < 2; ++round) {
                const std::uint64_t objects = sys->heap.liveObjects();
                const std::uint64_t frames =
                    sys->pageAlloc.allocatedFrames();
                const std::uint64_t owned =
                    damn ? sys->damn->ownedBytes() : 0;
                SkBuff skb;
                skb.dev = nic.get();
                // kmalloc serves at most 4 KiB.
                std::vector<std::uint32_t> sizes = {100, 4096};
                if (stock != SegOwner::Kmalloc)
                    sizes.push_back(9000);
                for (const std::uint32_t bytes : sizes) {
                    const SkbSegment seg = sys->accessor().allocSeg(
                        c, dev, stock, core::Rights::Write, bytes);
                    ASSERT_NE(seg.pa, 0u);
                    EXPECT_EQ(seg.len, bytes);
                    const SegOwner want =
                        damn && dev != nullptr ? SegOwner::Damn : stock;
                    EXPECT_EQ(seg.owner, want);
                    EXPECT_EQ(seg.pageOrder,
                              want == SegOwner::Pages && bytes == 9000u
                                  ? 2u
                                  : 0u);
                    skb.append(seg);
                }
                sys->accessor().freeSkb(c, skb);
                if (round > 0) {
                    EXPECT_EQ(sys->heap.liveObjects(), objects);
                    EXPECT_EQ(sys->pageAlloc.allocatedFrames(), frames);
                    EXPECT_EQ(damn ? sys->damn->ownedBytes() : 0, owned);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, NetFixture,
    ::testing::Values(dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
                      dma::SchemeKind::Deferred, dma::SchemeKind::Shadow,
                      dma::SchemeKind::Damn),
    schemeName);

// A failed allocation runs exactly one forced reclaim, then gives up
// with a segment freeSkb ignores.
class AllocSegExhausted : public ::testing::TestWithParam<dma::SchemeKind>
{};

TEST_P(AllocSegExhausted, FailsAfterOneReclaimWithBorrowedSegment)
{
    SystemParams p;
    p.scheme = GetParam();
    p.sockets = 1;
    p.coresPerSocket = 2;
    p.physBytes = 16 << 20;
    System sys(p);
    NicDevice nic(sys, "mlx5_0");
    sim::CpuCursor c(sys.ctx.machine.core(0), 0);
    for (unsigned order = mem::PageAllocator::kMaxOrder + 1; order-- > 0;)
        while (sys.pageAlloc.allocPages(order, 0) != mem::kInvalidPfn) {
        }

    for (const SegOwner stock :
         {SegOwner::Kmalloc, SegOwner::Pages, SegOwner::PageFrag}) {
        const std::uint64_t reclaims =
            sys.ctx.stats.get(sim::Ctr::PressureReclaims);
        const std::uint64_t objects = sys.heap.liveObjects();
        SkBuff skb;
        skb.dev = &nic;
        skb.append(sys.accessor().allocSeg(c, &nic, stock,
                                           core::Rights::Read, 2000));
        EXPECT_EQ(sys.ctx.stats.get(sim::Ctr::PressureReclaims), reclaims + 1);
        EXPECT_EQ(skb.segs[0].pa, 0u);
        EXPECT_EQ(skb.segs[0].owner, SegOwner::Borrowed);
        sys.accessor().freeSkb(c, skb);
        EXPECT_EQ(sys.heap.liveObjects(), objects);
    }
}

INSTANTIATE_TEST_SUITE_P(DamnAndStock, AllocSegExhausted,
                         ::testing::Values(dma::SchemeKind::Strict,
                                           dma::SchemeKind::Damn),
                         schemeName);

// ---------------------------------------------------------------------
// TOCTTOU guard specifics (DAMN system)
// ---------------------------------------------------------------------

namespace {

struct GuardFixture : ::testing::Test
{
    GuardFixture()
    {
        SystemParams p;
        p.scheme = dma::SchemeKind::Damn;
        sys = std::make_unique<System>(p);
        nic = std::make_unique<NicDevice>(*sys, "mlx5_0");
        stack = std::make_unique<TcpStack>(*sys, *nic);
    }

    sim::CpuCursor
    cpu()
    {
        return sim::CpuCursor(sys->ctx.machine.core(0), sys->ctx.now());
    }

    /** A received skb backed by device-writable DAMN memory. */
    SkBuff
    rxSkb(sim::CpuCursor &c, std::uint32_t len, std::uint8_t fill)
    {
        RxBuffer buf = stack->driver.allocRxBuffer(c, len);
        std::vector<std::uint8_t> wire(len, fill);
        nic->dmaWrite(c.time, buf.seg.dmaAddr, wire.data(), len);
        return stack->driver.rxBuild(c, buf, len);
    }

    std::unique_ptr<System> sys;
    std::unique_ptr<NicDevice> nic;
    std::unique_ptr<TcpStack> stack;
};

} // namespace

TEST_F(GuardFixture, FirstAccessCopiesRange)
{
    auto c = cpu();
    SkBuff skb = rxSkb(c, 4096, 0x11);
    EXPECT_EQ(sys->accessor().secureRange(c, skb, 0, 128), 128u);
    EXPECT_EQ(sys->accessor().securedBytes(), 128u);
    sys->accessor().freeSkb(c, skb);
}

TEST_F(GuardFixture, SecondAccessIsFree)
{
    auto c = cpu();
    SkBuff skb = rxSkb(c, 4096, 0x11);
    sys->accessor().secureRange(c, skb, 0, 128);
    EXPECT_EQ(sys->accessor().secureRange(c, skb, 0, 128), 0u)
        << "already-secured bytes must not be copied again";
    EXPECT_EQ(sys->accessor().secureRange(c, skb, 64, 64), 0u);
    sys->accessor().freeSkb(c, skb);
}

TEST_F(GuardFixture, SecuredBytesImmuneToDeviceWrites)
{
    auto c = cpu();
    SkBuff skb = rxSkb(c, 2048, 0x33);
    const iommu::Iova dma = sys->damn->iovaOf(skb.segs[0].pa);

    std::vector<std::uint8_t> before(256);
    sys->accessor().access(c, skb, 0, 256, before.data());

    // Device rewrites the whole buffer (it is permanently writable).
    std::vector<std::uint8_t> forged(2048, 0xEE);
    ASSERT_TRUE(nic->dmaWrite(c.time, dma, forged.data(), 2048).ok);

    std::vector<std::uint8_t> after(256);
    sys->accessor().access(c, skb, 0, 256, after.data());
    EXPECT_EQ(after, before) << "OS view changed under its feet";

    // Unaccessed bytes *do* change — that is fine (indistinguishable
    // from a valid DMA while mapped).
    std::vector<std::uint8_t> tail(16);
    sys->accessor().access(c, skb, 1024, 16, tail.data());
    EXPECT_EQ(tail[0], 0xEE);
    sys->accessor().freeSkb(c, skb);
}

TEST_F(GuardFixture, MiddleRangeSplitsSegment)
{
    auto c = cpu();
    SkBuff skb = rxSkb(c, 4096, 0x44);
    sys->accessor().secureRange(c, skb, 1000, 500);
    // Content must read back seamlessly across the splits.
    std::vector<std::uint8_t> out(4096);
    sys->accessor().access(c, skb, 0, 4096, out.data());
    for (const std::uint8_t b : out)
        ASSERT_EQ(b, 0x44);
    EXPECT_EQ(skb.len(), 4096u);
    sys->accessor().freeSkb(c, skb);
}

TEST_F(GuardFixture, OverlappingRangesCopyOnlyFreshBytes)
{
    auto c = cpu();
    SkBuff skb = rxSkb(c, 4096, 0x55);
    EXPECT_EQ(sys->accessor().secureRange(c, skb, 0, 200), 200u);
    // [100, 400): only [200, 400) is new.
    EXPECT_EQ(sys->accessor().secureRange(c, skb, 100, 300), 200u);
    sys->accessor().freeSkb(c, skb);
}

TEST_F(GuardFixture, LargeRangeUsesPageBuffer)
{
    auto c = cpu();
    SkBuff skb = rxSkb(c, 32768, 0x66);
    EXPECT_EQ(sys->accessor().secureRange(c, skb, 0, 32768), 32768u);
    std::vector<std::uint8_t> out(32768);
    sys->accessor().access(c, skb, 0, 32768, out.data());
    for (const std::uint8_t b : out)
        ASSERT_EQ(b, 0x66);
    sys->accessor().freeSkb(c, skb);
}

TEST_F(GuardFixture, TxBuffersAreNotSecured)
{
    // Device-readable (TX) memory cannot be modified by the device;
    // the guard must not copy it.
    auto c = cpu();
    SkBuff skb = stack->txBuild(c, 16384, 1.0);
    const std::uint64_t before = sys->accessor().securedBytes();
    sys->accessor().access(c, skb, 0, 1024);
    EXPECT_EQ(sys->accessor().securedBytes(), before);
    stack->txComplete(c, skb, 1.0);
}

TEST_F(GuardFixture, HeaderSecuredDuringRxProcessing)
{
    auto c = cpu();
    SkBuff skb = rxSkb(c, 16384, 0x77);
    stack->rxSegment(c, skb, 1.0);
    // Only the header-sized prefix was copied.
    EXPECT_EQ(sys->accessor().securedBytes(), skb.headerLen);
    sys->accessor().freeSkb(c, skb);
}

TEST_F(GuardFixture, FreeSkbReleasesBackingChunkOnce)
{
    auto c = cpu();
    const std::uint64_t owned = sys->damn->ownedBytes();
    for (int round = 0; round < 50; ++round) {
        SkBuff skb = rxSkb(c, 4096, 0x12);
        sys->accessor().secureRange(c, skb, 100, 1000);
        sys->accessor().freeSkb(c, skb);
    }
    // No chunk leak: owned memory is bounded by the cache prefill.
    EXPECT_LE(sys->damn->ownedBytes(), owned + 17 * 65536);
    EXPECT_EQ(sys->heap.liveObjects(), 0u);
}

// ---------------------------------------------------------------------
// SkBuff segment list: splits, spills, moves
// ---------------------------------------------------------------------

namespace {

void
expectSameSegs(const SkBuff &a, const SkBuff &b)
{
    ASSERT_EQ(a.segs.size(), b.segs.size());
    for (std::size_t i = 0; i < a.segs.size(); ++i) {
        SCOPED_TRACE(i);
        const SkbSegment &x = a.segs[i];
        const SkbSegment &y = b.segs[i];
        EXPECT_EQ(x.pa, y.pa);
        EXPECT_EQ(x.len, y.len);
        EXPECT_EQ(x.owner, y.owner);
        EXPECT_EQ(x.pageOrder, y.pageOrder);
        EXPECT_EQ(x.secured, y.secured);
        EXPECT_EQ(x.dmaAddr, y.dmaAddr);
        EXPECT_EQ(x.dmaLen, y.dmaLen);
        EXPECT_EQ(x.dmaMapped, y.dmaMapped);
        EXPECT_EQ(x.dmaDir, y.dmaDir);
    }
}

/** A second skb holding @p src's segments (SkBuff is move-only). */
SkBuff
segCopy(const SkBuff &src)
{
    SkBuff out;
    for (const SkbSegment &seg : src.segs)
        out.segs.push_back(seg);
    return out;
}

std::uint8_t
wireByte(std::uint32_t off)
{
    return std::uint8_t(off * 7 + 3);
}

struct SegListFixture : GuardFixture
{
    static constexpr std::uint32_t kSegBytes = 8192;

    /** A received skb of @p n DAMN segments, byte o reading
     *  wireByte(o). */
    SkBuff
    rxSkbOf(sim::CpuCursor &c, unsigned n)
    {
        SkBuff skb;
        for (unsigned i = 0; i < n; ++i) {
            RxBuffer buf = stack->driver.allocRxBuffer(c, kSegBytes);
            std::vector<std::uint8_t> wire(kSegBytes);
            for (std::uint32_t b = 0; b < kSegBytes; ++b)
                wire[b] = wireByte(i * kSegBytes + b);
            nic->dmaWrite(c.time, buf.seg.dmaAddr, wire.data(),
                          kSegBytes);
            skb.append(stack->driver.rxBuild(c, buf, kSegBytes).segs[0]);
        }
        return skb;
    }

    /**
     * Secure [lo, hi) of each of @p n segments, then check the layout
     * (@p pieces per segment), the bytes, and that freeSkb returns the
     * kmalloc heap and the page allocator to their baselines.
     */
    void
    splitEach(unsigned n, std::uint32_t lo, std::uint32_t hi,
              std::size_t pieces)
    {
        auto c = cpu();
        // One warm-up round fills slab and DAMN caches so the counters
        // below move only by what this skb owns.
        for (int round = 0; round < 2; ++round) {
            const std::uint64_t objects = sys->heap.liveObjects();
            const std::uint64_t frames = sys->pageAlloc.allocatedFrames();
            SkBuff skb = rxSkbOf(c, n);
            for (unsigned i = 0; i < n; ++i)
                EXPECT_EQ(sys->accessor().secureRange(
                              c, skb, i * kSegBytes + lo, hi - lo),
                          hi - lo);
            ASSERT_EQ(skb.segs.size(), n * pieces);
            EXPECT_EQ(skb.len(), n * kSegBytes);
            for (unsigned i = 0; i < n; ++i) {
                const SkbSegment *seg = &skb.segs[i * pieces];
                if (lo > 0) {
                    EXPECT_EQ(seg->len, lo);
                    EXPECT_EQ(seg->owner, SegOwner::Borrowed);
                    ++seg;
                }
                EXPECT_EQ(seg->len, hi - lo);
                EXPECT_TRUE(seg->secured);
                EXPECT_EQ(seg->owner, hi - lo > 4096 ? SegOwner::Pages
                                                     : SegOwner::Kmalloc);
                ++seg;
                if (hi < kSegBytes) {
                    EXPECT_EQ(seg->len, kSegBytes - hi);
                    EXPECT_EQ(seg->owner, SegOwner::Borrowed);
                    EXPECT_FALSE(seg->secured);
                    ++seg;
                }
                EXPECT_EQ(seg->len, 0u); // the owner of the DAMN buffer
                EXPECT_EQ(seg->owner, SegOwner::Damn);
            }
            std::vector<std::uint8_t> out(n * kSegBytes);
            sys->accessor().access(c, skb, 0, n * kSegBytes, out.data());
            for (std::uint32_t o = 0; o < out.size(); ++o)
                ASSERT_EQ(out[o], wireByte(o)) << o;
            sys->accessor().freeSkb(c, skb);
            EXPECT_TRUE(skb.segs.empty());
            if (round > 0) {
                EXPECT_EQ(sys->heap.liveObjects(), objects);
                EXPECT_EQ(sys->pageAlloc.allocatedFrames(), frames);
            }
        }
    }
};

} // namespace

// One segment stays inline (at most 4 pieces); five segments spill.
TEST_F(SegListFixture, SplitAtLoInlineAndSpilled)
{
    splitEach(1, 1000, kSegBytes, 3); // pre | sec | owner
    splitEach(5, 1000, kSegBytes, 3);
}

TEST_F(SegListFixture, SplitAtHiInlineAndSpilled)
{
    splitEach(1, 0, 500, 3); // sec | post | owner
    splitEach(5, 0, 500, 3);
}

TEST_F(SegListFixture, SplitAtBothInlineAndSpilled)
{
    splitEach(1, 1000, 1500, 4); // pre | sec | post | owner
    splitEach(5, 1000, 1500, 4);
}

TEST_F(SegListFixture, CopyAndMovePreserveSegments)
{
    auto c = cpu();
    SkBuff small = rxSkbOf(c, 1);
    sys->accessor().secureRange(c, small, 100, 200);
    SkBuff big = rxSkbOf(c, 5);
    for (unsigned i = 0; i < 5; ++i)
        sys->accessor().secureRange(c, big, i * kSegBytes + 100, 200);
    ASSERT_EQ(small.segs.size(), 4u);
    ASSERT_EQ(big.segs.size(), 20u);

    for (const SkBuff *src : {&small, &big}) {
        SkBuff copy = segCopy(*src);
        SkBuff moved(std::move(copy));
        expectSameSegs(moved, *src);
        SkBuff moveAssigned;
        moveAssigned = std::move(moved);
        expectSameSegs(moveAssigned, *src);
    }
    // Move-assignment across the inline/spilled boundary, both ways.
    SkBuff x = segCopy(big);
    x = segCopy(small);
    expectSameSegs(x, small);
    x = segCopy(big);
    expectSameSegs(x, big);

    sys->accessor().freeSkb(c, small);
    sys->accessor().freeSkb(c, big);
    EXPECT_EQ(sys->heap.liveObjects(), 0u);
}

// ---------------------------------------------------------------------
// NIC model
// ---------------------------------------------------------------------

TEST(NicModel, WireBytesAddsFrameOverhead)
{
    SystemParams p;
    System sys(p);
    NicDevice nic(sys, "mlx5_0");
    const auto &c = sys.ctx.cost;
    // 64 KiB at 9000 MTU = 8 frames.
    EXPECT_EQ(nic.wireBytes(65536),
              65536 + 8 * c.perFrameOverheadBytes);
    EXPECT_EQ(nic.wireBytes(1000), 1000 + c.perFrameOverheadBytes);
}

TEST(NicModel, LineRatePacing)
{
    SystemParams p;
    System sys(p);
    sys.ctx.functionalData = false;
    NicDevice nic(sys, "mlx5_0");
    TcpStack stack(sys, nic);
    auto cpu = sim::CpuCursor(sys.ctx.machine.core(0), 0);
    RxBuffer buf = stack.driver.allocRxBuffer(cpu, 65536);

    // Streaming 100 segments through one port cannot beat line rate.
    sim::TimeNs done = 0;
    for (int i = 0; i < 100; ++i) {
        done = nic.transferSegment(0, 0, Traffic::Rx, buf.seg.dmaAddr,
                                   65536).completes;
    }
    const double gbps = 100.0 * 65536 * 8 / double(done);
    EXPECT_LE(gbps, sys.ctx.cost.nicPortGbps);
    EXPECT_GT(gbps, sys.ctx.cost.nicPortGbps * 0.8);
}

TEST(NicModel, PcieSharedAcrossPorts)
{
    SystemParams p;
    System sys(p);
    sys.ctx.functionalData = false;
    NicDevice nic(sys, "mlx5_0");
    TcpStack stack(sys, nic);
    auto cpu = sim::CpuCursor(sys.ctx.machine.core(0), 0);
    RxBuffer buf = stack.driver.allocRxBuffer(cpu, 65536);

    // Both ports together are limited by the PCIe ceiling, not 2x port.
    sim::TimeNs done = 0;
    for (int i = 0; i < 200; ++i) {
        done = nic.transferSegment(0, i % 2, Traffic::Rx,
                                   buf.seg.dmaAddr, 65536).completes;
    }
    const double gbps = 200.0 * 65536 * 8 / double(done);
    EXPECT_LE(gbps, sys.ctx.cost.pcieGbps * 1.02);
}

// ---------------------------------------------------------------------
// StreamEngine closed loop
// ---------------------------------------------------------------------

TEST(StreamEngine, SingleRxFlowReachesLineRate)
{
    SystemParams p;
    System sys(p);
    sys.ctx.functionalData = false;
    NicDevice nic(sys, "mlx5_0");
    TcpStack stack(sys, nic);
    StreamConfig sc;
    sc.warmupNs = 5 * sim::kNsPerMs;
    sc.measureNs = 20 * sim::kNsPerMs;
    StreamEngine eng(sys, nic, stack, sc);
    FlowSpec f;
    f.kind = Traffic::Rx;
    f.core = 0;
    f.segBytes = 65536;
    eng.addFlow(f);
    const StreamResult r = eng.run();
    EXPECT_GT(r.rxGbps, 50.0);
    EXPECT_LE(r.rxGbps, 100.0);
    EXPECT_EQ(r.txGbps, 0.0);
}

TEST(StreamEngine, TxFlowIsCpuBound)
{
    SystemParams p;
    System sys(p);
    sys.ctx.functionalData = false;
    NicDevice nic(sys, "mlx5_0");
    TcpStack stack(sys, nic);
    StreamConfig sc;
    sc.warmupNs = 5 * sim::kNsPerMs;
    sc.measureNs = 20 * sim::kNsPerMs;
    StreamEngine eng(sys, nic, stack, sc);
    FlowSpec f;
    f.kind = Traffic::Tx;
    f.core = 3;
    f.segBytes = 16384;
    eng.addFlow(f);
    const StreamResult r = eng.run();
    EXPECT_GT(r.txGbps, 5.0);
    // The flow's core is saturated; others are idle.
    EXPECT_NEAR(sys.ctx.machine.coreUtilizationPct(3, sc.measureNs),
                100.0, 2.0);
    EXPECT_LT(sys.ctx.machine.coreUtilizationPct(0, sc.measureNs), 1.0);
}

TEST(StreamEngine, PerFlowResultsSumToTotal)
{
    SystemParams p;
    System sys(p);
    sys.ctx.functionalData = false;
    NicDevice nic(sys, "mlx5_0");
    TcpStack stack(sys, nic);
    StreamConfig sc;
    sc.warmupNs = 2 * sim::kNsPerMs;
    sc.measureNs = 10 * sim::kNsPerMs;
    StreamEngine eng(sys, nic, stack, sc);
    for (unsigned i = 0; i < 4; ++i) {
        FlowSpec f;
        f.kind = i % 2 ? Traffic::Tx : Traffic::Rx;
        f.core = i;
        f.port = i % 2;
        f.segBytes = 16384;
        eng.addFlow(f);
    }
    const StreamResult r = eng.run();
    double sum = 0;
    for (const auto &fr : r.flows)
        sum += fr.gbps;
    EXPECT_NEAR(sum, r.totalGbps, 1e-6);
    EXPECT_NEAR(r.rxGbps + r.txGbps, r.totalGbps, 1e-6);
}
