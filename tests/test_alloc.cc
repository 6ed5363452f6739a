/**
 * @file
 * Heap-allocation regression tests for the steady-state packet and
 * map paths.
 *
 * This binary replaces the global operator new/delete with forwards to
 * malloc/free that count every allocation.  Each test builds a machine,
 * runs it past warmup (where rings fill, free lists and caches reach
 * their working size and every growth-only container has grown), and
 * then requires that a further stretch of simulated traffic made no
 * heap allocation at all: each RX or TX segment, each map and unmap,
 * and each event it schedules must run on storage that already exists.
 * DESIGN.md ("The allocation-free steady state") lists what may still
 * allocate, and when.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "iommu/backend_smmu.hh"
#include "iommu/iommu.hh"
#include "net/stream.hh"
#include "workloads/memcached.hh"
#include "workloads/netperf.hh"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = std::size_t(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a + (n ? 0 : a)))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return operator new(n, std::nothrow);
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace damn;

namespace {

constexpr sim::TimeNs kWarmupNs = 2 * sim::kNsPerMs;
constexpr sim::TimeNs kMeasureNs = 2 * sim::kNsPerMs;

/**
 * Growth-only allocations allowed in the first window after warmup.
 * Shadow's pool grows one 128 KiB block at a time until it covers the
 * buffers in flight, and a new block's permanent mapping can add I/O
 * page-table nodes.  The bidirectional run (56 flows, each mapping an
 * RX buffer or a TX head and frag per segment) is still growing its
 * pool 2 ms in; the second window must allocate nothing.
 */
constexpr std::uint64_t kShadowPoolGrowthAllocs = 8;

std::string
schemeName(const ::testing::TestParamInfo<dma::SchemeKind> &info)
{
    std::string n = dma::schemeKindName(info.param);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

/** Heap allocations and segments moved in one measure window. */
struct Window
{
    std::uint64_t allocs = 0;
    std::uint64_t segments = 0;
};

/**
 * Run @p opts' flows through warmup, then two back-to-back windows of
 * kMeasureNs each, counting the heap allocations and the segments
 * moved in each (the segment count tells an idle window from an
 * allocation-free one).
 */
std::array<Window, 2>
steadyStateWindows(const work::NetperfOpts &opts)
{
    work::NetperfRun run = work::makeNetperfSystem(opts);
    net::StreamConfig sc;
    sc.costFactor = opts.costFactor;
    net::StreamEngine eng(*run.sys, *run.nic, *run.stack, sc);
    work::addNetperfFlows(run, eng, opts);
    eng.startAll();

    sim::Engine &engine = run.sys->ctx.engine;
    engine.run(kWarmupNs);
    std::array<Window, 2> w;
    for (std::size_t k = 0; k < w.size(); ++k) {
        const std::uint64_t bytes0 = eng.totalBytes();
        const std::uint64_t allocs0 = gAllocs.load();
        engine.run(kWarmupNs + (k + 1) * kMeasureNs);
        w[k].allocs = gAllocs.load() - allocs0;
        w[k].segments = (eng.totalBytes() - bytes0) / opts.segBytes;
    }
    EXPECT_EQ(eng.totalDrops(), 0u);
    return w;
}

struct AllocFree : ::testing::TestWithParam<dma::SchemeKind>
{};

} // namespace

// The netperf_rx_mtu shape: 28 RX flows of 1500 B segments, one per
// core, on VT-d.
TEST_P(AllocFree, NetperfRxMtu)
{
    work::NetperfOpts o = work::multiCoreOpts(GetParam(), work::NetMode::Rx);
    o.segBytes = 1500;
    for (const Window &w : steadyStateWindows(o)) {
        EXPECT_EQ(w.allocs, 0u);
        EXPECT_GT(w.segments, 1000u);
    }
}

// 28 RX + 28 TX flows of 16 KiB: TX builds, maps and unmaps a
// scatter-gather skb per segment.
TEST_P(AllocFree, Bidirectional)
{
    const work::NetperfOpts o = work::bidirectionalOpts(GetParam());
    const std::array<Window, 2> w = steadyStateWindows(o);
    EXPECT_LE(w[0].allocs, GetParam() == dma::SchemeKind::Shadow
                               ? kShadowPoolGrowthAllocs
                               : 0u);
    EXPECT_EQ(w[1].allocs, 0u);
    for (const Window &win : w)
        EXPECT_GT(win.segments, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AllocFree,
    ::testing::Values(dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
                      dma::SchemeKind::Deferred, dma::SchemeKind::Shadow,
                      dma::SchemeKind::Damn),
    schemeName);

// runMemcached builds, runs and tears down its machine in one call, so
// the steady state is measured as a difference: a run whose window is
// longer by kMeasureNs must not allocate more than the shorter one.
// Setup, warmup and teardown are the same in both and cancel.
TEST(AllocFreeMemcached, LongerWindowAllocatesNothingMore)
{
    work::MemcachedOpts o;
    o.instances = 8;
    o.sysParams.scheme = dma::SchemeKind::Strict;
    o.runWindow = work::RunWindow{4 * sim::kNsPerMs, kMeasureNs};

    const auto allocsOf = [&](sim::TimeNs measure, double *ops) {
        work::MemcachedOpts run = o;
        run.runWindow.measureNs = measure;
        const std::uint64_t before = gAllocs.load();
        const work::MemcachedResult r = work::runMemcached(run);
        const std::uint64_t allocs = gAllocs.load() - before;
        *ops = r.common.opsPerSec * run.runWindow.seconds();
        return allocs;
    };
    double shortOps = 0, longOps = 0;
    const std::uint64_t shortRun = allocsOf(kMeasureNs, &shortOps);
    const std::uint64_t longRun = allocsOf(3 * kMeasureNs, &longOps);
    EXPECT_EQ(longRun, shortRun);
    EXPECT_GT(longOps, shortOps); // the extra window served operations
}

// The OS drains the page-request queue in rounds (runRdma, the
// faultable DMA path, the fuzzer's PRI ops).  Once a round of N
// requests has been posted and fetched, the next round of N must run
// on the queue's and the fetch buffer's existing storage.
struct PriFetch : ::testing::TestWithParam<iommu::BackendKind>
{};

TEST_P(PriFetch, SecondRoundAllocatesNothing)
{
    sim::Context ctx(sim::CostModel{}, 1, 1);
    iommu::Iommu mmu(ctx, /*enabled=*/true, GetParam());
    const iommu::DomainId d = mmu.createDomain();
    iommu::IommuBackend &be = mmu.backend();
    constexpr std::uint32_t kRequests = 16; // under both queue depths
    const auto round = [&] {
        std::uint32_t accepted = 0;
        for (std::uint32_t i = 0; i < kRequests; ++i)
            accepted += be.postPageRequest(
                {d, iommu::Iova(i) * mem::kPageSize, true, i, 0});
        return std::pair{accepted, be.fetchPageRequests().size()};
    };
    const auto first = round();
    EXPECT_EQ(first.first, kRequests);
    EXPECT_EQ(first.second, kRequests);
    const std::uint64_t before = gAllocs.load();
    const auto second = round();
    const std::uint64_t allocs = gAllocs.load() - before;
    EXPECT_EQ(second.first, kRequests);
    EXPECT_EQ(second.second, kRequests);
    EXPECT_EQ(allocs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PriFetch,
    ::testing::Values(iommu::BackendKind::Vtd, iommu::BackendKind::SmmuV3),
    [](const ::testing::TestParamInfo<iommu::BackendKind> &p) {
        return std::string(iommu::backendKindName(p.param));
    });

// A driver drains the SMMUv3 event queue in rounds (the chaos soak
// once per cycle, the fuzzer's drain op).  Once a round of N fault
// records has been delivered and drained, the next round of N must
// land in the ring's existing storage.
TEST(EventQueueDrain, SecondRoundAllocatesNothing)
{
    sim::Context ctx(sim::CostModel{}, 1, 1);
    iommu::SmmuV3Backend smmu(ctx);
    constexpr unsigned kFaults = 16; // under the ring's depth
    const auto round = [&] {
        for (unsigned i = 0; i < kFaults; ++i)
            smmu.deliverFault({0, iommu::Iova(i) * mem::kPageSize, true,
                               iommu::FaultReason::NotPresent, 0});
        const std::size_t delivered = smmu.eventQueue().size();
        smmu.drainEventQueue();
        return delivered;
    };
    EXPECT_EQ(round(), kFaults);
    const std::uint64_t before = gAllocs.load();
    EXPECT_EQ(round(), kFaults);
    EXPECT_EQ(gAllocs.load() - before, 0u);
    EXPECT_EQ(smmu.eventQueueDrained(), 2u * kFaults);
}

// The RX path's per-segment storage already exists: once the engine's
// slot pool covers the events in flight, scheduling a capture of the
// inline buffer's full size (the RX completion's) builds it in its
// slot, and an skb of up to kInline segments stays inside the object.
TEST(InPlaceStorage, EventsAndInlineSegmentsAllocateNothing)
{
    sim::Engine engine;
    std::array<std::uint64_t, 7> payload{};
    payload.fill(1);
    std::uint64_t sum = 0;
    const auto cb = [payload, &sum] { sum += payload[6]; };
    static_assert(sizeof(cb) == sim::SmallFn::kInlineBytes);
    constexpr int kEvents = 600; // three slot blocks
    const auto round = [&] {
        for (int i = 0; i < kEvents; ++i)
            engine.schedule(engine.now() + sim::TimeNs(i % 50), cb);
        engine.runAll();
    };
    round();
    const std::uint64_t before = gAllocs.load();
    for (int r = 0; r < 4; ++r)
        round();
    net::SkBuff skb;
    for (std::size_t i = 0; i < net::SkbSegList::kInline; ++i)
        skb.append(net::SkbSegment{mem::Pa(i + 1) * mem::kPageSize, 1500});
    EXPECT_EQ(gAllocs.load() - before, 0u);
    EXPECT_EQ(sum, 5u * kEvents);
    EXPECT_EQ(skb.len(), net::SkbSegList::kInline * 1500);
}

// The counter itself: without it every test above passes vacuously.
TEST(AllocCounter, CountsOperatorNew)
{
    const std::uint64_t before = gAllocs.load();
    void *p = ::operator new(32);
    ::operator delete(p);
    EXPECT_EQ(gAllocs.load() - before, 1u);
}
