/**
 * @file
 * Unit tests for the memory substrate: physical memory, buddy page
 * allocator, kmalloc slab, page-frag allocator.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "mem/kmalloc.hh"
#include "mem/page_frag.hh"
#include "sim/context.hh"
#include "sim/cpu_cursor.hh"
#include "sim/rng.hh"

using namespace damn;
using namespace damn::mem;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

struct MemFixture : ::testing::Test
{
    MemFixture() : pm(64 * kMiB), pa(pm, 2), heap(pa) {}

    PhysicalMemory pm;
    PageAllocator pa;
    KmallocHeap heap;
};

} // namespace

// ---------------------------------------------------------------------
// PhysicalMemory
// ---------------------------------------------------------------------

TEST(PhysicalMemory, ReadBackWhatWasWritten)
{
    PhysicalMemory pm(4 * kMiB);
    const char msg[] = "damn: dma-aware malloc";
    pm.write(0x1234, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    pm.read(0x1234, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(PhysicalMemory, CrossPageAccess)
{
    PhysicalMemory pm(4 * kMiB);
    std::vector<std::uint8_t> data(3 * kPageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 7);
    const Pa base = 2 * kPageSize - 100; // straddles 3 frames
    pm.write(base, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size());
    pm.read(base, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST(PhysicalMemory, UnwrittenReadsAsZero)
{
    PhysicalMemory pm(4 * kMiB);
    std::uint8_t b = 0xff;
    pm.read(123456, &b, 1);
    EXPECT_EQ(b, 0);
    // Reading must not back frames.
    EXPECT_EQ(pm.backedFrames(), 0u);
}

TEST(PhysicalMemory, LazyBacking)
{
    PhysicalMemory pm(64 * kMiB);
    EXPECT_EQ(pm.backedFrames(), 0u);
    pm.fill(5 * kPageSize, 1, 1);
    pm.fill(9 * kPageSize, 1, 1);
    EXPECT_EQ(pm.backedFrames(), 2u);
}

TEST(PhysicalMemory, FillAndCopy)
{
    PhysicalMemory pm(4 * kMiB);
    pm.fill(0x2000, 0x5a, 8192);
    EXPECT_EQ(pm.readByte(0x2000), 0x5a);
    EXPECT_EQ(pm.readByte(0x2000 + 8191), 0x5a);
    pm.copy(0x10000, 0x2000, 8192);
    EXPECT_EQ(pm.readByte(0x10000), 0x5a);
    EXPECT_EQ(pm.readByte(0x10000 + 8191), 0x5a);
}

TEST(PhysicalMemory, PageStructLookup)
{
    PhysicalMemory pm(4 * kMiB);
    Page &pg = pm.pageOf(3 * kPageSize + 17);
    EXPECT_EQ(pm.pfnOf(pg), 3u);
}

namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

/** Resident set size of this process (field 2 of /proc/self/statm). */
std::uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * std::uint64_t(::sysconf(_SC_PAGESIZE));
}

} // namespace

TEST(PhysicalMemory, MemmapIsLazy)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory skews the resident set";
#endif
    // An eager 4 GiB memmap is ~48 MiB (1 M Page structs + 1 M frame
    // pointers), and eagerly seeding the buddy free lists would write
    // one head Page per max-order block (~4 MiB).  Only zone 0's
    // reserved block may fault in: 1024 Page structs, 40 KiB.
    const std::uint64_t before = residentBytes();
    PhysicalMemory pm(4 * kGiB);
    PageAllocator pa(pm, 2);
    const std::uint64_t grown = residentBytes() - before;
    EXPECT_LT(grown, 1 * kMiB);
    EXPECT_EQ(pm.backedFrames(), 0u);
    EXPECT_EQ(pa.freeFrames(),
              pm.numFrames() - (1ull << PageAllocator::kMaxOrder));
}

TEST(PhysicalMemory, UntouchedPagesAreDefault)
{
    PhysicalMemory pm(4 * kGiB);
    const Page def{};
    for (const Pfn p : {Pfn(0), pm.numFrames() / 2, pm.numFrames() - 1}) {
        const Page &pg = pm.page(p);
        EXPECT_EQ(pg.flags, def.flags) << "pfn " << p;
        EXPECT_EQ(pg.refcount, def.refcount) << "pfn " << p;
        EXPECT_EQ(pg.order, def.order) << "pfn " << p;
        EXPECT_EQ(pg.compoundHead, def.compoundHead) << "pfn " << p;
        EXPECT_EQ(pg.priv, def.priv) << "pfn " << p;
        EXPECT_EQ(pg.priv2, def.priv2) << "pfn " << p;
        EXPECT_EQ(pg.slabClass, def.slabClass) << "pfn " << p;
        EXPECT_EQ(pm.pfnOf(pm.page(p)), p);
        EXPECT_EQ(pm.readByte(pfnToPa(p)), 0);
    }
}

TEST(PhysicalMemory, TeardownFreesBackedFrames)
{
    // Under the sanitizer tree's leak checker this shows every backed
    // frame, the one at the highest pfn included, is released.
    auto pm = std::make_unique<PhysicalMemory>(4 * kGiB);
    const Pa top = pfnToPa(pm->numFrames() - 1);
    pm->fill(0, 0xab, 3 * kPageSize);
    pm->fill(top + kPageSize - 1, 0xcd, 1);
    EXPECT_EQ(pm->backedFrames(), 4u);
    EXPECT_EQ(pm->readByte(2 * kPageSize), 0xab);
    EXPECT_EQ(pm->readByte(top + kPageSize - 1), 0xcd);
    pm.reset();
}

TEST(PhysicalMemory, PaPfnConversions)
{
    EXPECT_EQ(paToPfn(0x5123), 5u);
    EXPECT_EQ(pfnToPa(5), 5 * kPageSize);
    EXPECT_EQ(pageOffset(0x5123), 0x123u);
}

TEST(PageStruct, FlagOps)
{
    Page p;
    EXPECT_FALSE(p.test(PG_head));
    p.set(PG_head);
    p.set(PG_damn);
    EXPECT_TRUE(p.test(PG_head));
    EXPECT_TRUE(p.test(PG_damn));
    p.clearFlag(PG_head);
    EXPECT_FALSE(p.test(PG_head));
    EXPECT_TRUE(p.test(PG_damn));
}

// ---------------------------------------------------------------------
// PageAllocator (buddy)
// ---------------------------------------------------------------------

TEST_F(MemFixture, AllocReturnsAlignedBlocks)
{
    for (unsigned order = 0; order <= PageAllocator::kMaxOrder;
         ++order) {
        const Pfn pfn = pa.allocPages(order, 0);
        ASSERT_NE(pfn, kInvalidPfn);
        EXPECT_EQ(pfn % (1ull << order), 0u)
            << "order " << order << " block misaligned";
        pa.freePages(pfn, order);
    }
}

TEST_F(MemFixture, FrameZeroIsReserved)
{
    // Many allocations never return pfn 0 (the null page).
    for (int i = 0; i < 64; ++i) {
        const Pfn pfn = pa.allocPages(0, 0);
        EXPECT_NE(pfn, 0u);
    }
}

TEST_F(MemFixture, DistinctBlocksDoNotOverlap)
{
    std::vector<Pfn> blocks;
    for (int i = 0; i < 32; ++i)
        blocks.push_back(pa.allocPages(2, 0));
    std::sort(blocks.begin(), blocks.end());
    for (std::size_t i = 1; i < blocks.size(); ++i)
        EXPECT_GE(blocks[i], blocks[i - 1] + 4);
    for (const Pfn b : blocks)
        pa.freePages(b, 2);
}

TEST_F(MemFixture, FreeCoalescesBackToMaxOrder)
{
    const std::uint64_t before = pa.freeFrames();
    std::vector<Pfn> ones;
    for (int i = 0; i < 1024; ++i)
        ones.push_back(pa.allocPages(0, 0));
    for (const Pfn p : ones)
        pa.freePages(p, 0);
    EXPECT_EQ(pa.freeFrames(), before);
    // After full coalescing a max-order block must be allocatable.
    const Pfn big = pa.allocPages(PageAllocator::kMaxOrder, 0);
    EXPECT_NE(big, kInvalidPfn);
    pa.freePages(big, PageAllocator::kMaxOrder);
}

TEST_F(MemFixture, NumaPreferenceHonored)
{
    const Pfn p0 = pa.allocPages(0, 0);
    const Pfn p1 = pa.allocPages(0, 1);
    EXPECT_EQ(pa.nodeOf(p0), 0u);
    EXPECT_EQ(pa.nodeOf(p1), 1u);
    pa.freePages(p0, 0);
    pa.freePages(p1, 0);
}

TEST_F(MemFixture, FallsBackToRemoteNode)
{
    // Exhaust node 0 entirely, then ask for node-0 memory.
    std::vector<Pfn> hog;
    while (pa.freeFramesInZone(0) > 0) {
        const Pfn p = pa.allocPages(PageAllocator::kMaxOrder, 0);
        if (pa.nodeOf(p) != 0) {
            pa.freePages(p, PageAllocator::kMaxOrder);
            break;
        }
        hog.push_back(p);
    }
    const Pfn p = pa.allocPages(0, 0);
    ASSERT_NE(p, kInvalidPfn);
    EXPECT_EQ(pa.nodeOf(p), 1u);
    pa.freePages(p, 0);
    for (const Pfn h : hog)
        pa.freePages(h, PageAllocator::kMaxOrder);
}

TEST_F(MemFixture, ExhaustionReturnsInvalid)
{
    const std::uint64_t start = pa.freeFrames();
    std::vector<std::pair<Pfn, unsigned>> hog;
    for (;;) {
        const Pfn p = pa.allocPages(PageAllocator::kMaxOrder, 0);
        if (p == kInvalidPfn)
            break;
        hog.emplace_back(p, PageAllocator::kMaxOrder);
    }
    // Smaller blocks may still exist (the reserved split), but after
    // draining order-0 too the allocator must fail cleanly.
    for (;;) {
        const Pfn p = pa.allocPages(0, 0);
        if (p == kInvalidPfn)
            break;
        hog.emplace_back(p, 0);
    }
    EXPECT_EQ(pa.allocPages(0, 0), kInvalidPfn);
    EXPECT_EQ(pa.freeFrames(), 0u);

    // Every block goes back, the carved ones coalescing to max order.
    for (const auto &[pfn, order] : hog)
        pa.freePages(pfn, order);
    EXPECT_EQ(pa.freeFrames(), start);
    const Pfn big = pa.allocPages(PageAllocator::kMaxOrder, 0);
    EXPECT_NE(big, kInvalidPfn);
    pa.freePages(big, PageAllocator::kMaxOrder);
}

namespace {

/**
 * Eager buddy reference: every max-order block starts on the free
 * list, the lowest pfn of the smallest fitting order is taken first,
 * and a freed block coalesces with any free buddy of its order.
 */
class EagerBuddy
{
  public:
    static constexpr unsigned kMax = PageAllocator::kMaxOrder;

    EagerBuddy(Pfn frames, unsigned zones) : perZone_(frames / zones)
    {
        zones_.resize(zones);
        for (unsigned zi = 0; zi < zones; ++zi) {
            Zone &z = zones_[zi];
            z.base = perZone_ * zi;
            const Pfn start = z.base + (zi == 0 ? 1ull << kMax : 0);
            for (Pfn p = start; p + (1ull << kMax) <= z.base + perZone_;
                 p += 1ull << kMax) {
                z.free[kMax].insert(p);
                z.freeFrames += 1ull << kMax;
            }
        }
    }

    Pfn
    alloc(unsigned order, unsigned node)
    {
        for (unsigned i = 0; i < zones_.size(); ++i) {
            Zone &z = zones_[(node + i) % zones_.size()];
            unsigned o = order;
            while (o <= kMax && z.free[o].empty())
                ++o;
            if (o > kMax)
                continue;
            const Pfn pfn = *z.free[o].begin();
            z.free[o].erase(z.free[o].begin());
            while (o > order) {
                --o;
                z.free[o].insert(pfn + (1ull << o));
            }
            z.freeFrames -= 1ull << order;
            allocated_ += 1ull << order;
            return pfn;
        }
        return kInvalidPfn;
    }

    void
    free(Pfn pfn, unsigned order)
    {
        Zone &z = zones_[pfn / perZone_];
        z.freeFrames += 1ull << order;
        allocated_ -= 1ull << order;
        while (order < kMax) {
            const Pfn buddy = pfn ^ (1ull << order);
            if (buddy < z.base ||
                buddy + (1ull << order) > z.base + perZone_ ||
                !z.free[order].erase(buddy))
                break;
            pfn = std::min(pfn, buddy);
            ++order;
        }
        z.free[order].insert(pfn);
    }

    std::uint64_t freeFramesInZone(unsigned zi) const
    {
        return zones_[zi].freeFrames;
    }
    std::uint64_t allocatedFrames() const { return allocated_; }

  private:
    struct Zone
    {
        Pfn base = 0;
        std::set<Pfn> free[kMax + 1];
        std::uint64_t freeFrames = 0;
    };

    Pfn perZone_;
    std::vector<Zone> zones_;
    std::uint64_t allocated_ = 0;
};

} // namespace

TEST(PageAllocator, LazySeedingMatchesEagerReference)
{
    constexpr unsigned kMax = PageAllocator::kMaxOrder;
    PhysicalMemory pm(4 * kGiB);
    PageAllocator pa(pm, 2);
    EagerBuddy ref(pm.numFrames(), 2);
    sim::Rng rng(0x1a2b);
    std::vector<std::pair<Pfn, unsigned>> live;
    unsigned fallbacks = 0;

    auto check = [&](const char *what, std::size_t step) {
        SCOPED_TRACE(testing::Message() << what << " step " << step);
        ASSERT_EQ(pa.allocatedFrames(), ref.allocatedFrames());
        ASSERT_EQ(pa.freeFramesInZone(0), ref.freeFramesInZone(0));
        ASSERT_EQ(pa.freeFramesInZone(1), ref.freeFramesInZone(1));
    };
    auto alloc = [&](unsigned order, unsigned node) {
        const Pfn got = pa.allocPages(order, node);
        const Pfn want = ref.alloc(order, node);
        EXPECT_EQ(got, want) << "order " << order << " node " << node;
        if (got == kInvalidPfn)
            return got;
        if (pa.nodeOf(got) != node)
            ++fallbacks;
        live.emplace_back(got, order);
        return got;
    };
    auto freeRandom = [&] {
        const std::size_t i = rng.below(live.size());
        const auto [pfn, order] = live[i];
        live[i] = live.back();
        live.pop_back();
        pa.freePages(pfn, order);
        ref.free(pfn, order);
    };

    // 1: a mixed churn of every order on both nodes.
    for (std::size_t step = 0; step < 6000; ++step) {
        if (live.empty() || rng.chance(0.6))
            alloc(unsigned(rng.below(kMax + 1)), unsigned(rng.below(2)));
        else
            freeRandom();
        check("churn", step);
        if (HasFailure())
            return;
    }
    // 2: free everything, so every carved block coalesces back to max
    // order on free[kMaxOrder], below the zones' never-touched blocks.
    for (std::size_t step = 0; !live.empty(); ++step) {
        freeRandom();
        check("drain", step);
        if (HasFailure())
            return;
    }
    ASSERT_EQ(pa.freeFrames(), pm.numFrames() - (1ull << kMax));
    // 3: run node 0 to exhaustion, mostly in large blocks: freed
    // max-order blocks must come before never-touched ones, and node 0
    // must fall back to node 1 once its zone is drained.
    for (std::size_t step = 0;; ++step) {
        if (!live.empty() && rng.chance(0.1)) {
            freeRandom();
        } else {
            const unsigned order = rng.chance(0.5)
                ? kMax : unsigned(rng.below(kMax + 1));
            if (alloc(order, 0) == kInvalidPfn && alloc(0, 0) == kInvalidPfn)
                break;
        }
        check("exhaust", step);
        if (HasFailure())
            return;
    }
    EXPECT_EQ(pa.freeFrames(), 0u);
    EXPECT_GT(fallbacks, 0u);
}

// The buddy of any block below max order must lie in its zone, so a
// zone must be a whole, non-zero number of max-order (4 MiB) blocks.
TEST(PageAllocator, RefusesZonesThatAreNotWholeMaxOrderBlocks)
{
    constexpr std::uint64_t kBlock = kPageSize << PageAllocator::kMaxOrder;
    PhysicalMemory odd(kBlock + kPageSize), small(kBlock / 2),
        even(8 * kBlock);
    EXPECT_THROW(PageAllocator(odd, 1), std::invalid_argument);
    EXPECT_THROW(PageAllocator(small, 1), std::invalid_argument);
    EXPECT_THROW(PageAllocator(even, 0), std::invalid_argument);
    EXPECT_THROW(PageAllocator(even, 3), std::invalid_argument);
    EXPECT_THROW(PageAllocator(even, 16), std::invalid_argument);
    PageAllocator pa(even, 4);
    EXPECT_EQ(pa.freeFrames(), 7u << PageAllocator::kMaxOrder);
}

TEST_F(MemFixture, AllocatedFramesAccounting)
{
    const std::uint64_t base = pa.allocatedFrames();
    const Pfn a = pa.allocPages(3, 0);
    EXPECT_EQ(pa.allocatedFrames(), base + 8);
    pa.freePages(a, 3);
    EXPECT_EQ(pa.allocatedFrames(), base);
}

TEST_F(MemFixture, ZeroedAllocation)
{
    const Pfn dirty = pa.allocPages(0, 0);
    pm.fill(pfnToPa(dirty), 0xdd, kPageSize);
    pa.freePages(dirty, 0);
    const Pfn clean = pa.allocPages(0, 0, /*zero=*/true);
    EXPECT_EQ(clean, dirty); // buddy hands back the same block
    EXPECT_EQ(pm.readByte(pfnToPa(clean)), 0);
    EXPECT_EQ(pm.readByte(pfnToPa(clean) + kPageSize - 1), 0);
    pa.freePages(clean, 0);
}

// Zeroing never-written frames backs nothing: they already read as
// zero.  A dirtied, backed frame is still zeroed (ZeroedAllocation).
TEST_F(MemFixture, ZeroedAllocationOfUnwrittenFramesBacksNothing)
{
    const std::uint64_t backed = pm.backedFrames();
    const Pfn p = pa.allocPages(3, 0, /*zero=*/true);
    ASSERT_NE(p, kInvalidPfn);
    EXPECT_EQ(pm.backedFrames(), backed);
    std::vector<std::uint8_t> out(8 * kPageSize, 0xff);
    pm.read(pfnToPa(p), out.data(), out.size());
    for (const std::uint8_t b : out)
        ASSERT_EQ(b, 0);
    pa.freePages(p, 3);
}

TEST_F(MemFixture, ZeroFillKeepsBackedFramesAndZeroesThem)
{
    const Pfn p = pa.allocPages(1, 0);
    pm.fill(pfnToPa(p), 0xdd, kPageSize); // back and dirty frame 0 only
    const std::uint64_t backed = pm.backedFrames();
    pm.fill(pfnToPa(p) + 100, 0, 2 * kPageSize - 200);
    EXPECT_EQ(pm.backedFrames(), backed);
    EXPECT_EQ(pm.readByte(pfnToPa(p) + 99), 0xdd);
    EXPECT_EQ(pm.readByte(pfnToPa(p) + 100), 0);
    EXPECT_EQ(pm.readByte(pfnToPa(p) + kPageSize - 1), 0);
    EXPECT_EQ(pm.readByte(pfnToPa(p) + 2 * kPageSize - 100), 0);
    pa.freePages(p, 1);
}

TEST_F(MemFixture, FreeClearsPageMetadata)
{
    const Pfn p = pa.allocPages(1, 0);
    Page &pg = pm.page(p + 1);
    pg.set(PG_damn);
    pg.priv = 123;
    pa.freePages(p, 1);
    EXPECT_FALSE(pm.page(p + 1).test(PG_damn));
    EXPECT_EQ(pm.page(p + 1).priv, 0u);
}

// ---------------------------------------------------------------------
// KmallocHeap
// ---------------------------------------------------------------------

TEST_F(MemFixture, KmallocClassRounding)
{
    EXPECT_EQ(KmallocHeap::classFor(1), 0u);
    EXPECT_EQ(KmallocHeap::classFor(8), 0u);
    EXPECT_EQ(KmallocHeap::classFor(9), 1u);
    EXPECT_EQ(KmallocHeap::classFor(4096), 9u);
}

TEST_F(MemFixture, KmallocAligned)
{
    for (int i = 0; i < 16; ++i) {
        const Pa p = heap.kmalloc(24);
        EXPECT_EQ(p % 8, 0u);
    }
}

TEST_F(MemFixture, KmallocCoLocatesOnOnePage)
{
    // The property the paper's partial-protection critique rests on:
    // unrelated same-class objects share a physical page.
    const Pa a = heap.kmalloc(256);
    const Pa b = heap.kmalloc(256);
    EXPECT_EQ(paToPfn(a), paToPfn(b));
    EXPECT_EQ(b, a + 256); // adjacent, ascending
    heap.kfree(a);
    heap.kfree(b);
}

TEST_F(MemFixture, KfreeLifoReuse)
{
    const Pa a = heap.kmalloc(512);
    heap.kfree(a);
    EXPECT_EQ(heap.kmalloc(512), a);
}

TEST_F(MemFixture, KmallocAccounting)
{
    EXPECT_EQ(heap.allocatedBytes(), 0u);
    const Pa a = heap.kmalloc(100); // class 128
    EXPECT_EQ(heap.allocatedBytes(), 128u);
    EXPECT_EQ(heap.liveObjects(), 1u);
    heap.kfree(a);
    EXPECT_EQ(heap.allocatedBytes(), 0u);
    EXPECT_EQ(heap.liveObjects(), 0u);
}

TEST_F(MemFixture, KmallocSlabPageFlagged)
{
    const Pa a = heap.kmalloc(64);
    EXPECT_TRUE(pm.pageOf(a).test(PG_slab));
    EXPECT_EQ(pm.pageOf(a).slabClass, KmallocHeap::classFor(64));
    heap.kfree(a);
}

TEST_F(MemFixture, KfreeNullIsNoop)
{
    heap.kfree(0);
    EXPECT_EQ(heap.liveObjects(), 0u);
}

TEST_F(MemFixture, KmallocManyClassesIndependent)
{
    std::vector<Pa> ptrs;
    for (const std::uint32_t sz : KmallocHeap::kClasses)
        ptrs.push_back(heap.kmalloc(sz));
    // All distinct and correctly typed.
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
        for (std::size_t j = i + 1; j < ptrs.size(); ++j)
            EXPECT_NE(ptrs[i], ptrs[j]);
        EXPECT_EQ(pm.pageOf(ptrs[i]).slabClass, i);
    }
    for (const Pa p : ptrs)
        heap.kfree(p);
}

TEST_F(MemFixture, KmallocFillsWholePageBeforeNewOne)
{
    std::vector<Pa> objs;
    for (unsigned i = 0; i < kPageSize / 1024; ++i)
        objs.push_back(heap.kmalloc(1024));
    const Pfn first = paToPfn(objs[0]);
    for (const Pa p : objs)
        EXPECT_EQ(paToPfn(p), first);
    objs.push_back(heap.kmalloc(1024));
    EXPECT_NE(paToPfn(objs.back()), first);
    for (const Pa p : objs)
        heap.kfree(p);
}

// ---------------------------------------------------------------------
// PageFragAllocator
// ---------------------------------------------------------------------

namespace {

struct FragFixture : ::testing::Test
{
    FragFixture()
        : ctx(sim::CostModel{}, 1, 2),
          pm(64 * kMiB),
          pa(pm, 1),
          frag(ctx, pa)
    {}

    sim::Context ctx;
    PhysicalMemory pm;
    PageAllocator pa;
    PageFragAllocator frag;
};

} // namespace

TEST_F(FragFixture, CarvesWithinOneBlock)
{
    sim::CpuCursor cpu(ctx.machine.core(0), 0);
    const Pa a = frag.alloc(cpu, 1000);
    const Pa b = frag.alloc(cpu, 1000);
    EXPECT_EQ(b, a + 1000);
}

TEST_F(FragFixture, BlockFreedWhenLastFragDropped)
{
    sim::CpuCursor cpu(ctx.machine.core(0), 0);
    const std::uint64_t base = pa.allocatedFrames();
    const Pa a = frag.alloc(cpu, 16384);
    const Pa b = frag.alloc(cpu, 16384);
    EXPECT_GT(pa.allocatedFrames(), base);
    frag.free(cpu, a);
    frag.free(cpu, b);
    // Block is still biased by the allocator (current bump block).
    // Exhaust it to trigger retirement.
    std::vector<Pa> more;
    for (int i = 0; i < 64; ++i)
        more.push_back(frag.alloc(cpu, 16384));
    for (const Pa p : more)
        frag.free(cpu, p);
    EXPECT_LE(pa.allocatedFrames(),
              base + (1ull << PageFragAllocator::kBlockOrder));
}

TEST_F(FragFixture, PerCoreIsolation)
{
    sim::CpuCursor c0(ctx.machine.core(0), 0);
    sim::CpuCursor c1(ctx.machine.core(1), 0);
    const Pa a = frag.alloc(c0, 4096);
    const Pa b = frag.alloc(c1, 4096);
    // Different cores carve from different blocks.
    EXPECT_NE(paToPfn(a) >> PageFragAllocator::kBlockOrder,
              paToPfn(b) >> PageFragAllocator::kBlockOrder);
    frag.free(c0, a);
    frag.free(c1, b);
}
