/**
 * @file
 * Release-build (NDEBUG) verification: this TU and the library it
 * links (damn_work_ndebug) are compiled with asserts removed, so the
 * fail-soft exhaustion paths must hold up with no assert safety net —
 * exactly how a production kernel runs.  The scenarios mirror the
 * pressure suite at smaller scale.
 */

#ifndef NDEBUG
#error "test_release must be compiled with NDEBUG"
#endif

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>
#include <vector>

#include "dma/schemes.hh"
#include "iommu/io_pgtable.hh"
#include "iommu/iova_alloc.hh"
#include "net/system.hh"

using namespace damn;

namespace {
constexpr std::uint64_t kMiB = 1ull << 20;
} // namespace

TEST(Release, IovaExhaustionFailsSoft)
{
    iommu::IovaAllocator a;
    a.setSpaceBytes(8 * mem::kPageSize);
    for (int i = 0; i < 8; ++i)
        EXPECT_NE(a.alloc(1), iommu::kInvalidIova);
    EXPECT_EQ(a.alloc(1), iommu::kInvalidIova);
    EXPECT_EQ(a.failures(), 1u);
}

TEST(Release, MisalignedZoneRefused)
{
    // Not asserts: the refusal holds with NDEBUG too.
    mem::PhysicalMemory pm(8 * kMiB + mem::kPageSize);
    EXPECT_THROW(mem::PageAllocator(pm, 1), std::invalid_argument);
    EXPECT_THROW(mem::PageAllocator(pm, 0), std::invalid_argument);
}

TEST(Release, BuddyDoubleFreeLeavesFreeListsBounded)
{
    // With the double-free assert compiled out, freeing a block that
    // is already on its free list must not corrupt the list: the
    // allocator goes on handing out distinct frames until it is dry.
    mem::PhysicalMemory pm(8 * kMiB);
    mem::PageAllocator pa(pm, 1);
    const mem::Pfn a = pa.allocPages(0, 0);
    const mem::Pfn b = pa.allocPages(0, 0);
    ASSERT_EQ(b, a + 1); // buddies, so freeing a cannot coalesce
    pa.freePages(a, 0);
    pa.freePages(a, 0);
    EXPECT_EQ(pa.allocPages(0, 0), a);
    EXPECT_EQ(pa.allocPages(0, 0), a + 2);
    std::set<mem::Pfn> seen{a, b, a + 2};
    for (;;) {
        const mem::Pfn pfn = pa.allocPages(0, 0);
        if (pfn == mem::kInvalidPfn)
            break;
        ASSERT_TRUE(seen.insert(pfn).second) << "pfn " << pfn;
    }
    EXPECT_EQ(seen.size(), 1u << mem::PageAllocator::kMaxOrder);
}

TEST(Release, KmallocExhaustionReturnsZero)
{
    mem::PhysicalMemory pm(8 * kMiB);
    mem::PageAllocator pa(pm, 1);
    mem::KmallocHeap heap(pa);
    std::vector<mem::Pfn> hog;
    for (;;) {
        const mem::Pfn pfn = pa.allocPages(0, 0);
        if (pfn == mem::kInvalidPfn)
            break;
        hog.push_back(pfn);
    }
    ASSERT_FALSE(hog.empty());
    EXPECT_EQ(heap.kmalloc(512), 0u);
    for (const mem::Pfn pfn : hog)
        pa.freePages(pfn, 0);
    EXPECT_NE(heap.kmalloc(512), 0u);
}

TEST(Release, StrictMapExhaustionFailsSoft)
{
    sim::Context ctx(sim::CostModel{}, 1, 2);
    mem::PhysicalMemory pm(16 * kMiB);
    mem::PageAllocator pa(pm, 1);
    iommu::Iommu mmu(ctx, /*enabled=*/true);
    dma::Device dev(ctx, "dev0", mmu, pm);
    auto api = dma::makeScheme(dma::SchemeKind::Strict, ctx, mmu, pa);
    api->iovaAllocator()->setSpaceBytes(2 * mem::kPageSize);
    sim::CpuCursor c(ctx.machine.core(0), 0);
    const mem::Pfn pfn = pa.allocPages(0, 0);
    const iommu::Iova a = api->map(c, dev, mem::pfnToPa(pfn),
                                   mem::kPageSize, dma::Dir::ToDevice);
    const iommu::Iova b = api->map(c, dev, mem::pfnToPa(pfn),
                                   mem::kPageSize, dma::Dir::ToDevice);
    EXPECT_NE(a, dma::kMapFailed);
    EXPECT_NE(b, dma::kMapFailed);
    EXPECT_EQ(api->map(c, dev, mem::pfnToPa(pfn), mem::kPageSize,
                       dma::Dir::ToDevice),
              dma::kMapFailed);
    api->unmap(c, dev, a, mem::kPageSize, dma::Dir::ToDevice);
    EXPECT_NE(api->map(c, dev, mem::pfnToPa(pfn), mem::kPageSize,
                       dma::Dir::ToDevice),
              dma::kMapFailed);
}

TEST(Release, FourKInsideHugeLeafRefused)
{
    // With asserts compiled out, the page table itself must refuse to
    // hang a 4 KiB table beside a 2 MiB leaf.
    iommu::IoPageTable pt;
    ASSERT_TRUE(pt.mapHuge(0x200000, 0x400000, iommu::PermRW));
    EXPECT_FALSE(pt.map(0x201000, 0x9000, iommu::PermRead));
    const iommu::WalkResult w = pt.walk(0x201000);
    EXPECT_TRUE(w.present);
    EXPECT_TRUE(w.huge);
    EXPECT_EQ(w.pa, 0x401000u);
    EXPECT_EQ(pt.mappedPages(), 512u);
}

TEST(Release, WatchdogTripsWithoutAsserts)
{
    sim::Engine e;
    std::function<void()> tick = [&] { e.scheduleIn(10, [&] { tick(); }); };
    e.schedule(0, [&] { tick(); });
    e.armWatchdog(500, [] { return std::uint64_t{0}; });
    e.run(~sim::TimeNs{0});
    EXPECT_EQ(e.stallsDetected(), 1u);
}

TEST(Release, SystemBootsAndMapsUnderPressureWiring)
{
    net::SystemParams p;
    p.scheme = dma::SchemeKind::Deferred;
    p.sockets = 1;
    p.coresPerSocket = 2;
    p.physBytes = 16 * kMiB;
    p.iovaSpaceBytes = 16 * mem::kPageSize;
    net::System sys(p);
    sim::CpuCursor c(sys.ctx.machine.core(0), 0);
    const mem::Pfn pfn = sys.pageAlloc.allocPages(0, 0);
    // Deferred map/unmap churn across a tiny space: forced flushes
    // keep it alive, and nothing trips with asserts compiled out.
    dma::Device dev(sys.ctx, "dev0", sys.mmu, sys.phys);
    for (int i = 0; i < 100; ++i) {
        const iommu::Iova iova =
            sys.dmaApi->map(c, dev, mem::pfnToPa(pfn), mem::kPageSize,
                            dma::Dir::FromDevice);
        ASSERT_NE(iova, dma::kMapFailed) << "iteration " << i;
        sys.dmaApi->unmap(c, dev, iova, mem::kPageSize,
                          dma::Dir::FromDevice);
    }
    EXPECT_GT(sys.ctx.stats.get(sim::Ctr::IommuIovaForcedFlushes), 0u);
    EXPECT_EQ(sys.ctx.stats.get(sim::Ctr::DmaMapFails), 0u);
}
