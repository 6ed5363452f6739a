/**
 * @file
 * DAMN's public allocation API (paper Table 2) and DMA-cache registry.
 *
 * damn_alloc / damn_alloc_pages take a device pointer and an access-
 * rights mask; buffers come from the DMA cache matching (device,
 * rights, NUMA domain of the calling core).  A NULL device falls back
 * to the standard kernel allocators (kmalloc / alloc_pages), exactly as
 * the paper specifies for flows that have no device at hand.
 *
 * The free side receives only an address: DAMN recovers the owning
 * allocator from compound-page metadata (section 5.5) — no device or
 * rights argument needed.
 */

#ifndef DAMN_CORE_DAMN_ALLOCATOR_HH
#define DAMN_CORE_DAMN_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/dma_cache.hh"
#include "dma/device.hh"
#include "mem/kmalloc.hh"

namespace damn::core {

/**
 * The DMA-Aware Malloc for Networking.
 */
class DamnAllocator
{
  public:
    DamnAllocator(sim::Context &ctx, mem::PageAllocator &pa,
                  mem::KmallocHeap &heap, iommu::Iommu &mmu,
                  DmaCacheConfig config = {});

    DamnAllocator(const DamnAllocator &) = delete;
    DamnAllocator &operator=(const DamnAllocator &) = delete;

    // ---- Paper Table 2 -------------------------------------------

    /**
     * Allocate an @p size byte buffer DMA-accessible to @p dev with
     * @p rights.  NULL @p dev falls back to the kernel allocator.
     * @return kernel virtual address (== Pa), 0 on failure.
     */
    mem::Pa damnAlloc(sim::CpuCursor &cpu, dma::Device *dev,
                      Rights rights, std::uint32_t size,
                      AllocCtx actx = AllocCtx::Standard);

    /**
     * Allocate 2^k physically contiguous pages DMA-accessible to
     * @p dev with @p rights.
     * @return pfn of the first page, kInvalidPfn on failure.
     */
    mem::Pfn damnAllocPages(sim::CpuCursor &cpu, dma::Device *dev,
                            Rights rights, unsigned k,
                            AllocCtx actx = AllocCtx::Standard);

    /** Free a buffer from damnAlloc, or the pfnToPa() of pages from
     *  damnAllocPages (device, rights and order looked up). */
    void damnFree(sim::CpuCursor &cpu, mem::Pa addr,
                  AllocCtx actx = AllocCtx::Standard);

    // ---- Introspection used by the DMA-API interposition ----------

    /** True iff @p addr lies in a DAMN chunk (compound F-flag check). */
    bool isDamnBuffer(mem::Pa addr) const;

    /** Permanently-mapped IOVA of a DAMN buffer. */
    iommu::Iova iovaOf(mem::Pa addr) const;

    /** Rights of the cache owning @p addr (device-writable check for
     *  the TOCTTOU guard). */
    Rights rightsOf(mem::Pa addr) const;

    // ---- Memory pressure / accounting -------------------------------

    /**
     * Shrinker (paper section 5.4): release chunks cached in magazines
     * and depots back to the OS, then flush the IOTLB once so the
     * freed pages cannot be reached through stale entries.
     * @return bytes released.
     */
    std::uint64_t shrink(sim::CpuCursor &cpu);

    /**
     * Device-teardown drain: retire bump chunks and release cached
     * chunks of every cache serving domain @p d, followed by one
     * domain-scoped IOTLB flush.  Live buffers survive; the caller
     * checks outstandingIovaSlots(d) afterwards to find leaks.
     * @return bytes released.
     */
    std::uint64_t drainDomain(sim::CpuCursor &cpu, iommu::DomainId d);

    /** IOVA chunk slots still outstanding across domain @p d's caches. */
    std::uint64_t outstandingIovaSlots(iommu::DomainId d) const;

    /** Bytes owned by all DMA caches (live + cached). */
    std::uint64_t ownedBytes() const;

    /** The cache serving (dev, rights, numa), created on first use. */
    DmaCache &cacheFor(dma::Device &dev, Rights rights, sim::NumaId numa);

    const std::vector<std::unique_ptr<DmaCache>> &caches() const
    {
        return caches_;
    }

    mem::KmallocHeap &heap() { return heap_; }

  private:
    struct CacheKey
    {
        iommu::DomainId domain;
        Rights rights;
        sim::NumaId numa;

        bool
        operator<(const CacheKey &o) const
        {
            if (domain != o.domain)
                return domain < o.domain;
            if (rights != o.rights)
                return rights < o.rights;
            return numa < o.numa;
        }
    };

    /** Head pfn of the DAMN compound containing @p addr. */
    mem::Pfn headOf(mem::Pa addr) const;
    const DmaCache &cacheOf(mem::Pa addr) const;

    sim::Context &ctx_;
    mem::PageAllocator &pageAlloc_;
    mem::KmallocHeap &heap_;
    iommu::Iommu &iommu_;
    DmaCacheConfig config_;

    std::map<CacheKey, std::uint32_t> cacheIndex_;
    std::vector<std::unique_ptr<DmaCache>> caches_;
    std::map<iommu::DomainId, std::uint32_t> devIdx_;
};

} // namespace damn::core

#endif // DAMN_CORE_DAMN_ALLOCATOR_HH
