/**
 * @file
 * Shared Virtual Addressing: a protection domain where IOVA = process
 * virtual address and pages are demand-faulted.
 *
 * An SvaDomain owns one facade domain and a resident set of pageable
 * frames.  Nothing is premapped: a device DMA into the domain misses
 * its ATS translation, posts a page request, and the simulated OS
 * fault handler here allocates a frame (through the `mem.page_alloc`
 * fault site, so service can fail under pressure), installs the PTE,
 * and responds so the device resumes.  A bounded resident limit plus
 * LRU eviction models memory pressure: eviction unmaps the page,
 * invalidates the IOTLB *and* the device TLB, and frees the frame —
 * the full reclaim path a faultable mapping must survive.
 */

#ifndef DAMN_IOMMU_SVA_HH
#define DAMN_IOMMU_SVA_HH

#include <cstdint>

#include "iommu/ats.hh"
#include "iommu/backend.hh"
#include "mem/page_alloc.hh"
#include "sim/context.hh"
#include "sim/cpu_cursor.hh"
#include "sim/flat_map.hh"

namespace damn::iommu {

class Iommu;

/** One SVA domain: pageable process memory a device can fault on. */
class SvaDomain
{
  public:
    /**
     * @param residentLimitPages  evict LRU beyond this many resident
     *                            pages; 0 means unbounded.
     */
    SvaDomain(sim::Context &ctx, Iommu &mmu, mem::PageAllocator &alloc,
              unsigned residentLimitPages = 0);
    ~SvaDomain();

    SvaDomain(const SvaDomain &) = delete;
    SvaDomain &operator=(const SvaDomain &) = delete;

    DomainId domain() const { return domain_; }
    sim::Context &ctx() { return ctx_; }

    bool resident(Iova va) const;
    /** Frame backing @p va's page, 0 when not resident. */
    mem::Pa paOf(Iova va) const;

    /**
     * The OS page-fault handler: make @p va's page resident.  Spurious
     * faults (already resident) succeed cheaply.  Returns false when
     * the allocation fails — injected `mem.page_alloc` fault or real
     * exhaustion — in which case the device gets a failure response
     * and must retry.
     */
    bool handleFault(sim::CpuCursor &cpu, Iova va, bool is_write,
                     AtsAgent *ats = nullptr);

    /**
     * Service one fetched page request end to end: charge the handler
     * CPU, run handleFault(), and produce the success/failure response
     * through the backend (the device's resume signal).
     */
    bool servicePageRequest(sim::CpuCursor &cpu,
                            const IommuBackend::PageRequest &req,
                            AtsAgent *ats = nullptr);

    /**
     * Reclaim @p va's page: unmap, synchronous IOTLB invalidation,
     * device-TLB invalidation when @p ats is given, free the frame.
     * Returns false when the page was not resident.
     */
    bool evict(sim::CpuCursor &cpu, Iova va, AtsAgent *ats = nullptr);

    std::uint64_t residentPages() const { return resident_.size(); }
    std::uint64_t faultsServiced() const { return faultsServiced_; }
    std::uint64_t failedFaults() const { return failedFaults_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    /** A resident frame; the LRU list is threaded through the map by
     *  the VAs of each page's neighbours (kNoPage ends it). */
    struct Resident
    {
        mem::Pfn pfn;
        Iova older, newer;
    };
    static constexpr Iova kNoPage = ~Iova{0};

    void lruUnlink(const Resident &r);
    void lruAppend(Iova page); //!< resident @p page becomes the newest

    sim::Context &ctx_;
    Iommu &mmu_;
    mem::PageAllocator &alloc_;
    unsigned residentLimit_;
    DomainId domain_;
    sim::FlatMap<Resident> resident_; //!< keyed by page VA
    Iova lruOldest_ = kNoPage, lruNewest_ = kNoPage; //!< oldest = victim
    std::uint64_t faultsServiced_ = 0;
    std::uint64_t failedFaults_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_SVA_HH
