/**
 * @file
 * PCIe Address Translation Services: the device side.
 *
 * An AtsAgent models one endpoint's ATS capability — a small device
 * TLB (ATC) caching translations *outside* the IOMMU, filled by
 * translation requests over the fabric.  The whole point of modeling
 * it separately from the IOMMU's IOTLB is that its entries go stale
 * independently: an unmap + IOTLB flush leaves the ATC untouched
 * until a device-TLB invalidation (IommuBackend::atsInvalidate*)
 * completes.  That extra stale window is what the fuzzer's
 * stale-device-tlb oracle patrols.
 *
 * A translation request that resolves to "no access" (unmapped or
 * insufficient permission) is not a fault: with PRI the device posts
 * a page request (IommuBackend::postPageRequest) and retries after
 * the OS services it — see iommu/sva.hh and dma/faultable.hh.
 */

#ifndef DAMN_IOMMU_ATS_HH
#define DAMN_IOMMU_ATS_HH

#include <cstdint>
#include <vector>

#include "iommu/iotlb.hh"
#include "sim/context.hh"
#include "sim/flat_map.hh"

namespace damn::iommu {

class Iommu;

/**
 * One device's ATS state: its ATC plus request/hit accounting.
 *
 * The ATC is a fixed array of slots.  A fill takes the lowest invalid
 * slot, else the least recently used valid one (a fill or a hit is a
 * use).  One page can sit in several slots: after a re-map grants a
 * right, a stale entry lacking it stays until it is invalidated or
 * evicted, and each miss on it fills a fresh copy.  A lookup sees
 * the lowest slot holding the page.  A page-tag index, a free-slot
 * bitmap and an LRU list threaded through the slots spare lookup,
 * victim choice and per-page invalidation a scan of the slots.
 */
class AtsAgent
{
  public:
    /** Outcome of a device-side ATS translation. */
    struct Result
    {
        bool ok = false;       //!< translated with sufficient rights
        bool hit = false;      //!< served from the ATC
        mem::Pa pa = 0;
        sim::TimeNs latencyNs = 0;
    };

    AtsAgent(sim::Context &ctx, Iommu &mmu, DomainId domain);

    DomainId domain() const { return domain_; }

    /**
     * Translate @p iova for an @p is_write access.  ATC hit costs
     * atsDevTlbHitNs; a miss pays the PCIe translation-request round
     * trip plus the IOMMU-side walk and fills the ATC.  When the walk
     * finds no sufficient mapping the result is !ok — the PRI retry
     * path, not a recorded IOMMU fault.
     */
    Result translate(Iova iova, bool is_write);

    // ---- Hardware-side ATC maintenance (called by the backends) ----

    /** Apply a device-TLB invalidation covering [iova, iova+len), by
     *  rangeHitsPage() (the IOTLB's rule).  Probes the index once per
     *  page the range hits when that is no more than the valid
     *  entries; otherwise scans the slots. */
    void invalidateRange(Iova iova, std::uint64_t len);

    /** Apply a global device-TLB invalidation (the agent serves one
     *  domain, so "global" and "domain" coincide). */
    void invalidateAll();

    /** Device reset (FLR): the ATC is cleared unconditionally — a
     *  direct hardware reset, not a droppable queued command. */
    void reset();

    /**
     * Test-only fault hook mirroring Iotlb::debugDropInvalidations():
     * silently ignore the next @p n invalidation messages, leaving
     * stale ATC entries behind — the bug the fuzzer's
     * stale-device-tlb oracle must catch.  Production code never
     * calls this.
     */
    void debugDropInvalidations(unsigned n) { debugDropRemaining_ = n; }

    /** Page-aligned IOVAs of all valid ATC entries, in slot order
     *  (oracle probe). */
    std::vector<Iova> validEntries() const;

    /** ATC entries written over the agent's lifetime (monotone, kept
     *  across reset()).  Filling is the only way an ATC entry becomes
     *  valid — the same change signal as Iotlb::fills(). */
    std::uint64_t fills() const { return fills_; }

    /** Valid ATC entries (O(1): a running count). */
    std::size_t entries() const { return live_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t invalidations() const { return invalidations_; }

    double
    hitRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total == 0 ? 0.0 : double(hits_) / double(total);
    }

  private:
    /** One ATC slot; the LRU list is threaded through the valid slots
     *  by their neighbours' indices (kNoSlot ends it). */
    struct Entry
    {
        bool valid = false;
        Iova page = 0;
        mem::Pa paPage = 0;
        std::uint32_t perm = 0;
        std::uint32_t older = 0, newer = 0;
    };
    /** Index value of one cached page: its lowest valid slot, and how
     *  many valid slots hold it. */
    struct PageSlots
    {
        std::uint32_t lowest;
        std::uint32_t count;
    };
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    void insert(Iova page, mem::Pa paPage, std::uint32_t perm);
    void drop(std::uint32_t slot); //!< invalidate one valid slot
    void dropAll();
    void lruUnlink(const Entry &e);
    void lruAppend(std::uint32_t slot); //!< @p slot becomes the newest

    sim::Context &ctx_;
    Iommu &mmu_;
    DomainId domain_;
    std::vector<Entry> atc_;
    sim::FlatMap<PageSlots> index_;   //!< keyed by page tag
    std::vector<std::uint64_t> free_; //!< bit set = slot invalid
    std::uint32_t lruOldest_ = kNoSlot, lruNewest_ = kNoSlot;
    std::size_t live_ = 0; //!< valid entries in atc_
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t fills_ = 0;
    unsigned debugDropRemaining_ = 0;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_ATS_HH
