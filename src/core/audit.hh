/**
 * @file
 * Map/unmap ledger and teardown invariant checker.
 *
 * The auditor observes every successful I/O page-table mutation via
 * Iommu::onMapChange() and keeps its own per-domain ledger of live
 * mappings.  At teardown it cross-checks three independent sources of
 * truth — the ledger, the page table, and the IOTLB — plus the
 * allocators' IOVA accounting, and reports every violated invariant:
 *
 *   1. zero live mappings     (ledger empty, page table empty, agree)
 *   2. zero stale IOTLB state (no valid entries for the domain; no
 *                              entry anywhere translating a torn-down
 *                              page)
 *   3. zero leaked IOVAs      (allocators report nothing outstanding)
 *   4. nothing force-cleared  (detachDomain() found an empty table)
 *
 * A clean report means the drain ordering — rings, then caches, then
 * page table, then IOTLB — ran to completion; any violation pinpoints
 * the layer that leaked.
 */

#ifndef DAMN_CORE_AUDIT_HH
#define DAMN_CORE_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "iommu/iommu.hh"
#include "sim/flat_map.hh"

namespace damn::audit {

/** Outcome of verifyTeardown(): empty violations == clean. */
struct TeardownReport
{
    iommu::DomainId domain = 0;
    std::uint64_t ledgerPages = 0;   //!< live mappings per the ledger
    std::uint64_t tablePages = 0;    //!< live mappings per the page table
    std::uint64_t tlbEntries = 0;    //!< valid IOTLB entries surviving
    std::uint64_t staleTlbEntries = 0; //!< TLB entries the table disowns
    std::uint64_t leakedIovas = 0;   //!< allocator-reported outstanding
    std::uint64_t forceCleared = 0;  //!< pages detachDomain() had to drop
    std::vector<std::string> violations;

    bool clean() const { return violations.empty(); }
};

/**
 * The ledger.  Construct it against an Iommu *before* the workload
 * maps anything — it installs the map observer (there is one slot;
 * constructing a second Auditor steals it) — and destroy it before the
 * Iommu: its destructor detaches it if it still holds the slot.
 */
class Auditor final : public iommu::MapObserver
{
  public:
    explicit Auditor(iommu::Iommu &mmu);
    ~Auditor();

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    /** Live 4 KiB-equivalent pages the ledger holds for @p d (O(1):
     *  a running count, not a walk of the ledger). */
    std::uint64_t ledgerPages(iommu::DomainId d) const;

    /** Total Map events seen (lifetime). */
    std::uint64_t mapEvents() const { return mapEvents_; }
    /** Total Unmap events seen (lifetime). */
    std::uint64_t unmapEvents() const { return unmapEvents_; }

    /**
     * Run the full invariant battery for a domain that should now be
     * completely torn down.
     *
     * @param outstanding_iovas  allocator-side leak count (DAMN slots
     *                           plus the scheme's DMA-API IOVAs).
     * @param force_cleared      return value of Iommu::detachDomain().
     */
    TeardownReport verifyTeardown(iommu::DomainId d,
                                  std::uint64_t outstanding_iovas,
                                  std::uint64_t force_cleared) const;

    /**
     * The map observer the constructor installs.  A Map replaces any
     * entry at @p iova, an Unmap of an IOVA the ledger lacks is
     * ignored, DetachClear empties @p d, and a domain id beyond the
     * ledger grows it.  Public so tests can replay raw event streams.
     */
    void onEvent(iommu::MapEvent ev, iommu::DomainId d, iommu::Iova iova,
                 unsigned pages) override;

  private:
    iommu::Iommu &mmu_;
    /** Per-domain: iova page -> pages mapped there (1 or 512).  Only
     *  point lookups and clear() touch it, never an ordered walk, so
     *  a flat hash map serves without a heap node per mapping. */
    std::vector<sim::FlatMap<unsigned>> ledger_;
    /** Per-domain running sum of ledger_[d]'s values, kept by onEvent. */
    std::vector<std::uint64_t> ledgerPages_;
    std::uint64_t mapEvents_ = 0;
    std::uint64_t unmapEvents_ = 0;
};

} // namespace damn::audit

#endif // DAMN_CORE_AUDIT_HH
