/**
 * @file
 * IOMMU facade: domains, translation, fault reporting, statistics.
 *
 * The facade is backend-neutral: per-device protection domains with
 * their own I/O page tables, device-side translation through the
 * backend's IOTLB, and a driver-side bounded fault log with quarantine
 * semantics.  Everything hardware-specific — invalidation machinery
 * and its contention model, TLB/walk-cache geometry, device-routing
 * structures, the hardware fault-reporting ring — lives behind the
 * iommu::IommuBackend interface (backend.hh); see backend_vtd.hh for
 * the Intel VT-d model the paper measured and backend_smmu.hh for the
 * ARM SMMUv3 model.
 *
 * Faults are *reported*, not just counted: blocked DMAs append a
 * FaultRecord (domain, IOVA, direction, reason, timestamp) to a
 * bounded log with overflow-as-a-count semantics, are delivered to the
 * backend's hardware-side reporting structure, drive an optional
 * callback, and — past a configurable per-domain threshold —
 * quarantine the offending device until it is reset.  This is the
 * substrate the recovery paths and the attack-attribution tests build
 * on.
 */

#ifndef DAMN_IOMMU_IOMMU_HH
#define DAMN_IOMMU_IOMMU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "iommu/backend.hh"
#include "iommu/io_pgtable.hh"
#include "iommu/iotlb.hh"
#include "sim/context.hh"

namespace damn::iommu {

/** Outcome of a device-side address translation. */
struct TranslateResult
{
    bool ok = false;          //!< translation succeeded with permission
    bool fault = false;       //!< blocked (missing mapping or perms)
    mem::Pa pa = 0;
    sim::TimeNs latencyNs = 0; //!< device-visible latency (walks)
};

/** What a MapObserver is being told about. */
enum class MapEvent : std::uint8_t
{
    Map,         //!< @p pages mappings were installed at @p iova
    Unmap,       //!< @p pages mappings at @p iova were removed
    DetachClear, //!< detachDomain() dropped the domain's whole table
};

/**
 * Observer of page-table mutations (the audit ledger hook; see
 * damn::audit::Auditor, its one implementation).  One virtual call per
 * event.
 */
class MapObserver
{
  public:
    virtual void onEvent(MapEvent ev, DomainId d, Iova iova,
                         unsigned pages) = 0;

  protected:
    ~MapObserver() = default;
};

/**
 * The IOMMU: owns domains, the hardware backend (which owns the IOTLB
 * and invalidation machinery) and the fault log; performs device-side
 * translations and tracks mapping statistics (pages *ever* vs
 * *currently* mapped — figure 9).
 */
class Iommu
{
  public:
    /** Default fault-log capacity (hardware exposes a small reporting
     *  structure; we model a driver-side bounded ring). */
    static constexpr std::size_t kDefaultFaultLogCapacity = 256;

    /**
     * @param enabled  when false, translate() is an identity map
     *                 (the paper's iommu-off baseline).
     * @param kind     hardware model backing this IOMMU.
     */
    Iommu(sim::Context &ctx, bool enabled = true,
          BackendKind kind = BackendKind::Vtd)
        : ctx_(ctx), enabled_(enabled), backend_(makeBackend(kind, ctx))
    {}

    Iommu(const Iommu &) = delete;
    Iommu &operator=(const Iommu &) = delete;

    bool enabled() const { return enabled_; }

    /** The hardware model (invalidation entry points live here). */
    IommuBackend &backend() { return *backend_; }
    const IommuBackend &backend() const { return *backend_; }
    BackendKind backendKind() const { return backend_->kind(); }

    /** Create a protection domain (one per attached device). */
    DomainId
    createDomain()
    {
        domains_.push_back(std::make_unique<IoPageTable>());
        domainFaults_.push_back(0);
        quarantined_.push_back(false);
        detached_.push_back(false);
        const auto d = DomainId(domains_.size() - 1);
        backend_->attachDevice(d);
        return d;
    }

    unsigned numDomains() const { return unsigned(domains_.size()); }

    IoPageTable &
    pageTable(DomainId d)
    {
        return *domains_.at(d);
    }

    /** Map a 4 KiB page and update ever/current statistics. */
    bool
    mapPage(DomainId d, Iova iova, mem::Pa pa, std::uint32_t perm)
    {
        const bool ok = pageTable(d).map(iova, pa, perm);
        if (ok) {
            noteMapped(pa, 1);
            notifyObserver(MapEvent::Map, d, iova, 1);
        }
        return ok;
    }

    /** Remove a 4 KiB mapping (page-table only; IOTLB may stay stale). */
    bool
    unmapPage(DomainId d, Iova iova)
    {
        const bool ok = pageTable(d).unmap(iova);
        if (ok)
            notifyObserver(MapEvent::Unmap, d, iova, 1);
        return ok;
    }

    /** Map a 2 MiB block. */
    bool
    mapHuge(DomainId d, Iova iova, mem::Pa pa, std::uint32_t perm)
    {
        const bool ok = pageTable(d).mapHuge(iova, pa, perm);
        if (ok) {
            noteMapped(pa, 512);
            notifyObserver(MapEvent::Map, d, iova, 512);
        }
        return ok;
    }

    /**
     * Translate a device access.  IOTLB hit, or charged page walk +
     * fill; faults when no valid mapping grants the access, when the
     * domain is quarantined, or when the injector forces a fault.
     */
    TranslateResult translate(DomainId d, Iova iova, bool is_write);

    /** The backend's IOTLB (shorthand for backend().tlb()). */
    Iotlb &iotlb() { return backend_->tlb(); }

    /** Distinct frames that were ever DMA-mapped (figure 9). */
    std::uint64_t everMappedFrames() const { return everMappedCount_; }
    /** Frames currently mapped across all domains. */
    std::uint64_t
    currentlyMappedPages() const
    {
        std::uint64_t t = 0;
        for (const auto &d : domains_)
            t += d->mappedPages();
        return t;
    }

    // ---- Fault reporting -------------------------------------------

    std::uint64_t faults() const { return faults_; }

    /** Faults charged to @p d (including while quarantined). */
    std::uint64_t
    domainFaults(DomainId d) const
    {
        return domainFaults_.at(d);
    }

    /** The bounded fault log, oldest first. */
    const std::vector<FaultRecord> &faultLog() const { return faultLog_; }

    /** Records dropped because the log was full (hardware raises an
     *  overflow flag; we keep a count). */
    std::uint64_t faultLogOverflows() const { return faultLogOverflows_; }

    void clearFaultLog() { faultLog_.clear(); faultLogOverflows_ = 0; }

    /** Resize the log; an over-capacity log keeps its oldest entries. */
    void
    setFaultLogCapacity(std::size_t cap)
    {
        faultLogCap_ = cap;
        if (faultLog_.size() > cap)
            faultLog_.resize(cap);
    }

    // ---- Quarantine ------------------------------------------------

    /**
     * Quarantine a domain once its fault count reaches @p n (0, the
     * default, disables quarantining).  A quarantined domain faults on
     * *every* DMA until resetDomain() — graceful degradation instead of
     * letting a misbehaving device hammer the fabric.
     */
    void setQuarantineThreshold(std::uint64_t n) { quarantineThreshold_ = n; }
    std::uint64_t quarantineThreshold() const { return quarantineThreshold_; }

    bool quarantined(DomainId d) const { return quarantined_.at(d); }

    /**
     * Device reset (FLR): lift quarantine, zero the domain's fault
     * count, and flush its IOTLB entries.  Mappings survive — the
     * driver decides what to re-post.
     */
    void
    resetDomain(DomainId d)
    {
        quarantined_.at(d) = false;
        domainFaults_.at(d) = 0;
        backend_->tlb().invalidateDomain(d);
    }

    // ---- Device lifecycle ------------------------------------------

    /** Install the page-table-mutation observer (nullptr detaches);
     *  an observer detaches itself before it is destroyed. */
    void onMapChange(MapObserver *obs) { mapObserver_ = obs; }

    /** The installed observer, or nullptr. */
    const MapObserver *mapObserver() const { return mapObserver_; }

    bool detached(DomainId d) const { return detached_.at(d); }

    /**
     * Tear down a detached/unplugged device's domain: drop its whole
     * I/O page table, its backend routing config, and its IOTLB
     * entries (direct hardware flush — teardown invalidation is
     * modeled as guaranteed, not injectable), and fault every later
     * DMA with FaultReason::Detached.
     *
     * Drivers are expected to have unmapped everything *before* this;
     * the return value counts the 4 KiB-equivalent pages the teardown
     * had to force-clear — 0 when the drain above was complete, and
     * anything else is a leak the audit layer flags.
     */
    std::uint64_t
    detachDomain(DomainId d)
    {
        const std::uint64_t leaked = domains_.at(d)->mappedPages();
        domains_.at(d) = std::make_unique<IoPageTable>();
        backend_->tlb().invalidateDomain(d);
        backend_->detachDevice(d);
        detached_.at(d) = true;
        notifyObserver(MapEvent::DetachClear, d, 0, 0);
        return leaked;
    }

    /**
     * Re-attach after a replug: fresh (empty) domain state, fault
     * count zeroed, quarantine lifted, routing config re-installed.
     * The page table is whatever detachDomain() left — empty.
     */
    void
    attachDomain(DomainId d)
    {
        detached_.at(d) = false;
        quarantined_.at(d) = false;
        domainFaults_.at(d) = 0;
        backend_->attachDevice(d);
    }

  private:
    void
    noteMapped(mem::Pa pa, unsigned pages)
    {
        const mem::Pfn pfn = mem::paToPfn(pa);
        if (pfn + pages > everMapped_.size())
            everMapped_.resize(pfn + pages);
        for (mem::Pfn f = pfn; f < pfn + pages; ++f) {
            everMappedCount_ += !everMapped_[f];
            everMapped_[f] = true;
        }
    }

    void
    notifyObserver(MapEvent ev, DomainId d, Iova iova, unsigned pages)
    {
        if (mapObserver_ != nullptr)
            mapObserver_->onEvent(ev, d, iova, pages);
    }

    void recordFault(DomainId d, Iova iova, bool is_write,
                     FaultReason reason);

    sim::Context &ctx_;
    bool enabled_;
    std::unique_ptr<IommuBackend> backend_;
    std::vector<std::unique_ptr<IoPageTable>> domains_;
    /** Bit f is set once frame f has been mapped; grows only when a
     *  higher frame is mapped for the first time. */
    std::vector<bool> everMapped_;
    std::uint64_t everMappedCount_ = 0;

    std::uint64_t faults_ = 0;
    std::vector<std::uint64_t> domainFaults_;
    std::vector<bool> quarantined_;
    std::vector<bool> detached_;
    MapObserver *mapObserver_ = nullptr;
    std::uint64_t quarantineThreshold_ = 0;
    std::size_t faultLogCap_ = kDefaultFaultLogCapacity;
    std::vector<FaultRecord> faultLog_;
    std::uint64_t faultLogOverflows_ = 0;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_IOMMU_HH
