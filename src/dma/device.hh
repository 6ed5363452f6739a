/**
 * @file
 * DMA-capable device base.
 *
 * A Device owns an IOMMU protection domain and can issue DMAs at any
 * virtual time — including *malicious* ones targeting arbitrary IOVAs,
 * which is exactly the paper's attack model (section 2.1): the attacker
 * controls the device but not the OS or the IOMMU configuration.
 */

#ifndef DAMN_DMA_DEVICE_HH
#define DAMN_DMA_DEVICE_HH

#include <cstdint>
#include <string>

#include "iommu/iommu.hh"
#include "mem/phys.hh"
#include "sim/context.hh"

namespace damn::dma {

/** Result of one device-initiated DMA. */
struct DmaOutcome
{
    bool ok = false;            //!< all pages translated with permission
    bool fault = false;         //!< at least one access was blocked
    std::uint64_t bytesDone = 0;//!< bytes transferred before any fault
    sim::TimeNs completes = 0;  //!< time the transfer finishes
    sim::TimeNs walkNs = 0;     //!< IOTLB-miss page-walk stall time
};

/** Result of one ATS-translated (page-faultable) DMA attempt. */
struct AtsDmaOutcome
{
    bool ok = false;             //!< every page translated; all bytes moved
    /** A page failed to translate: recoverable via PRI, not a fault.
     *  faultVa names the first untranslatable page. */
    bool needsFault = false;
    iommu::Iova faultVa = 0;
    std::uint64_t bytesDone = 0; //!< bytes moved before the stall
    sim::TimeNs completes = 0;
    sim::TimeNs walkNs = 0;      //!< translation latency (ATC + walks)
};

/**
 * A DMA-capable device attached behind the IOMMU.
 */
class Device
{
  public:
    Device(sim::Context &ctx, std::string name, iommu::Iommu &mmu,
           mem::PhysicalMemory &pm, sim::NumaId numa = 0)
        : ctx_(ctx), name_(std::move(name)), iommu_(mmu), pm_(pm),
          numa_(numa), domain_(mmu.createDomain())
    {}

    virtual ~Device() = default;
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    const std::string &name() const { return name_; }
    iommu::DomainId domain() const { return domain_; }
    sim::NumaId numa() const { return numa_; }
    iommu::Iommu &mmu() { return iommu_; }

    /**
     * Device writes @p len bytes from @p src into DMA address @p addr
     * at time @p now.  Stops at the first faulting page (the IOMMU
     * blocks at page granularity).  Accounts memory-controller traffic.
     */
    DmaOutcome dmaWrite(sim::TimeNs now, iommu::Iova addr,
                        const void *src, std::uint64_t len);

    /** Device reads @p len bytes from DMA address @p addr into @p dst. */
    DmaOutcome dmaRead(sim::TimeNs now, iommu::Iova addr, void *dst,
                       std::uint64_t len);

    /**
     * Timing/translation-only DMA: identical IOMMU and bandwidth
     * behaviour to dmaWrite/dmaRead but moves no bytes.  Used by
     * throughput benches where payload contents are irrelevant.
     */
    DmaOutcome
    dmaTouch(sim::TimeNs now, iommu::Iova addr, std::uint64_t len,
             bool is_write)
    {
        return dmaAccess(now, addr, nullptr, len, is_write);
    }

    /**
     * DMA with device-side ATS translation through @p ats instead of
     * the IOMMU data path: per-page ATC lookups, stopping at the
     * first page that does not translate (out.needsFault — the PRI
     * retry signal; see dma/faultable.hh for the full
     * fault-and-resume loop).  Unplug/master-abort and memory
     * bandwidth accounting match dmaWrite/dmaRead.
     */
    AtsDmaOutcome dmaAts(iommu::AtsAgent &ats, sim::TimeNs now,
                         iommu::Iova addr, void *buf, std::uint64_t len,
                         bool is_write);

    /** Total faulted DMA attempts by this device. */
    std::uint64_t faultedDmas() const { return faultedDmas_; }

    // ---- Hot-plug lifecycle ----------------------------------------

    /** Whether the device is present on the bus. */
    bool attached() const { return attached_; }

    /**
     * Surprise hot-unplug: the device vanishes mid-operation.  Every
     * later DMA aborts immediately (master-abort on the bus) without
     * touching the IOMMU.  The domain itself is torn down separately
     * via Iommu::detachDomain() once the driver has drained.
     */
    void
    unplug()
    {
        attached_ = false;
        ctx_.stats.add(sim::Ctr::DmaUnplugs);
    }

    /** Re-seat the device after a drain + detach cycle completed. */
    void replug() { attached_ = true; }

  protected:
    DmaOutcome dmaAccess(sim::TimeNs now, iommu::Iova addr, void *buf,
                         std::uint64_t len, bool is_write);

    sim::Context &ctx_;
    std::string name_;
    iommu::Iommu &iommu_;
    mem::PhysicalMemory &pm_;
    sim::NumaId numa_;
    iommu::DomainId domain_;
    std::uint64_t faultedDmas_ = 0;
    bool attached_ = true;

  private:
    /** What walkPages() did; it stopped early iff bytesDone < len. */
    struct PageWalk
    {
        std::uint64_t bytesDone = 0;
        sim::TimeNs walkNs = 0;     //!< summed translation latency
        sim::TimeNs completes = 0;
    };

    /**
     * The surprise-unplug draw every DMA makes, then the bus
     * master-abort of a detached device.
     * @return true when the device is gone (the DMA aborts).
     */
    bool masterAbort();

    /**
     * Move @p len bytes page by page, each page translated by
     * @p translate (an iommu::TranslateResult or AtsAgent::Result
     * producer), stopping at the first page that does not translate;
     * books the moved bytes' memory-controller traffic.
     */
    template <class Translate>
    PageWalk walkPages(sim::TimeNs now, iommu::Iova addr, void *buf,
                       std::uint64_t len, bool is_write,
                       Translate translate);
};

} // namespace damn::dma

#endif // DAMN_DMA_DEVICE_HH
