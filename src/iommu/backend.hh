/**
 * @file
 * The IOMMU backend concept: everything that differs between IOMMU
 * *hardware families* lives behind this interface, so the generic
 * facade (iommu.hh), the protection schemes (dma/schemes.hh) and the
 * DAMN allocator (core/) are written once and run unchanged on every
 * modeled implementation.
 *
 * A backend owns:
 *
 *  - the IOTLB (geometry differs per implementation — see TlbGeometry),
 *  - the page-walk latency model (walk caches, descriptor fetches),
 *  - the invalidation machinery (VT-d's invalidation queue vs the
 *    SMMUv3 command queue) with its per-op cost and contention model,
 *  - the device attach/detach hooks (VT-d context entries vs SMMUv3
 *    stream-table entries),
 *  - the hardware-side fault reporting structure (VT-d fault recording
 *    registers vs the SMMUv3 event queue).
 *
 * Both models implement 48-bit input addresses, so the IOVA layout
 * (iommu/iova_alloc.hh, core/iova_encoding.hh) is not a backend
 * property.
 *
 * Concrete models: backend_vtd.hh (Intel VT-d, the paper's testbed)
 * and backend_smmu.hh (ARM SMMUv3).
 */

#ifndef DAMN_IOMMU_BACKEND_HH
#define DAMN_IOMMU_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iommu/iotlb.hh"
#include "sim/context.hh"

namespace damn::iommu {

/** Which hardware model backs the IOMMU facade. */
enum class BackendKind : std::uint8_t
{
    Vtd,    //!< Intel VT-d (the paper's testbed)
    SmmuV3, //!< ARM SMMUv3
};

const char *backendKindName(BackendKind k);

class AtsAgent;

/** Parse a --backend= token; returns false on an unknown name. */
bool backendFromName(const std::string &name, BackendKind *out);

/** Why a DMA was blocked. */
enum class FaultReason : std::uint8_t
{
    NotPresent,  //!< no mapping covers the IOVA
    Permission,  //!< mapping exists but lacks the access right
    Quarantined, //!< the domain is quarantined after repeated faults
    Injected,    //!< forced by the fault injector (transient HW fault)
    Detached,    //!< the domain was detached (device torn down)
};

/** One entry of the IOMMU fault log (a fault recording register on
 *  VT-d, an event-queue record on SMMUv3). */
struct FaultRecord
{
    DomainId domain = 0;
    Iova iova = 0;
    bool isWrite = false;
    FaultReason reason = FaultReason::NotPresent;
    sim::TimeNs time = 0;
};

/** IOTLB dimensions of a backend (see Iotlb's constructor). */
struct TlbGeometry
{
    unsigned sets4k = 256;
    unsigned ways4k = 4;
    unsigned sets2m = 32;
    unsigned ways2m = 4;
    unsigned pwcEntries = 32;
};

/**
 * Abstract IOMMU hardware model.  The generic Iommu facade delegates
 * every hardware-specific operation here; all methods charge their
 * costs through the owning sim::Context.
 *
 * Invalidation-ordering contract (what the schemes rely on):
 *
 *  - the flush entry points return the *completion* time; when they
 *    return, the invalidated translations are gone from tlb() unless
 *    an injected `iommu.inval` fault dropped the operation (time
 *    spent, stale entries survive — the recovery tests poke exactly
 *    this hole).  syncInvalidate, batchedFlush and batchedFlushAll
 *    are droppable on both backends; syncInvalidateRanges is
 *    droppable on SMMUv3 (its CMD_SYNC consults the injector) but
 *    never on VT-d, which does not consult it there;
 *  - an entry stays visible (stale) until a flush covering it
 *    completes — this models the deferred-mode vulnerability window
 *    on every backend;
 *  - calls serialize on backend-defined producer locks, which is where
 *    the backends price contention differently (VT-d holds its global
 *    queue lock for the whole hardware round trip; SMMUv3 holds the
 *    command-queue lock only while producing commands).
 *
 * ATS extension of the contract: a device-side TLB (AtsAgent's ATC)
 * caches translations *outside* the IOMMU, so the flush entry points
 * above do NOT touch it.  An ATC entry is certainly gone only once an
 * atsInvalidate()/atsInvalidateAll() covering it has completed — and
 * those verbs ride the same invalidation machinery, including the
 * injectable `iommu.inval` drop hole (VT-d: the device-TLB
 * invalidation descriptor is dropped; SMMUv3: the CMD_ATC_INV is
 * pending until the covering CMD_SYNC, and an injected fault drops
 * the whole batch).
 */
class IommuBackend
{
  public:
    /** One range of a scatter-gather invalidation. */
    struct InvalRange
    {
        DomainId domain;
        Iova iova;
        std::uint64_t len;
    };

    IommuBackend(sim::Context &ctx, const TlbGeometry &g)
        : ctx_(ctx), tlb_(g.sets4k, g.ways4k, g.sets2m, g.ways2m,
                          g.pwcEntries)
    {}

    virtual ~IommuBackend() = default;
    IommuBackend(const IommuBackend &) = delete;
    IommuBackend &operator=(const IommuBackend &) = delete;

    virtual BackendKind kind() const = 0;
    const char *name() const { return backendKindName(kind()); }

    // ---- Device lifecycle ------------------------------------------

    /** A domain was created or re-attached: install the hardware
     *  config that routes the device to its page table (a VT-d context
     *  entry, an SMMUv3 STE + CD). */
    virtual void attachDevice(DomainId d) = 0;

    /** The domain is being torn down: drop the routing config.  Like
     *  the facade's teardown IOTLB flush this is modeled as guaranteed
     *  (not injectable). */
    virtual void detachDevice(DomainId d) = 0;

    // ---- Translation -----------------------------------------------

    /**
     * Device-visible latency of translating @p iova after a tlb() miss
     * (walk caches and descriptor fetches are looked up *and filled*
     * here, so call it exactly once per miss).
     */
    virtual sim::TimeNs walkLatency(DomainId d, Iova iova) = 0;

    // ---- Invalidation ----------------------------------------------

    /**
     * Synchronously invalidate one IOVA range (the strict scheme's
     * per-unmap flush).
     * @return completion time.
     */
    virtual sim::TimeNs syncInvalidate(sim::Core &core, sim::TimeNs now,
                                       DomainId domain, Iova iova,
                                       std::uint64_t len) = 0;

    /**
     * Synchronously invalidate a scatter-gather list of ranges with
     * one completion wait (dma_unmap_sg under the strict scheme).
     * @return completion time.
     */
    virtual sim::TimeNs
    syncInvalidateRanges(sim::Core &core, sim::TimeNs now,
                         const std::vector<InvalRange> &ranges) = 0;

    /**
     * One batched flush covering many deferred unmaps, scoped to
     * @p domains so one device's flush cannot evict every other
     * domain's warm entries.
     * @return completion time.
     */
    virtual sim::TimeNs
    batchedFlush(sim::Core &core, sim::TimeNs now,
                 const std::vector<DomainId> &domains) = 0;

    /**
     * Global flush.  Used when the released mappings span every domain
     * at once — e.g. the DAMN shrinker returning chunks from all
     * device caches — where one global command beats per-domain ones.
     * @return completion time.
     */
    virtual sim::TimeNs batchedFlushAll(sim::Core &core,
                                        sim::TimeNs now) = 0;

    // ---- ATS / PRI (page-faultable DMA) ----------------------------

    /** One PCIe page request (PRI): a device asking the OS to make an
     *  address translatable so a stalled/faulted DMA can resume. */
    struct PageRequest
    {
        DomainId domain = 0;
        Iova iova = 0;
        bool isWrite = false;
        std::uint32_t group = 0;  //!< page-request-group / stall tag
        sim::TimeNs time = 0;     //!< when the device posted it
    };

    /**
     * A device posts a page request.  Bounded queue: when the ring is
     * full the hardware auto-responds failure (the device must back
     * off and retry) and this returns false.  VT-d models the PRQ
     * ring + PRSR status bits; SMMUv3 models the stalled-transaction
     * table whose overflow terminates the transaction.
     */
    virtual bool postPageRequest(const PageRequest &req) = 0;

    /** OS-side consumption: drain every queued request (and clear any
     *  overflow condition so new requests can be accepted again).  The
     *  result stays valid until the next fetch, so a caller may post
     *  while it walks the result but must not fetch. */
    virtual const std::vector<PageRequest> &fetchPageRequests() = 0;

    /**
     * OS responds to a fetched request: VT-d produces a
     * page_group_response descriptor into the invalidation queue;
     * SMMUv3 produces a CMD_RESUME into the command queue.
     * @return completion time (when the device may retry).
     */
    virtual sim::TimeNs respondPageRequest(sim::Core &core,
                                           sim::TimeNs now,
                                           const PageRequest &req,
                                           bool success) = 0;

    /**
     * Invalidate @p agent's device TLB for one IOVA range (VT-d
     * device-TLB invalidation descriptor; SMMUv3 CMD_ATC_INV +
     * CMD_SYNC).  Subject to the injectable `iommu.inval` drop.
     * @return completion time.
     */
    virtual sim::TimeNs atsInvalidate(sim::Core &core, sim::TimeNs now,
                                      AtsAgent &agent, DomainId domain,
                                      Iova iova, std::uint64_t len) = 0;

    /** Invalidate @p agent's whole device TLB (global CMD_ATC_INV /
     *  device-TLB global invalidation descriptor). */
    virtual sim::TimeNs atsInvalidateAll(sim::Core &core,
                                         sim::TimeNs now,
                                         AtsAgent &agent,
                                         DomainId domain) = 0;

    // PRI accounting shared by both models (the conservation law the
    // fuzzer's pri-conservation oracle checks):
    //   posted == autoResponses + pending + fetched,
    //   responded <= fetched.
    std::size_t pendingPageRequests() const { return prq_.size(); }
    std::uint64_t
    pageRequestsPosted() const
    {
        return ctx_.stats.get(sim::Ctr::PriRequests);
    }
    std::uint64_t pageRequestsFetched() const { return priFetched_; }
    std::uint64_t
    pageRequestsResponded() const
    {
        return ctx_.stats.get(sim::Ctr::PriResponses);
    }
    std::uint64_t
    pageRequestAutoResponses() const
    {
        return ctx_.stats.get(sim::Ctr::PriAutoResponses);
    }
    /** High-water mark of the request queue over the run. */
    std::size_t pageRequestMaxDepth() const { return priMaxDepth_; }

    // ---- Fault delivery --------------------------------------------

    /**
     * A translation faulted: record it in the backend's hardware-side
     * reporting structure.  The facade keeps the driver-side bounded
     * log and the quarantine logic; backends only model how the
     * hardware surfaces the event (VT-d: fault recording registers,
     * already covered by the facade log, so a no-op; SMMUv3: the
     * bounded event queue with overflow accounting).
     */
    virtual void deliverFault(const FaultRecord &) {}

    /** The backend's IOTLB (geometry chosen by the implementation). */
    Iotlb &tlb() { return tlb_; }
    const Iotlb &tlb() const { return tlb_; }

  protected:
    /** Bounded-queue accept half of postPageRequest(): counts the
     *  post, auto-responds failure when @p depth is reached. */
    bool
    priAccept(const PageRequest &req, std::size_t depth)
    {
        ctx_.stats.add(sim::Ctr::PriRequests);
        if (prq_.size() >= depth) {
            ctx_.stats.add(sim::Ctr::PriAutoResponses);
            return false;
        }
        prq_.push_back(req);
        if (prq_.size() > priMaxDepth_)
            priMaxDepth_ = prq_.size();
        return true;
    }

    /** Drain half of fetchPageRequests(): copies the queue into the
     *  fetch buffer, so both keep their capacity. */
    const std::vector<PageRequest> &
    priDrain()
    {
        priFetched_ += prq_.size();
        fetched_.assign(prq_.begin(), prq_.end());
        prq_.clear();
        return fetched_;
    }

    /** Response accounting for respondPageRequest(). */
    void
    priNoteResponse()
    {
        ctx_.stats.add(sim::Ctr::PriResponses);
    }

    sim::Context &ctx_;
    Iotlb tlb_;

  private:
    std::vector<PageRequest> prq_;
    std::vector<PageRequest> fetched_; //!< the last fetch's requests
    std::uint64_t priFetched_ = 0;
    std::size_t priMaxDepth_ = 0;
};

/** Construct a backend model. */
std::unique_ptr<IommuBackend> makeBackend(BackendKind kind,
                                          sim::Context &ctx);

} // namespace damn::iommu

#endif // DAMN_IOMMU_BACKEND_HH
