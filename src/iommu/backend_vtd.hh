/**
 * @file
 * Intel VT-d backend: the hardware model the paper measured (sections
 * 4.1, 6.1), re-expressed behind the IommuBackend interface with
 * behavior byte-identical to the original hard-wired implementation.
 *
 * VT-d specifics modeled here:
 *
 *  - a single invalidation queue whose submission lock is global and —
 *    in strict mode — held for the full invalidate + wait round trip;
 *    this is the contention point that cripples the *strict* scheme;
 *  - a radix-walked IOTLB with VT-d-class geometry (1024 4 KiB + 128
 *    2 MiB entries) and a 32-entry page-walk cache;
 *  - context-entry routing that is free to install/drop: VT-d's
 *    root/context tables are in-memory structures the CPU writes
 *    directly, so attach/detach charge nothing;
 *  - fault reporting through the fault recording registers, which the
 *    facade's bounded log already models — deliverFault is a no-op;
 *  - the page-request queue (PRI): a bounded in-memory ring the
 *    hardware appends page requests to, exposed through the PRQH/PRQT
 *    head/tail registers and the PRS status register's pending +
 *    overflow bits (the register map the twizzler driver programs).
 *    Overflow auto-responds failure; responses and device-TLB
 *    invalidations are descriptors in the same invalidation queue.
 */

#ifndef DAMN_IOMMU_BACKEND_VTD_HH
#define DAMN_IOMMU_BACKEND_VTD_HH

#include "iommu/ats.hh"
#include "iommu/backend.hh"
#include "sim/sim_mutex.hh"

namespace damn::iommu {

/**
 * Intel VT-d hardware model.  Every invalidation-queue descriptor
 * (IOTLB, device-TLB, page-group response) serializes on one global
 * lock, and strict-mode callers hold it for the full invalidate +
 * wait round trip.
 */
class VtdBackend : public IommuBackend
{
  public:
    /** VT-d-class IOTLB: 1024 4 KiB entries, 128 2 MiB entries, and a
     *  32-entry page-walk cache. */
    static constexpr TlbGeometry kGeometry{256, 4, 32, 4, 32};

    explicit VtdBackend(sim::Context &ctx)
        : IommuBackend(ctx, kGeometry)
    {}

    BackendKind kind() const override { return BackendKind::Vtd; }

    // Context entries live in cacheable system memory and are written
    // directly by the CPU — install/drop is free at this resolution.
    void attachDevice(DomainId) override {}
    void detachDevice(DomainId) override {}

    sim::TimeNs
    walkLatency(DomainId d, Iova iova) override
    {
        return tlb_.walkCached(d, iova) ? ctx_.cost.iotlbWalkPwcNs
                                        : ctx_.cost.iotlbWalkNs;
    }

    /** Strict mode: acquire the queue lock, submit, wait for
     *  completion, release; the caller's core burns the spin + wait. */
    sim::TimeNs
    syncInvalidate(sim::Core &core, sim::TimeNs now, DomainId domain,
                   Iova iova, std::uint64_t len) override
    {
        const sim::TimeNs done = lock_.acquireAndHold(
            core, now, ctx_.cost.strictInvalidateNs,
            ctx_.cost.strictSpinBusyFraction, ctx_.engine.now());
        if (dropped())
            return done;
        tlb_.invalidateRange(domain, iova, len);
        ctx_.tracer.instant(core.id(), sim::TraceCat::Iotlb,
                            "iotlb.invalidate_range", done, 0, len);
        return done;
    }

    sim::TimeNs
    syncInvalidateRanges(sim::Core &core, sim::TimeNs now,
                         const std::vector<InvalRange> &ranges) override
    {
        // One invalidate + wait round trip covers the whole list (how
        // dma_unmap_sg prices on VT-d); the per-range hardware
        // invalidations ride along for free.  Never dropped: see the
        // IommuBackend contract.
        const sim::TimeNs done = lock_.acquireAndHold(
            core, now, ctx_.cost.strictInvalidateNs,
            ctx_.cost.strictSpinBusyFraction, ctx_.engine.now());
        for (const InvalRange &r : ranges)
            tlb_.invalidateRange(r.domain, r.iova, r.len);
        return done;
    }

    /** One lock acquisition and one (larger) hardware operation for
     *  many deferred unmaps, scoped to their domains. */
    sim::TimeNs
    batchedFlush(sim::Core &core, sim::TimeNs now,
                 const std::vector<DomainId> &domains) override
    {
        const sim::TimeNs done =
            lock_.acquireAndHold(core, now, ctx_.cost.deferredFlushNs,
                                 1.0, ctx_.engine.now());
        if (dropped())
            return done;
        for (const DomainId d : domains)
            tlb_.invalidateDomain(d);
        ctx_.tracer.instant(core.id(), sim::TraceCat::Iotlb,
                            "iotlb.invalidate_domains", done, 0,
                            domains.size());
        return done;
    }

    /** VT-d global IOTLB invalidation. */
    sim::TimeNs
    batchedFlushAll(sim::Core &core, sim::TimeNs now) override
    {
        const sim::TimeNs done =
            lock_.acquireAndHold(core, now, ctx_.cost.deferredFlushNs,
                                 1.0, ctx_.engine.now());
        if (dropped())
            return done;
        tlb_.invalidateAll();
        ctx_.tracer.instant(core.id(), sim::TraceCat::Iotlb,
                            "iotlb.invalidate_all", done);
        return done;
    }

    // ---- ATS / PRI -------------------------------------------------

    bool
    postPageRequest(const PageRequest &req) override
    {
        if (!priAccept(req, ctx_.cost.vtdPrqDepth)) {
            // PRS overflow bit: sticky until the driver drains and
            // clears it; the hardware auto-responded failure.
            prsOverflow_ = true;
            ctx_.stats.add(sim::Ctr::VtdPrqAutoResponses);
            return false;
        }
        ++prqTail_;
        ctx_.stats.add(sim::Ctr::VtdPrqPosts);
        return true;
    }

    const std::vector<PageRequest> &
    fetchPageRequests() override
    {
        // The driver advances PRQH to PRQT and clears PRS.PRO.
        prqHead_ = prqTail_;
        prsOverflow_ = false;
        return priDrain();
    }

    /** Page_group_response descriptor through the invalidation queue. */
    sim::TimeNs
    respondPageRequest(sim::Core &core, sim::TimeNs now,
                       const PageRequest &req, bool success) override
    {
        (void)req;
        (void)success;
        const sim::TimeNs done = lock_.acquireAndHold(
            core, now, ctx_.cost.priResponseNs, 1.0, ctx_.engine.now());
        priNoteResponse();
        ctx_.stats.add(sim::Ctr::VtdPrqResponses);
        return done;
    }

    /**
     * Device-TLB invalidation descriptor + invalidation-wait round
     * trip under the queue lock.  The same injectable hole as the
     * IOTLB descriptors: an `iommu.inval` fault spends the time but
     * leaves the ATC stale.
     */
    sim::TimeNs
    atsInvalidate(sim::Core &core, sim::TimeNs now, AtsAgent &agent,
                  DomainId domain, Iova iova, std::uint64_t len) override
    {
        (void)domain;
        const sim::TimeNs done = lock_.acquireAndHold(
            core, now, ctx_.cost.atsInvalidateNs,
            ctx_.cost.strictSpinBusyFraction, ctx_.engine.now());
        if (dropped())
            return done;
        agent.invalidateRange(iova, len);
        ctx_.stats.add(sim::Ctr::VtdDevtlbInvals);
        return done;
    }

    sim::TimeNs
    atsInvalidateAll(sim::Core &core, sim::TimeNs now, AtsAgent &agent,
                     DomainId domain) override
    {
        (void)domain;
        const sim::TimeNs done = lock_.acquireAndHold(
            core, now, ctx_.cost.atsInvalidateNs,
            ctx_.cost.strictSpinBusyFraction, ctx_.engine.now());
        if (dropped())
            return done;
        agent.invalidateAll();
        ctx_.stats.add(sim::Ctr::VtdDevtlbInvals);
        return done;
    }

    // PRQ register view (conformance tests read these): monotone
    // head/tail counters instead of wrapped ring offsets.
    std::uint64_t prqHead() const { return prqHead_; }
    std::uint64_t prqTail() const { return prqTail_; }
    /** PRS pending bit: unfetched requests exist. */
    bool prsPending() const { return prqHead_ != prqTail_; }
    /** PRS overflow bit: a request was auto-responded since the last
     *  drain. */
    bool prsOverflow() const { return prsOverflow_; }

  private:
    /** An injected `iommu.inval` fault drops the descriptor: the time
     *  is spent but the stale entries survive. */
    bool
    dropped()
    {
        if (!ctx_.faults.shouldFail(sim::FaultSite::IommuInval))
            return false;
        ctx_.stats.add(sim::Ctr::IommuInvalDropped);
        return true;
    }

    sim::SimMutex lock_; //!< the global invalidation-queue lock
    std::uint64_t prqHead_ = 0;
    std::uint64_t prqTail_ = 0;
    bool prsOverflow_ = false;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_BACKEND_VTD_HH
