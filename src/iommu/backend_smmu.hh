/**
 * @file
 * ARM SMMUv3 backend.
 *
 * The second hardware model behind IommuBackend, after the Crete
 * ARMv8 RDMA thesis's description of the SMMU programming model.  The
 * structures that matter for DAMN's cost analysis:
 *
 *  - **Stream table**: each device's StreamID indexes an STE which
 *    points at a Context Descriptor (CD) holding the page-table root.
 *    Attach installs STE + CD; the SMMU caches the CD and pays a
 *    descriptor fetch on the first walk after attach (or after a
 *    CFGI_STE/CFGI_CD config invalidation).
 *
 *  - **Command queue**: *all* invalidation traffic is produced into a
 *    single memory ring (CMD_TLBI_NH_VA / _ASID / _ALL ...) and
 *    consumed asynchronously by the SMMU.  Producers serialize only
 *    while reserving slots and writing commands; completion is
 *    observed by producing a CMD_SYNC and waiting for it to drain.
 *    This is the architectural asymmetry vs VT-d that makes scheme x
 *    backend an interesting axis: VT-d's strict mode holds a global
 *    lock for the full invalidate round trip, while SMMUv3 holds the
 *    cmdq lock only for the (cheap) production and overlaps the
 *    (expensive) consumption with other cores' work.
 *
 *  - **Event queue**: translation faults are delivered as records in a
 *    bounded memory ring; when the ring is full, further records are
 *    dropped and a global overflow flag is raised (modeled as a
 *    counter).  The facade's driver-side FaultRecord log rides on top
 *    unchanged, so quarantine/reset and the lifecycle machinery work
 *    identically on both backends.
 *
 *  - **TLB geometry**: half the 4 KiB reach of the VT-d model and a
 *    smaller walk cache — DAMN's encoded IOVAs, which spread buffers
 *    across many 2 MiB regions, hurt proportionally more here.
 */

#ifndef DAMN_IOMMU_BACKEND_SMMU_HH
#define DAMN_IOMMU_BACKEND_SMMU_HH

#include "iommu/backend.hh"
#include "sim/sim_mutex.hh"

namespace damn::iommu {

/** ARM SMMUv3 hardware model.  SMMUv3 supports up to 52-bit IAS; the
 *  model keeps the common 48-bit configuration so DAMN's IOVA encoding
 *  is directly comparable with VT-d. */
class SmmuV3Backend : public IommuBackend
{
  public:
    /** SMMU-class IOTLB: 512 4 KiB entries, 64 2 MiB entries, and a
     *  16-entry walk cache. */
    static constexpr TlbGeometry kGeometry{128, 4, 16, 4, 16};

    explicit SmmuV3Backend(sim::Context &ctx)
        : IommuBackend(ctx, kGeometry)
    {}

    BackendKind kind() const override { return BackendKind::SmmuV3; }

    void attachDevice(DomainId d) override;
    void detachDevice(DomainId d) override;

    sim::TimeNs walkLatency(DomainId d, Iova iova) override;

    sim::TimeNs syncInvalidate(sim::Core &core, sim::TimeNs now,
                               DomainId domain, Iova iova,
                               std::uint64_t len) override;
    sim::TimeNs
    syncInvalidateRanges(sim::Core &core, sim::TimeNs now,
                         const std::vector<InvalRange> &ranges) override;
    sim::TimeNs batchedFlush(sim::Core &core, sim::TimeNs now,
                             const std::vector<DomainId> &domains) override;
    sim::TimeNs batchedFlushAll(sim::Core &core, sim::TimeNs now) override;

    void deliverFault(const FaultRecord &rec) override;

    // ---- Command-queue primitives (also driven by tests) -----------

    /**
     * Produce a CMD_TLBI_NH_VA (range form) without a CMD_SYNC: the
     * invalidation is *pending* — stale translations stay visible in
     * tlb() until a later sync() applies it.
     * @return time the producer releases the cmdq lock.
     */
    sim::TimeNs submitTlbiRange(sim::Core &core, sim::TimeNs now,
                                DomainId domain, Iova iova,
                                std::uint64_t len);

    /** Produce a CMD_TLBI_NH_ALL (global) without a CMD_SYNC. */
    sim::TimeNs submitTlbiAll(sim::Core &core, sim::TimeNs now);

    /**
     * Produce a CMD_SYNC and wait for it — and therefore every prior
     * command — to be consumed.  The wait happens *outside* the cmdq
     * lock (WFE-style, partially booked as busy time).  On return the
     * pending invalidations have been applied to tlb(), unless an
     * injected `iommu.inval` fault dropped the batch (time spent,
     * stale entries survive — same injectable hole as VT-d).
     * @return completion time.
     */
    sim::TimeNs sync(sim::Core &core, sim::TimeNs now);

    /** Commands produced and not yet covered by a CMD_SYNC. */
    std::size_t pendingCommands() const { return pending_.size(); }

    // ---- ATS / PRI (stall model) -----------------------------------

    /**
     * A faulting transaction stalls: it occupies a slot in the
     * stalled-transaction table until the OS issues CMD_RESUME.  A
     * full table terminates the transaction (the auto-response) — the
     * device must retry from scratch.
     */
    bool postPageRequest(const PageRequest &req) override;

    const std::vector<PageRequest> &fetchPageRequests() override;

    /** CMD_RESUME (retry or terminate) produced into the cmdq; fire
     *  and forget — no CMD_SYNC needed for the device to resume. */
    sim::TimeNs respondPageRequest(sim::Core &core, sim::TimeNs now,
                                   const PageRequest &req,
                                   bool success) override;

    /**
     * Produce a CMD_ATC_INV *without* a CMD_SYNC: like the TLBI
     * commands, the device-TLB invalidation is pending — stale ATC
     * entries stay visible until a later sync() applies it (and an
     * injected `iommu.inval` fault at that sync drops it with the
     * rest of the batch).  This is the ATS-invalidation-vs-CMD_SYNC
     * race the conformance suite pins.
     * @return time the producer releases the cmdq lock.
     */
    sim::TimeNs submitAtcInvRange(sim::Core &core, sim::TimeNs now,
                                  AtsAgent &agent, Iova iova,
                                  std::uint64_t len);

    /** Produce a global CMD_ATC_INV for @p agent without a CMD_SYNC. */
    sim::TimeNs submitAtcInvAll(sim::Core &core, sim::TimeNs now,
                                AtsAgent &agent);

    sim::TimeNs atsInvalidate(sim::Core &core, sim::TimeNs now,
                              AtsAgent &agent, DomainId domain,
                              Iova iova, std::uint64_t len) override;

    sim::TimeNs atsInvalidateAll(sim::Core &core, sim::TimeNs now,
                                 AtsAgent &agent,
                                 DomainId domain) override;

    // ---- Event queue (hardware-side fault ring) --------------------

    /** Records currently in the event queue, oldest first. */
    const std::vector<FaultRecord> &eventQueue() const { return eventq_; }

    /** Records dropped because the ring was full (the architecture's
     *  EVENTQ overflow flag, as a count). */
    std::uint64_t
    eventQueueOverflows() const
    {
        return ctx_.stats.get(sim::Ctr::SmmuEvtqOverflows);
    }

    /** Records consumed by the driver over the backend's lifetime
     *  (conservation: faults == in-queue + drained + overflowed). */
    std::uint64_t
    eventQueueDrained() const
    {
        return ctx_.stats.get(sim::Ctr::SmmuEvtqDrained);
    }

    /** Driver-side consumption: empty the ring in place (it keeps its
     *  storage), clearing the overflow condition so new records can
     *  be delivered again. */
    void
    drainEventQueue()
    {
        if (!eventq_.empty())
            ctx_.stats.add(sim::Ctr::SmmuEvtqDrained, eventq_.size());
        eventq_.clear();
    }

    /** True when @p d's CD is in the config cache (no descriptor fetch
     *  on the next walk). */
    bool
    configCached(DomainId d) const
    {
        return d < cdCached_.size() && cdCached_[d];
    }

  private:
    struct PendingInval
    {
        enum class Kind : std::uint8_t
        {
            Range,
            Domain,
            All,
            AtcRange, //!< CMD_ATC_INV, one range of agent's ATC
            AtcAll,   //!< CMD_ATC_INV, agent's whole ATC
        } kind;
        DomainId domain = 0;
        Iova iova = 0;
        std::uint64_t len = 0;
        AtsAgent *agent = nullptr; //!< ATC commands only
    };

    /**
     * Reserve @p n cmdq slots and write the commands: the producer
     * side, under the (short) cmdq lock.  A full ring first stalls the
     * producer until the consumer catches up.
     * @return time the lock is released.
     */
    sim::TimeNs produce(sim::Core &core, sim::TimeNs now, unsigned n);

    sim::SimMutex cmdqLock_;        //!< producer slot reservation
    sim::SerialResource consumer_;  //!< the SMMU draining the ring
    std::vector<PendingInval> pending_;
    std::uint64_t pendingCmds_ = 0; //!< ring occupancy (incl. applied-kind dups)

    std::vector<bool> steValid_;
    std::vector<bool> cdCached_;    //!< config cache (CD per domain)

    std::vector<FaultRecord> eventq_;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_BACKEND_SMMU_HH
