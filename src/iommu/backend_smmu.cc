/**
 * @file
 * ARM SMMUv3 backend implementation.
 */

#include "iommu/backend_smmu.hh"

#include "iommu/ats.hh"

namespace damn::iommu {

void
SmmuV3Backend::attachDevice(DomainId d)
{
    if (d >= steValid_.size()) {
        steValid_.resize(d + 1, false);
        cdCached_.resize(d + 1, false);
    }
    steValid_[d] = true;
    // A fresh (or re-installed) STE+CD is not yet in the config cache:
    // the first walk after attach pays the descriptor fetch.
    cdCached_[d] = false;
    ctx_.stats.add(sim::Ctr::SmmuSteWrites);
}

void
SmmuV3Backend::detachDevice(DomainId d)
{
    if (d >= steValid_.size())
        return;
    steValid_[d] = false;
    // CFGI_STE: teardown config invalidation is modeled as guaranteed,
    // like the facade's teardown IOTLB flush.
    cdCached_[d] = false;
    ctx_.stats.add(sim::Ctr::SmmuCfgiSte);
}

sim::TimeNs
SmmuV3Backend::walkLatency(DomainId d, Iova iova)
{
    sim::TimeNs lat = tlb_.walkCached(d, iova) ? ctx_.cost.smmuWalkPwcNs
                                               : ctx_.cost.smmuWalkNs;
    if (d >= cdCached_.size())
        cdCached_.resize(d + 1, false);
    if (!cdCached_[d]) {
        // Config-cache miss: fetch STE + CD before the walk can start.
        cdCached_[d] = true;
        lat += ctx_.cost.smmuCdFetchNs;
        ctx_.stats.add(sim::Ctr::SmmuCdFetches);
    }
    return lat;
}

sim::TimeNs
SmmuV3Backend::produce(sim::Core &core, sim::TimeNs now, unsigned n)
{
    if (pendingCmds_ + n + 1 > ctx_.cost.smmuCmdqDepth) {
        // Ring wrap: the producer polls CONS until the consumer frees
        // enough slots.  Everything already produced has drained by
        // then.
        ctx_.stats.add(sim::Ctr::SmmuCmdqStalls);
        const sim::TimeNs drained = consumer_.freeAt();
        if (drained > now) {
            core.occupy(now, drained - now,
                        ctx_.cost.smmuSyncSpinBusyFraction);
            now = drained;
        }
        pendingCmds_ = 0;
    }
    const sim::TimeNs t = cmdqLock_.acquireAndHold(
        core, now, sim::TimeNs(n) * ctx_.cost.smmuCmdSubmitNs, 1.0,
        ctx_.engine.now());
    // The consumer starts chewing on the new commands as soon as they
    // are visible, concurrently with whatever the producer does next.
    consumer_.submit(t, sim::TimeNs(n) * ctx_.cost.smmuTlbiNs);
    pendingCmds_ += n;
    ctx_.stats.add(sim::Ctr::SmmuCmds, n);
    return t;
}

sim::TimeNs
SmmuV3Backend::submitTlbiRange(sim::Core &core, sim::TimeNs now,
                               DomainId domain, Iova iova,
                               std::uint64_t len)
{
    const sim::TimeNs t = produce(core, now, 1);
    pending_.push_back({PendingInval::Kind::Range, domain, iova, len});
    return t;
}

sim::TimeNs
SmmuV3Backend::submitTlbiAll(sim::Core &core, sim::TimeNs now)
{
    const sim::TimeNs t = produce(core, now, 1);
    pending_.push_back({PendingInval::Kind::All, 0, 0, 0});
    return t;
}

sim::TimeNs
SmmuV3Backend::sync(sim::Core &core, sim::TimeNs now)
{
    // Producing the CMD_SYNC takes a slot like any other command ...
    const sim::TimeNs t = cmdqLock_.acquireAndHold(
        core, now, ctx_.cost.smmuCmdSubmitNs, 1.0, ctx_.engine.now());
    // ... but completion is awaited *outside* the lock: the SYNC
    // finishes once the consumer has drained everything ahead of it.
    const sim::TimeNs done = consumer_.submit(t, ctx_.cost.smmuCmdSyncNs);
    if (done > t)
        core.occupy(t, done - t, ctx_.cost.smmuSyncSpinBusyFraction);
    pendingCmds_ = 0;
    ctx_.stats.add(sim::Ctr::SmmuSyncs);

    if (ctx_.faults.shouldFail(sim::FaultSite::IommuInval)) {
        // The batch is dropped in flight: time spent, stale entries
        // survive — the same injectable hole as VT-d's queue.
        ctx_.stats.add(sim::Ctr::IommuInvalDropped);
        pending_.clear();
        return done;
    }
    for (const PendingInval &p : pending_) {
        switch (p.kind) {
          case PendingInval::Kind::Range:
            tlb_.invalidateRange(p.domain, p.iova, p.len);
            break;
          case PendingInval::Kind::Domain:
            tlb_.invalidateDomain(p.domain);
            break;
          case PendingInval::Kind::All:
            tlb_.invalidateAll();
            break;
          case PendingInval::Kind::AtcRange:
            p.agent->invalidateRange(p.iova, p.len);
            break;
          case PendingInval::Kind::AtcAll:
            p.agent->invalidateAll();
            break;
        }
    }
    ctx_.tracer.instant(core.id(), sim::TraceCat::Iotlb,
                        "smmu.cmdq_sync", done, 0, pending_.size());
    pending_.clear();
    return done;
}

sim::TimeNs
SmmuV3Backend::syncInvalidate(sim::Core &core, sim::TimeNs now,
                              DomainId domain, Iova iova,
                              std::uint64_t len)
{
    const sim::TimeNs t = submitTlbiRange(core, now, domain, iova, len);
    return sync(core, t);
}

sim::TimeNs
SmmuV3Backend::syncInvalidateRanges(sim::Core &core, sim::TimeNs now,
                                    const std::vector<InvalRange> &ranges)
{
    // One producer critical section writes the whole TLBI list; a
    // single CMD_SYNC then covers it (dma_unmap_sg on SMMUv3).
    const sim::TimeNs t = produce(core, now, unsigned(ranges.size()));
    for (const InvalRange &r : ranges)
        pending_.push_back(
            {PendingInval::Kind::Range, r.domain, r.iova, r.len});
    return sync(core, t);
}

sim::TimeNs
SmmuV3Backend::batchedFlush(sim::Core &core, sim::TimeNs now,
                            const std::vector<DomainId> &domains)
{
    const sim::TimeNs t = produce(core, now, unsigned(domains.size()));
    for (const DomainId d : domains)
        pending_.push_back({PendingInval::Kind::Domain, d, 0, 0});
    return sync(core, t);
}

sim::TimeNs
SmmuV3Backend::batchedFlushAll(sim::Core &core, sim::TimeNs now)
{
    const sim::TimeNs t = submitTlbiAll(core, now);
    return sync(core, t);
}

bool
SmmuV3Backend::postPageRequest(const PageRequest &req)
{
    if (!priAccept(req, ctx_.cost.smmuStallDepth)) {
        // Stalled-transaction table full: the SMMU terminates the
        // transaction instead of stalling it (the auto-response).
        ctx_.stats.add(sim::Ctr::SmmuStallAutoTerms);
        return false;
    }
    ctx_.stats.add(sim::Ctr::SmmuStallEvents);
    return true;
}

const std::vector<IommuBackend::PageRequest> &
SmmuV3Backend::fetchPageRequests()
{
    return priDrain();
}

sim::TimeNs
SmmuV3Backend::respondPageRequest(sim::Core &core, sim::TimeNs now,
                                  const PageRequest &req, bool success)
{
    (void)req;
    (void)success;
    // CMD_RESUME takes one cmdq slot; the stalled transaction resumes
    // (or terminates) as soon as the SMMU consumes it — no CMD_SYNC.
    const sim::TimeNs t = produce(core, now, 1);
    const sim::TimeNs done = t + ctx_.cost.priResponseNs;
    priNoteResponse();
    ctx_.stats.add(sim::Ctr::SmmuCmdResumes);
    return done;
}

sim::TimeNs
SmmuV3Backend::submitAtcInvRange(sim::Core &core, sim::TimeNs now,
                                 AtsAgent &agent, Iova iova,
                                 std::uint64_t len)
{
    const sim::TimeNs t = produce(core, now, 1);
    pending_.push_back(
        {PendingInval::Kind::AtcRange, 0, iova, len, &agent});
    return t;
}

sim::TimeNs
SmmuV3Backend::submitAtcInvAll(sim::Core &core, sim::TimeNs now,
                               AtsAgent &agent)
{
    const sim::TimeNs t = produce(core, now, 1);
    pending_.push_back({PendingInval::Kind::AtcAll, 0, 0, 0, &agent});
    return t;
}

sim::TimeNs
SmmuV3Backend::atsInvalidate(sim::Core &core, sim::TimeNs now,
                             AtsAgent &agent, DomainId domain,
                             Iova iova, std::uint64_t len)
{
    (void)domain;
    // CMD_ATC_INV + CMD_SYNC; the endpoint round trip rides on the
    // sync wait.
    const sim::TimeNs t = submitAtcInvRange(core, now, agent, iova, len);
    ctx_.stats.add(sim::Ctr::SmmuAtcInvals);
    return sync(core, t);
}

sim::TimeNs
SmmuV3Backend::atsInvalidateAll(sim::Core &core, sim::TimeNs now,
                                AtsAgent &agent, DomainId domain)
{
    (void)domain;
    const sim::TimeNs t = submitAtcInvAll(core, now, agent);
    ctx_.stats.add(sim::Ctr::SmmuAtcInvals);
    return sync(core, t);
}

void
SmmuV3Backend::deliverFault(const FaultRecord &rec)
{
    if (eventq_.size() < ctx_.cost.smmuEvtqDepth) {
        eventq_.push_back(rec);
        ctx_.stats.add(sim::Ctr::SmmuEvtqRecords);
    } else {
        ctx_.stats.add(sim::Ctr::SmmuEvtqOverflows);
    }
}

} // namespace damn::iommu
