/**
 * @file
 * IOMMU translation path and fault reporting.
 */

#include "iommu/iommu.hh"

namespace damn::iommu {

void
Iommu::recordFault(DomainId d, Iova iova, bool is_write,
                   FaultReason reason)
{
    const FaultRecord rec{d, iova, is_write, reason, ctx_.engine.now()};
    ++faults_;
    // Device-originated events have no CPU; by convention they land in
    // core 0's event ring.
    ctx_.tracer.instant(0, sim::TraceCat::Fault, "iommu.fault",
                        rec.time, 0,
                        std::uint64_t(static_cast<std::uint8_t>(reason)));
    const std::uint64_t df = ++domainFaults_.at(d);
    if (faultLog_.size() < faultLogCap_)
        faultLog_.push_back(rec);
    else
        ++faultLogOverflows_;
    // Hardware-side delivery (the SMMUv3 event queue; a no-op on
    // VT-d, whose recording registers the log above already models).
    backend_->deliverFault(rec);
    if (quarantineThreshold_ != 0 && reason != FaultReason::Quarantined &&
        df >= quarantineThreshold_)
        quarantined_.at(d) = true;
}

TranslateResult
Iommu::translate(DomainId d, Iova iova, bool is_write)
{
    TranslateResult r;
    if (!enabled_) {
        r.ok = true;
        r.pa = iova; // identity: DMA address == physical address
        return r;
    }

    if (detached_.at(d)) {
        r.fault = true;
        recordFault(d, iova, is_write, FaultReason::Detached);
        return r;
    }

    if (quarantined_.at(d)) {
        r.fault = true;
        recordFault(d, iova, is_write, FaultReason::Quarantined);
        return r;
    }

    if (ctx_.faults.shouldFail(sim::FaultSite::DmaTranslate)) {
        r.fault = true;
        recordFault(d, iova, is_write, FaultReason::Injected);
        return r;
    }

    const std::uint32_t need = is_write ? PermWrite : PermRead;

    Iotlb &tlb = backend_->tlb();
    if (const TlbEntry *e = tlb.lookup(d, iova)) {
        if ((e->perm & need) == need) {
            const std::uint64_t mask =
                (e->huge ? kHugePageSize : mem::kPageSize) - 1;
            r.ok = true;
            r.pa = e->paPage | (iova & mask);
            return r;
        }
        // Permission fault despite a cached translation.
        r.fault = true;
        recordFault(d, iova, is_write, FaultReason::Permission);
        return r;
    }

    const WalkResult w = pageTable(d).walk(iova);
    r.latencyNs = backend_->walkLatency(d, iova);
    // Misses only: per-hit instants would dwarf everything else in the
    // trace, and the hit count is already in the IOTLB stats.
    ctx_.tracer.instant(0, sim::TraceCat::Iotlb, "iotlb.miss",
                        ctx_.engine.now(), 0, r.latencyNs);
    if (!w.present || (w.perm & need) != need) {
        r.fault = true;
        recordFault(d, iova, is_write,
                    w.present ? FaultReason::Permission
                              : FaultReason::NotPresent);
        return r;
    }
    tlb.insert(d, iova, w);
    r.ok = true;
    r.pa = w.pa;
    return r;
}

} // namespace damn::iommu
