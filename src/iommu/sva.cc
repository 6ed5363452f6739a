/**
 * @file
 * SVA domain: demand-faulted device-accessible process memory.
 */

#include "iommu/sva.hh"

#include "iommu/iommu.hh"
#include "sim/tracer.hh"

namespace damn::iommu {

SvaDomain::SvaDomain(sim::Context &ctx, Iommu &mmu,
                     mem::PageAllocator &alloc,
                     unsigned residentLimitPages)
    : ctx_(ctx), mmu_(mmu), alloc_(alloc),
      residentLimit_(residentLimitPages), domain_(mmu.createDomain()),
      spuriousFaultsCtr_(ctx.stats.counter("sva.spurious_faults")),
      faultAllocFailsCtr_(ctx.stats.counter("sva.fault_alloc_fails")),
      faultsServicedCtr_(ctx.stats.counter("sva.faults_serviced")),
      evictionsCtr_(ctx.stats.counter("sva.evictions"))
{}

SvaDomain::~SvaDomain()
{
    for (const auto &[va, r] : resident_)
        alloc_.freePages(r.pfn, 0);
}

bool
SvaDomain::resident(Iova va) const
{
    return resident_.count(va & ~Iova(mem::kPageSize - 1)) != 0;
}

mem::Pa
SvaDomain::paOf(Iova va) const
{
    const Iova page = va & ~Iova(mem::kPageSize - 1);
    const auto it = resident_.find(page);
    return it == resident_.end() ? 0 : mem::pfnToPa(it->second.pfn);
}

bool
SvaDomain::handleFault(sim::CpuCursor &cpu, Iova va, bool is_write,
                       AtsAgent *ats)
{
    (void)is_write; // pages are installed RW; rights don't split here
    const Iova page = va & ~Iova(mem::kPageSize - 1);
    if (const auto it = resident_.find(page); it != resident_.end()) {
        // Spurious fault: another request already brought it in.
        lru_.splice(lru_.end(), lru_, it->second.lru);
        ctx_.stats.add(spuriousFaultsCtr_);
        return true;
    }
    if (residentLimit_ != 0 && resident_.size() >= residentLimit_)
        evict(cpu, lru_.front(), ats); // the least recently used page
    if (ctx_.faults.shouldFail(sim::FaultSite::PageAlloc)) {
        ctx_.stats.add(faultAllocFailsCtr_);
        ++failedFaults_;
        return false;
    }
    const mem::Pfn pfn =
        alloc_.allocPages(0, cpu.numa(), /*zero=*/ctx_.functionalData);
    if (pfn == mem::kInvalidPfn) {
        ctx_.stats.add(faultAllocFailsCtr_);
        ++failedFaults_;
        return false;
    }
    cpu.charge(ctx_.cost.pageAllocNs + ctx_.cost.ptePerPageNs);
    mmu_.mapPage(domain_, page, mem::pfnToPa(pfn), PermRW);
    resident_.emplace(page, Resident{pfn, lru_.insert(lru_.end(), page)});
    ++faultsServiced_;
    ctx_.stats.add(faultsServicedCtr_);
    return true;
}

bool
SvaDomain::servicePageRequest(sim::CpuCursor &cpu,
                              const IommuBackend::PageRequest &req,
                              AtsAgent *ats)
{
    sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::Fault,
                        "sva.page_fault");
    cpu.charge(ctx_.cost.priFaultServiceNs);
    const bool ok = handleFault(cpu, req.iova, req.isWrite, ats);
    const sim::TimeNs done =
        mmu_.backend().respondPageRequest(*cpu.core, cpu.time, req, ok);
    cpu.waitUntil(done);
    return ok;
}

bool
SvaDomain::evict(sim::CpuCursor &cpu, Iova va, AtsAgent *ats)
{
    const Iova page = va & ~Iova(mem::kPageSize - 1);
    const auto it = resident_.find(page);
    if (it == resident_.end())
        return false;
    const mem::Pfn pfn = it->second.pfn;
    mmu_.unmapPage(domain_, page);
    cpu.waitUntil(mmu_.backend().syncInvalidate(
        *cpu.core, cpu.time, domain_, page, mem::kPageSize));
    if (ats != nullptr)
        cpu.waitUntil(mmu_.backend().atsInvalidate(
            *cpu.core, cpu.time, *ats, domain_, page, mem::kPageSize));
    alloc_.freePages(pfn, 0);
    lru_.erase(it->second.lru);
    resident_.erase(it);
    ++evictions_;
    ctx_.stats.add(evictionsCtr_);
    return true;
}

} // namespace damn::iommu
