/**
 * @file
 * SVA domain: demand-faulted device-accessible process memory.
 */

#include "iommu/sva.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "iommu/iommu.hh"
#include "sim/tracer.hh"

namespace damn::iommu {

SvaDomain::SvaDomain(sim::Context &ctx, Iommu &mmu,
                     mem::PageAllocator &alloc,
                     unsigned residentLimitPages)
    : ctx_(ctx), mmu_(mmu), alloc_(alloc),
      residentLimit_(residentLimitPages), domain_(mmu.createDomain())
{}

SvaDomain::~SvaDomain()
{
    // Free in VA order, as an ordered map did: never in hash order.
    std::vector<std::pair<Iova, mem::Pfn>> frames;
    for (Iova va = lruOldest_; va != kNoPage; va = resident_.find(va)->newer)
        frames.emplace_back(va, resident_.find(va)->pfn);
    std::sort(frames.begin(), frames.end());
    for (const auto &[va, pfn] : frames)
        alloc_.freePages(pfn, 0);
}

bool
SvaDomain::resident(Iova va) const
{
    return resident_.find(va & ~Iova(mem::kPageSize - 1)) != nullptr;
}

mem::Pa
SvaDomain::paOf(Iova va) const
{
    const Resident *r = resident_.find(va & ~Iova(mem::kPageSize - 1));
    return r == nullptr ? 0 : mem::pfnToPa(r->pfn);
}

void
SvaDomain::lruUnlink(const Resident &r)
{
    (r.older == kNoPage ? lruOldest_ : resident_.find(r.older)->newer) =
        r.newer;
    (r.newer == kNoPage ? lruNewest_ : resident_.find(r.newer)->older) =
        r.older;
}

void
SvaDomain::lruAppend(Iova page)
{
    Resident &r = *resident_.find(page);
    r.older = lruNewest_;
    r.newer = kNoPage;
    (lruNewest_ == kNoPage ? lruOldest_ : resident_.find(lruNewest_)->newer) =
        page;
    lruNewest_ = page;
}

bool
SvaDomain::handleFault(sim::CpuCursor &cpu, Iova va, bool is_write,
                       AtsAgent *ats)
{
    (void)is_write; // pages are installed RW; rights don't split here
    const Iova page = va & ~Iova(mem::kPageSize - 1);
    if (Resident *r = resident_.find(page)) {
        // Spurious fault: another request already brought it in.
        lruUnlink(*r);
        lruAppend(page);
        ctx_.stats.add(sim::Ctr::SvaSpuriousFaults);
        return true;
    }
    if (residentLimit_ != 0 && resident_.size() >= residentLimit_)
        evict(cpu, lruOldest_, ats); // the least recently used page
    if (ctx_.faults.shouldFail(sim::FaultSite::PageAlloc)) {
        ctx_.stats.add(sim::Ctr::SvaFaultAllocFails);
        ++failedFaults_;
        return false;
    }
    const mem::Pfn pfn =
        alloc_.allocPages(0, cpu.numa(), /*zero=*/ctx_.functionalData);
    if (pfn == mem::kInvalidPfn) {
        ctx_.stats.add(sim::Ctr::SvaFaultAllocFails);
        ++failedFaults_;
        return false;
    }
    cpu.charge(ctx_.cost.pageAllocNs + ctx_.cost.ptePerPageNs);
    mmu_.mapPage(domain_, page, mem::pfnToPa(pfn), PermRW);
    resident_[page].pfn = pfn;
    lruAppend(page);
    ++faultsServiced_;
    ctx_.stats.add(sim::Ctr::SvaFaultsServiced);
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
    const Resident *r = resident_.find(page);
    if (r == nullptr)
        return false;
    mmu_.unmapPage(domain_, page);
    cpu.waitUntil(mmu_.backend().syncInvalidate(
        *cpu.core, cpu.time, domain_, page, mem::kPageSize));
    if (ats != nullptr)
        cpu.waitUntil(mmu_.backend().atsInvalidate(
            *cpu.core, cpu.time, *ats, domain_, page, mem::kPageSize));
    alloc_.freePages(r->pfn, 0);
    lruUnlink(*r);
    resident_.erase(page);
    ++evictions_;
    ctx_.stats.add(sim::Ctr::SvaEvictions);
    return true;
}

} // namespace damn::iommu
