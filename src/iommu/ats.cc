/**
 * @file
 * ATS device-TLB (ATC) implementation.
 */

#include "iommu/ats.hh"

#include "iommu/iommu.hh"

namespace damn::iommu {

AtsAgent::AtsAgent(sim::Context &ctx, Iommu &mmu, DomainId domain)
    : ctx_(ctx), mmu_(mmu), domain_(domain),
      atc_(ctx.cost.atsDevTlbEntries),
      hitsCtr_(ctx.stats.counter("ats.devtlb_hits")),
      missesCtr_(ctx.stats.counter("ats.devtlb_misses"))
{}

AtsAgent::Entry *
AtsAgent::find(Iova page)
{
    for (Entry &e : atc_)
        if (e.valid && e.page == page)
            return &e;
    return nullptr;
}

void
AtsAgent::insert(Iova page, mem::Pa paPage, std::uint32_t perm)
{
    Entry *victim = &atc_[0];
    for (Entry &e : atc_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    if (!victim->valid)
        ++live_;
    *victim = {true, page, paPage, perm, ++clock_};
    ++fills_;
}

AtsAgent::Result
AtsAgent::translate(Iova iova, bool is_write)
{
    Result r;
    const Iova page = iova & ~Iova(mem::kPageSize - 1);
    const std::uint32_t need = is_write ? PermWrite : PermRead;

    if (Entry *e = find(page); e != nullptr && (e->perm & need) == need) {
        e->lastUse = ++clock_;
        ++hits_;
        ctx_.stats.add(hitsCtr_);
        r.ok = true;
        r.hit = true;
        r.pa = e->paPage + (iova - page);
        r.latencyNs = ctx_.cost.atsDevTlbHitNs;
        return r;
    }

    // ATC miss: a PCIe translation request — one fabric round trip
    // plus the IOMMU-side walk.  The walk reads the domain's page
    // table directly; "no sufficient mapping" comes back as a
    // translation with no access rights (the PRI retry signal), not a
    // recorded IOMMU fault.
    ++misses_;
    ctx_.stats.add(missesCtr_);
    r.latencyNs = ctx_.cost.atsTranslateNs +
                  mmu_.backend().walkLatency(domain_, iova);
    const WalkResult w = mmu_.pageTable(domain_).walk(iova);
    if (!w.present || (w.perm & need) != need)
        return r;
    const mem::Pa paPage = w.pa & ~mem::Pa(mem::kPageSize - 1);
    insert(page, paPage, w.perm);
    r.ok = true;
    r.pa = w.pa;
    return r;
}

template <class Pred>
void
AtsAgent::dropIf(Pred pred)
{
    if (live_ == 0)
        return;
    for (Entry &e : atc_)
        if (e.valid && pred(e)) {
            e.valid = false;
            --live_;
        }
}

void
AtsAgent::invalidateRange(Iova iova, std::uint64_t len)
{
    if (debugDropRemaining_ > 0) {
        --debugDropRemaining_;
        return;
    }
    ++invalidations_;
    dropIf([iova, len](const Entry &e) {
        return rangeHitsPage(iova, len, e.page, mem::kPageSize);
    });
}

void
AtsAgent::invalidateAll()
{
    if (debugDropRemaining_ > 0) {
        --debugDropRemaining_;
        return;
    }
    ++invalidations_;
    dropIf([](const Entry &) { return true; });
}

void
AtsAgent::reset()
{
    dropIf([](const Entry &) { return true; });
    debugDropRemaining_ = 0;
}

std::vector<Iova>
AtsAgent::validEntries() const
{
    std::vector<Iova> out;
    if (live_ == 0)
        return out;
    for (const Entry &e : atc_)
        if (e.valid)
            out.push_back(e.page);
    return out;
}

} // namespace damn::iommu
