/**
 * @file
 * ATS device-TLB (ATC) implementation.
 */

#include "iommu/ats.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "iommu/iommu.hh"

namespace damn::iommu {

AtsAgent::AtsAgent(sim::Context &ctx, Iommu &mmu, DomainId domain)
    : ctx_(ctx), mmu_(mmu), domain_(domain),
      atc_(ctx.cost.atsDevTlbEntries),
      free_((atc_.size() + 63) / 64)
{
    assert(!atc_.empty());
    dropAll();
}

void
AtsAgent::lruUnlink(const Entry &e)
{
    (e.older == kNoSlot ? lruOldest_ : atc_[e.older].newer) = e.newer;
    (e.newer == kNoSlot ? lruNewest_ : atc_[e.newer].older) = e.older;
}

void
AtsAgent::lruAppend(std::uint32_t slot)
{
    Entry &e = atc_[slot];
    e.older = lruNewest_;
    e.newer = kNoSlot;
    (lruNewest_ == kNoSlot ? lruOldest_ : atc_[lruNewest_].newer) = slot;
    lruNewest_ = slot;
}

void
AtsAgent::drop(std::uint32_t slot)
{
    Entry &e = atc_[slot];
    assert(e.valid);
    e.valid = false;
    --live_;
    free_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    lruUnlink(e);
    PageSlots &ps = *index_.find(e.page);
    if (--ps.count == 0) {
        index_.erase(e.page);
    } else if (ps.lowest == slot) {
        // The page's next copy sits in a higher slot.
        std::uint32_t s = slot + 1;
        while (!atc_[s].valid || atc_[s].page != e.page)
            ++s;
        ps.lowest = s;
    }
}

void
AtsAgent::dropAll()
{
    for (Entry &e : atc_)
        e.valid = false;
    index_.clear();
    for (std::size_t w = 0; w < free_.size(); ++w) {
        const std::size_t bits =
            std::min<std::size_t>(64, atc_.size() - 64 * w);
        free_[w] = bits == 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << bits) - 1;
    }
    lruOldest_ = lruNewest_ = kNoSlot;
    live_ = 0;
}

void
AtsAgent::insert(Iova page, mem::Pa paPage, std::uint32_t perm)
{
    // The victim: the lowest invalid slot, else the least recently used.
    std::uint32_t victim = lruOldest_;
    for (std::size_t w = 0; w < free_.size(); ++w)
        if (free_[w] != 0) {
            victim = std::uint32_t(64 * w) +
                     std::uint32_t(std::countr_zero(free_[w]));
            break;
        }
    if (atc_[victim].valid)
        drop(victim);
    atc_[victim] = {true, page, paPage, perm, 0, 0};
    free_[victim / 64] &= ~(std::uint64_t{1} << (victim % 64));
    ++live_;
    lruAppend(victim);
    PageSlots &ps = index_[page];
    if (ps.count++ == 0 || victim < ps.lowest)
        ps.lowest = victim;
    ++fills_;
}

AtsAgent::Result
AtsAgent::translate(Iova iova, bool is_write)
{
    Result r;
    const Iova page = iova & ~Iova(mem::kPageSize - 1);
    const std::uint32_t need = is_write ? PermWrite : PermRead;

    if (const PageSlots *ps = index_.find(page);
        ps != nullptr && (atc_[ps->lowest].perm & need) == need) {
        const Entry &e = atc_[ps->lowest];
        lruUnlink(e);
        lruAppend(ps->lowest);
        ++hits_;
        ctx_.stats.add(sim::Ctr::AtsDevtlbHits);
        r.ok = true;
        r.hit = true;
        r.pa = e.paPage + (iova - page);
        r.latencyNs = ctx_.cost.atsDevTlbHitNs;
        return r;
    }

    // ATC miss: a PCIe translation request — one fabric round trip
    // plus the IOMMU-side walk.  The walk reads the domain's page
    // table directly; "no sufficient mapping" comes back as a
    // translation with no access rights (the PRI retry signal), not a
    // recorded IOMMU fault.
    ++misses_;
    ctx_.stats.add(sim::Ctr::AtsDevtlbMisses);
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

void
AtsAgent::invalidateRange(Iova iova, std::uint64_t len)
{
    if (debugDropRemaining_ > 0) {
        --debugDropRemaining_;
        return;
    }
    ++invalidations_;
    if (live_ == 0)
        return;
    // Tags are page-aligned, so only the pages first..first+pages-1
    // can be hit.  The end saturates at 2^64 (toTop), so the count
    // cannot wrap on the top page.
    const bool toTop = len > ~iova;
    const Iova hi = iova + len;
    const Iova first = iova >> mem::kPageShift;
    const std::uint64_t pages =
        toTop ? (~Iova(0) >> mem::kPageShift) - first + 1
        : hi > (first << mem::kPageShift)
            ? ((hi - 1) >> mem::kPageShift) - first + 1
            : 0;
    if (pages <= live_) {
        for (std::uint64_t p = 0; p < pages; ++p) {
            const Iova tag = (first + p) << mem::kPageShift;
            while (const PageSlots *ps = index_.find(tag))
                drop(ps->lowest);
        }
        return;
    }
    for (std::uint32_t s = 0; s < atc_.size(); ++s)
        if (atc_[s].valid &&
            rangeHitsPage(iova, len, atc_[s].page, mem::kPageSize))
            drop(s);
}

void
AtsAgent::invalidateAll()
{
    if (debugDropRemaining_ > 0) {
        --debugDropRemaining_;
        return;
    }
    ++invalidations_;
    if (live_ != 0)
        dropAll();
}

void
AtsAgent::reset()
{
    if (live_ != 0)
        dropAll();
    debugDropRemaining_ = 0;
}

std::vector<Iova>
AtsAgent::validEntries() const
{
    std::vector<Iova> out;
    out.reserve(live_);
    for (std::size_t s = 0; out.size() < live_; ++s)
        if (atc_[s].valid)
            out.push_back(atc_[s].page);
    return out;
}

} // namespace damn::iommu
