/**
 * @file
 * IOTLB implementation.
 */

#include "iommu/iotlb.hh"

namespace damn::iommu {

TlbEntry *
Iotlb::setBase(bool huge, DomainId domain, Iova page_tag)
{
    // Real IOTLBs index by the low page-number bits (not a hash).
    // This is what makes DAMN's metadata-in-IOVA encoding cost IOTLB
    // reach: regions that differ only in their *high* bits (cpu,
    // rights, device fields) map the same offsets onto the same sets
    // and conflict, while densely recycled DMA-API IOVAs spread out.
    (void)domain;
    auto &bank = huge ? bank2m_ : bank4k_;
    const unsigned sets = huge ? sets2m_ : sets4k_;
    const unsigned ways = waysOf(huge);
    const unsigned shift = huge ? 21 : 12;
    return &bank[std::size_t((page_tag >> shift) % sets) * ways];
}

bool
Iotlb::walkCached(DomainId domain, Iova iova)
{
    const Iova tag = iova >> 21;
    PwcEntry *victim = &pwc_[0];
    for (PwcEntry &e : pwc_) {
        if (e.valid && e.domain == domain && e.tag == tag) {
            e.lastUse = ++clock_;
            return true;
        }
        if (!e.valid || e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->domain = domain;
    victim->tag = tag;
    victim->lastUse = ++clock_;
    return false;
}

const TlbEntry *
Iotlb::lookup(DomainId domain, Iova iova)
{
    // The LRU clock advances only when a stamp is actually written (on
    // hit; insert/walkCached stamp for themselves), keeping the miss
    // path scan-only.  Only the *relative order* of lastUse values
    // feeds victim selection, so skipping ticks on misses leaves every
    // eviction decision — and therefore all simulated output —
    // unchanged.
    //
    // 2 MiB bank first: a huge entry covers the 4 KiB tag too.
    const Iova tag2m = iova & ~(kHugePageSize - 1);
    TlbEntry *set = setBase(true, domain, tag2m);
    for (unsigned w = 0; w < ways2m_; ++w) {
        TlbEntry &e = set[w];
        if (e.valid && e.domain == domain && e.iovaPage == tag2m &&
            e.huge) {
            e.lastUse = ++clock_;
            ++hits_;
            return &e;
        }
    }
    const Iova tag4k = iova & ~Iova(mem::kPageSize - 1);
    set = setBase(false, domain, tag4k);
    for (unsigned w = 0; w < ways4k_; ++w) {
        TlbEntry &e = set[w];
        if (e.valid && e.domain == domain && e.iovaPage == tag4k &&
            !e.huge) {
            e.lastUse = ++clock_;
            ++hits_;
            return &e;
        }
    }
    ++misses_;
    return nullptr;
}

void
Iotlb::insert(DomainId domain, Iova iova, const WalkResult &walk)
{
    if (!walk.present)
        return;
    const bool huge = walk.huge;
    const std::uint64_t page_mask =
        huge ? kHugePageSize - 1 : mem::kPageSize - 1;
    const Iova tag = iova & ~page_mask;
    TlbEntry *set = setBase(huge, domain, tag);
    const unsigned ways = waysOf(huge);
    TlbEntry *victim = &set[0];
    for (unsigned w = 0; w < ways; ++w) {
        TlbEntry &e = set[w];
        // An existing entry for this tag must be updated in place —
        // duplicate entries for one translation would let a stale copy
        // survive a refill.
        if (e.valid && e.domain == domain && e.iovaPage == tag &&
            e.huge == huge) {
            victim = &e;
            break;
        }
        if (!e.valid) {
            victim = &e;
            continue;
        }
        if (victim->valid && e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->domain = domain;
    victim->iovaPage = tag;
    victim->paPage = walk.pa & ~page_mask;
    victim->perm = walk.perm;
    victim->huge = huge;
    victim->lastUse = ++clock_;
    ++fills_;
}

void
Iotlb::invalidateRange(DomainId domain, Iova iova, std::uint64_t len)
{
    if (debugDropRemaining_ > 0) {
        --debugDropRemaining_;
        return;
    }
    ++invalidations_;
    const Iova lo = iova;
    const Iova hi = iova + len;
    const auto drop = [domain, lo, hi](TlbEntry &e) {
        if (!e.valid || e.domain != domain)
            return;
        const std::uint64_t sz = e.huge ? kHugePageSize : mem::kPageSize;
        if (e.iovaPage < hi && e.iovaPage + sz > lo)
            e.valid = false;
    };
    for (const bool huge : {false, true}) {
        auto &bank = huge ? bank2m_ : bank4k_;
        const unsigned sets = huge ? sets2m_ : sets4k_;
        const unsigned ways = waysOf(huge);
        const unsigned shift = huge ? 21 : 12;
        // Tags are page-aligned, so only pages first..first+pages-1 can
        // overlap [lo, hi); consecutive pages index consecutive sets
        // (setBase), so fewer than `sets` pages touch exactly that many
        // sets.  A wrapped range or one spanning every set keeps the
        // full scan — same predicate either way, so the same entries
        // drop.
        const Iova first = lo >> shift;
        const std::uint64_t pages =
            hi > (first << shift) ? ((hi - 1) >> shift) - first + 1 : 0;
        if (hi < lo || pages >= sets) {
            for (TlbEntry &e : bank)
                drop(e);
            continue;
        }
        std::size_t set = std::size_t(first % sets);
        for (std::uint64_t p = 0; p < pages; ++p) {
            TlbEntry *base = &bank[set * ways];
            for (unsigned w = 0; w < ways; ++w)
                drop(base[w]);
            if (++set == sets)
                set = 0;
        }
    }
}

void
Iotlb::invalidateDomain(DomainId domain)
{
    if (debugDropRemaining_ > 0) {
        --debugDropRemaining_;
        return;
    }
    ++invalidations_;
    for (auto *bank : {&bank4k_, &bank2m_})
        for (TlbEntry &e : *bank)
            if (e.domain == domain)
                e.valid = false;
}

void
Iotlb::invalidateAll()
{
    ++invalidations_;
    for (auto *bank : {&bank4k_, &bank2m_})
        for (TlbEntry &e : *bank)
            e.valid = false;
}

std::vector<TlbEntry>
Iotlb::validEntries(DomainId domain) const
{
    std::vector<TlbEntry> out;
    for (const auto *bank : {&bank4k_, &bank2m_})
        for (const TlbEntry &e : *bank)
            if (e.valid && e.domain == domain)
                out.push_back(e);
    return out;
}

} // namespace damn::iommu
