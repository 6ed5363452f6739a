/**
 * @file
 * IOTLB implementation.
 */

#include "iommu/iotlb.hh"

#include <algorithm>

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
    const std::size_t base = huge ? base2m_ : 0;
    const unsigned sets = huge ? sets2m_ : sets4k_;
    const unsigned ways = waysOf(huge);
    const unsigned shift = huge ? 21 : 12;
    return &slots_[base + std::size_t((page_tag >> shift) % sets) * ways];
}

void
Iotlb::markValid(TlbEntry &e)
{
    if (e.valid)
        return;
    e.valid = true;
    const auto slot = std::size_t(&e - slots_.data());
    validBits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    ++live_;
    live2m_ += slot >= base2m_;
}

void
Iotlb::markInvalid(std::uint32_t slot)
{
    slots_[slot].valid = false;
    validBits_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    --live_;
    live2m_ -= slot >= base2m_;
}

template <class Pred>
void
Iotlb::dropLive(Pred pred)
{
    for (std::size_t w = 0; w < validBits_.size(); ++w) {
        for (std::uint64_t bits = validBits_[w]; bits != 0;
             bits &= bits - 1) {
            const auto slot =
                std::uint32_t(w * 64 + unsigned(std::countr_zero(bits)));
            if (pred(slots_[slot]))
                markInvalid(slot);
        }
    }
}

void
Iotlb::pwcTouch(std::uint32_t i)
{
    if (i == pwcNewest_)
        return;
    PwcLink &l = pwcLink_[i];
    if (i == pwcOldest_)
        pwcOldest_ = l.newer;
    else
        pwcLink_[l.older].newer = l.newer;
    pwcLink_[l.newer].older = l.older;
    l.older = pwcNewest_;
    pwcLink_[pwcNewest_].newer = i;
    pwcNewest_ = i;
}

bool
Iotlb::walkCached(DomainId domain, Iova iova)
{
    const Iova tag = iova >> 21;
    const auto n = std::uint32_t(pwcTag_.size());
    for (std::uint32_t i = n - pwcUsed_; i < n; ++i) {
        if (pwcTag_[i] == tag && pwcDomain_[i] == domain) {
            pwcTouch(i);
            return true;
        }
    }
    // Miss: fill the highest empty slot while any is left (the order
    // the first fills have always taken), else the least recently
    // used one.
    std::uint32_t victim;
    if (pwcUsed_ < n) {
        victim = n - ++pwcUsed_;
        if (pwcUsed_ == 1)
            pwcOldest_ = victim;
        else
            pwcLink_[pwcNewest_].newer = victim;
        pwcLink_[victim].older = pwcNewest_;
        pwcNewest_ = victim;
    } else {
        victim = pwcOldest_;
        pwcTouch(victim);
    }
    pwcTag_[victim] = tag;
    pwcDomain_[victim] = domain;
    return false;
}

const TlbEntry *
Iotlb::lookup(DomainId domain, Iova iova)
{
    // The LRU clock advances only when a stamp is actually written (on
    // hit; insert stamps for itself), keeping the miss path scan-only.
    // Only the *relative order* of lastUse values feeds victim
    // selection, so skipping ticks (on misses, and the page-walk cache
    // keeping its own LRU list) leaves every eviction decision — and
    // therefore all simulated output — unchanged.
    //
    // 2 MiB bank first: a huge entry covers the 4 KiB tag too.  An
    // empty bank cannot hit, so its probe is skipped.
    if (live2m_ != 0) {
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
    }
    const Iova tag4k = iova & ~Iova(mem::kPageSize - 1);
    TlbEntry *set = setBase(false, domain, tag4k);
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
    markValid(*victim);
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
    // The end saturates at 2^64 (toTop) for the probe count too.
    const Iova lo = iova;
    const bool toTop = len > ~lo;
    const Iova hi = lo + len;
    const auto covers = [domain, lo, len](const TlbEntry &e) {
        return e.domain == domain &&
               rangeHitsPage(lo, len, e.iovaPage,
                             e.huge ? kHugePageSize : mem::kPageSize);
    };
    // Tags are page-aligned, so only pages first..first+pages-1 can
    // overlap; consecutive pages index consecutive sets (setBase), so
    // min(pages, sets) sets hold every candidate.  Probing them costs
    // that many sets' ways; walking the valid slots costs about one
    // step per valid entry.
    // Both apply the same predicate, so the cheaper one is taken.
    std::uint64_t pages[2];
    std::uint64_t probes = 0;
    for (const bool huge : {false, true}) {
        const unsigned shift = huge ? 21 : 12;
        const Iova first = lo >> shift;
        const std::uint64_t n =
            toTop ? (~Iova(0) >> shift) - first + 1
            : hi > (first << shift) ? ((hi - 1) >> shift) - first + 1
                                    : 0;
        pages[huge] = std::min<std::uint64_t>(n, huge ? sets2m_ : sets4k_);
        probes += pages[huge] * waysOf(huge);
    }
    if (live_ <= probes) {
        dropLive(covers);
        return;
    }
    for (const bool huge : {false, true}) {
        const unsigned sets = huge ? sets2m_ : sets4k_;
        const unsigned ways = waysOf(huge);
        const unsigned shift = huge ? 21 : 12;
        const std::size_t bank = huge ? base2m_ : 0;
        std::size_t set = std::size_t((lo >> shift) % sets);
        for (std::uint64_t p = 0; p < pages[huge]; ++p) {
            const std::size_t base = bank + set * ways;
            for (unsigned w = 0; w < ways; ++w)
                if (slots_[base + w].valid && covers(slots_[base + w]))
                    markInvalid(std::uint32_t(base + w));
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
    dropLive([domain](const TlbEntry &e) { return e.domain == domain; });
}

void
Iotlb::invalidateAll()
{
    ++invalidations_;
    dropLive([](const TlbEntry &) { return true; });
}

} // namespace damn::iommu
