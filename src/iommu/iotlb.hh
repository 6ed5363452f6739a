/**
 * @file
 * Set-associative IOTLB model.
 *
 * Caches IOVA-to-PA translations per domain.  Crucially for the
 * paper's security analysis, a stale IOTLB entry keeps a translation
 * *functionally alive* after the page-table entry is gone — this is the
 * deferred-mode vulnerability window the attack tests exploit.
 */

#ifndef DAMN_IOMMU_IOTLB_HH
#define DAMN_IOMMU_IOTLB_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "iommu/io_pgtable.hh"

namespace damn::iommu {

/** Identifier of an IOMMU domain (one per attached device here). */
using DomainId = std::uint32_t;

/**
 * The invalidation range rule shared by the IOTLB and the ATC: does
 * [@p lo, @p lo + @p len) touch the @p size -byte page tagged @p tag?
 * The end saturates at 2^64: a range whose end passes the top of the
 * address space runs to it rather than wrapping to 0.  The page's
 * inclusive last byte, unlike tag + size, cannot overflow on the top
 * page.  A zero-length unaligned range still hits the page containing
 * @p lo.
 */
constexpr bool
rangeHitsPage(Iova lo, std::uint64_t len, Iova tag, std::uint64_t size)
{
    return (len > ~lo || tag < lo + len) && tag + (size - 1) >= lo;
}

/** One cached translation. */
struct TlbEntry
{
    bool valid = false;         //!< written only by Iotlb::mark*
    DomainId domain = 0;
    Iova iovaPage = 0;          //!< page-aligned tag (4 KiB or 2 MiB)
    mem::Pa paPage = 0;
    std::uint32_t perm = 0;
    bool huge = false;
    std::uint64_t lastUse = 0;  //!< LRU stamp
};

/**
 * Two-bank set-associative IOTLB: a 4 KiB bank and a 2 MiB bank, as in
 * real VT-d implementations.  A 2 MiB entry covers 512x the IOVA range,
 * which is why Table 3's huge+dense variant gains throughput.
 */
class Iotlb
{
  public:
    /**
     * @param sets4k / @p ways4k  geometry of the 4 KiB bank.
     * @param sets2m / @p ways2m  geometry of the 2 MiB bank.
     * @param pwc_entries         page-walk-cache capacity (backends
     *                            differ; see iommu::TlbGeometry).
     */
    Iotlb(unsigned sets4k = 256, unsigned ways4k = 4,
          unsigned sets2m = 32, unsigned ways2m = 4,
          unsigned pwc_entries = 32)
        : sets4k_(sets4k), ways4k_(ways4k),
          sets2m_(sets2m), ways2m_(ways2m),
          base2m_(std::size_t(sets4k) * ways4k),
          slots_(base2m_ + std::size_t(sets2m) * ways2m),
          validBits_((slots_.size() + 63) / 64),
          pwcTag_(pwc_entries), pwcDomain_(pwc_entries),
          pwcLink_(pwc_entries)
    {
        assert(pwc_entries > 0);
    }

    /**
     * Look up @p iova for @p domain; returns nullptr on miss.  The
     * 2 MiB bank is probed first (a huge entry covers the 4 KiB tag
     * too), but only while it holds a valid entry: a count of valid
     * 2 MiB slots lets a run without huge mappings go straight to the
     * 4 KiB set.
     */
    const TlbEntry *lookup(DomainId domain, Iova iova);

    /**
     * Page-walk-cache lookup+fill for a missing translation: true when
     * the upper page-table levels for @p iova's 2 MiB region are
     * cached, making the walk cheap.  DAMN's metadata-in-IOVA encoding
     * spreads buffers across many 2 MiB regions (one per allocating
     * core x cache), which thrashes this cache — the effect Table 3's
     * dense-IOVA variant removes.
     *
     * The cache is fully associative with LRU replacement: a probe
     * compares the valid region tags, a hit moves its slot to the
     * recent end of the LRU list and a miss refills the list's oldest
     * slot — no scan for a victim.  Fills take the empty slots from
     * the top down (n-1, n-2, ..., 0), so the valid slots are always
     * the top pwcUsed_ ones.
     */
    bool walkCached(DomainId domain, Iova iova);

    /** Insert a walk result (evicts LRU way of the set). */
    void insert(DomainId domain, Iova iova, const WalkResult &walk);

    /**
     * Invalidate any entry covering [@p iova, @p iova + @p len), by
     * rangeHitsPage().  Walks whichever is shorter: the live index, or
     * the min(pages, sets) sets per bank the range maps to.
     */
    void invalidateRange(DomainId domain, Iova iova, std::uint64_t len);

    /** Invalidate everything belonging to @p domain (walks the valid
     *  slots only). */
    void invalidateDomain(DomainId domain);

    /** Invalidate the whole IOTLB (global flush; walks the valid slots
     *  only). */
    void invalidateAll();

    /**
     * Call @p fn(const TlbEntry &) on every valid entry cached for
     * @p domain, in bank order: the 4 KiB bank, then the 2 MiB bank,
     * each by slot.
     *
     * COLD PATH ONLY: audit/teardown and oracle use, never per-packet.
     * It walks the valid-slot bitmap (a word per 64 slots, then one
     * step per valid entry), allocates nothing, charges no virtual
     * time and no sim::Tracer category, and — being const — cannot
     * perturb the hot-path state (hit/miss counters, LRU clock, entry
     * stamps), so calling it mid-run never changes simulated output.
     * After a domain invalidation it must find nothing; anything else
     * is a stale translation keeping freed memory device-reachable.
     *
     * The fuzz stale-translation oracle calls it only after a change:
     * when fills() moved or the domain's must-not-translate set grew
     * since its last clean scan.  Between such changes entries can
     * only be invalidated and the set can only shrink, so a clean scan
     * stays clean and skipping the re-scan is exact.
     */
    template <class Fn>
    void
    forEachValid(DomainId domain, Fn fn) const
    {
        for (std::size_t w = 0; w < validBits_.size(); ++w) {
            for (std::uint64_t bits = validBits_[w]; bits != 0;
                 bits &= bits - 1) {
                const TlbEntry &e =
                    slots_[w * 64 + unsigned(std::countr_zero(bits))];
                if (e.domain == domain)
                    fn(e);
            }
        }
    }

    /** forEachValid()'s entries as a vector (audit reports, tests). */
    std::vector<TlbEntry>
    validEntries(DomainId domain) const
    {
        std::vector<TlbEntry> out;
        forEachValid(domain, [&out](const TlbEntry &e) { out.push_back(e); });
        return out;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t invalidations() const { return invalidations_; }

    /**
     * Entries written by insert() over the IOTLB's lifetime (monotone;
     * resetAccounting() leaves it alone).  insert() is the only way an
     * entry becomes valid, so an unchanged count proves no translation
     * appeared — what lets oracles skip re-scanning validEntries().
     */
    std::uint64_t fills() const { return fills_; }

    /**
     * TEST-ONLY oracle self-check hook: silently discard the next
     * @p n *targeted* invalidations (invalidateRange/invalidateDomain;
     * never the global invalidateAll).  The drop is invisible — the
     * invalidation counter does not advance and no stat is booked — so
     * it plants exactly the stale-translation hole the fuzzer's
     * no-stale-translation-after-sync oracle must catch.  Production
     * code never calls this; the fuzz harness arms it via its
     * inject_bug op.
     */
    void debugDropInvalidations(unsigned n) { debugDropRemaining_ = n; }

    double
    hitRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total == 0 ? 0.0 : double(hits_) / double(total);
    }

    void
    resetAccounting()
    {
        hits_ = 0;
        misses_ = 0;
        invalidations_ = 0;
    }

  private:
    TlbEntry *setBase(bool huge, DomainId domain, Iova page_tag);
    unsigned waysOf(bool huge) const { return huge ? ways2m_ : ways4k_; }

    /** The only writers of TlbEntry::valid: they keep validBits_ and
     *  live_ exact. */
    void markValid(TlbEntry &e);
    void markInvalid(std::uint32_t slot);
    /** Invalidate every live entry @p pred accepts. */
    template <class Pred> void dropLive(Pred pred);

    /** A page-walk-cache slot's place in the LRU list. */
    struct PwcLink
    {
        std::uint32_t older = 0, newer = 0;
    };

    /** Make page-walk-cache slot @p i the most recently used. */
    void pwcTouch(std::uint32_t i);

    unsigned sets4k_, ways4k_, sets2m_, ways2m_;
    /** Both banks in one array, 4 KiB bank first (slots
     *  [0, base2m_)), so slot order is bank order. */
    std::size_t base2m_;
    std::vector<TlbEntry> slots_;
    /** Bit s is set while slot s is valid. */
    std::vector<std::uint64_t> validBits_;
    std::size_t live_ = 0;   //!< valid slots
    std::size_t live2m_ = 0; //!< valid slots in the 2 MiB bank
    /** Page-walk cache: slot i caches region pwcTag_[i] (an IOVA
     *  >> 21) of domain pwcDomain_[i]; slots [n - pwcUsed_, n) are
     *  valid.  The LRU list runs through pwcLink_ from pwcOldest_ to
     *  pwcNewest_. */
    std::vector<Iova> pwcTag_;
    std::vector<DomainId> pwcDomain_;
    std::vector<PwcLink> pwcLink_;
    std::uint32_t pwcUsed_ = 0;
    std::uint32_t pwcOldest_ = 0, pwcNewest_ = 0;
    /** LRU stamp source of the TLB entries. */
    std::uint64_t clock_ = 0;
    unsigned debugDropRemaining_ = 0; //!< test-only; see above
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t fills_ = 0;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_IOTLB_HH
