/**
 * @file
 * Unit tests for the IOMMU substrate: I/O page tables, IOTLB,
 * invalidation queue, IOVA allocator, translation facade.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "iommu/backend_smmu.hh"
#include "iommu/backend_vtd.hh"
#include "iommu/iommu.hh"
#include "iommu/iova_alloc.hh"
#include "sim/fault_injector.hh"
#include "sim/rng.hh"

using namespace damn;
using namespace damn::iommu;

// ---------------------------------------------------------------------
// IoPageTable
// ---------------------------------------------------------------------

TEST(IoPageTable, MapWalkUnmap)
{
    IoPageTable pt;
    EXPECT_TRUE(pt.map(0x4000, 0x1000, PermRead));
    const WalkResult w = pt.walk(0x4123);
    EXPECT_TRUE(w.present);
    EXPECT_EQ(w.pa, 0x1123u);
    EXPECT_EQ(w.perm, std::uint32_t(PermRead));
    EXPECT_FALSE(w.huge);
    EXPECT_TRUE(pt.unmap(0x4000));
    EXPECT_FALSE(pt.walk(0x4123).present);
}

TEST(IoPageTable, DoubleMapRefused)
{
    IoPageTable pt;
    EXPECT_TRUE(pt.map(0x4000, 0x1000, PermRead));
    EXPECT_FALSE(pt.map(0x4000, 0x2000, PermRead));
}

TEST(IoPageTable, UnmapMissingReturnsFalse)
{
    IoPageTable pt;
    EXPECT_FALSE(pt.unmap(0x9000));
}

TEST(IoPageTable, PermutationsPreserved)
{
    IoPageTable pt;
    pt.map(0x1000, 0xa000, PermRead);
    pt.map(0x2000, 0xb000, PermWrite);
    pt.map(0x3000, 0xc000, PermRW);
    EXPECT_EQ(pt.walk(0x1000).perm, std::uint32_t(PermRead));
    EXPECT_EQ(pt.walk(0x2000).perm, std::uint32_t(PermWrite));
    EXPECT_EQ(pt.walk(0x3000).perm, std::uint32_t(PermRW));
}

TEST(IoPageTable, SparseHighAddresses)
{
    IoPageTable pt;
    const Iova high = (1ull << 47) | 0x123456000;
    EXPECT_TRUE(pt.map(high, 0x7000, PermRW));
    EXPECT_TRUE(pt.walk(high | 0xfff).present);
    EXPECT_EQ(pt.walk(high | 0xfff).pa, 0x7fffu);
}

TEST(IoPageTable, MappedPagesAccounting)
{
    IoPageTable pt;
    for (unsigned i = 0; i < 16; ++i)
        pt.map(Iova(i) << 12, mem::Pa(i) << 12, PermRW);
    EXPECT_EQ(pt.mappedPages(), 16u);
    pt.unmap(0);
    EXPECT_EQ(pt.mappedPages(), 15u);
}

TEST(IoPageTable, HugeMapCovers2MiB)
{
    IoPageTable pt;
    EXPECT_TRUE(pt.mapHuge(0, 0x200000, PermRW));
    const WalkResult w = pt.walk(0x1fffff);
    EXPECT_TRUE(w.present);
    EXPECT_TRUE(w.huge);
    EXPECT_EQ(w.pa, 0x200000u + 0x1fffff);
    EXPECT_EQ(pt.mappedPages(), 512u);
}

TEST(IoPageTable, HugeAnd4kCoexistInDifferentRegions)
{
    IoPageTable pt;
    EXPECT_TRUE(pt.mapHuge(0x400000, 0x200000, PermRead));
    EXPECT_TRUE(pt.map(0x1000, 0x9000, PermWrite));
    EXPECT_TRUE(pt.walk(0x400000).huge);
    EXPECT_FALSE(pt.walk(0x1000).huge);
}

TEST(IoPageTable, HugeDoubleMapRefused)
{
    IoPageTable pt;
    EXPECT_TRUE(pt.mapHuge(0, 0x200000, PermRW));
    EXPECT_FALSE(pt.mapHuge(0, 0x400000, PermRW));
}

TEST(IoPageTable, FourKInsideHugeLeafRefused)
{
    IoPageTable pt;
    ASSERT_TRUE(pt.mapHuge(0x200000, 0x400000, PermRW));
    // The 2 MiB entry is a leaf; a 4 KiB table cannot hang beside it.
    EXPECT_FALSE(pt.map(0x201000, 0x9000, PermRead));
    const WalkResult w = pt.walk(0x201000);
    EXPECT_TRUE(w.present);
    EXPECT_TRUE(w.huge);
    EXPECT_EQ(w.pa, 0x401000u);
    EXPECT_EQ(pt.mappedPages(), 512u);
    EXPECT_EQ(pt.mapped4kEntries(), 0u);
    EXPECT_FALSE(pt.unmap(0x201000));
}

TEST(IoPageTable, HugeRefusedWhereA4kTableOnceLived)
{
    IoPageTable pt;
    ASSERT_TRUE(pt.map(0x201000, 0x9000, PermRead));
    EXPECT_FALSE(pt.mapHuge(0x200000, 0x400000, PermRW));
    ASSERT_TRUE(pt.unmap(0x201000));
    // Interior nodes outlive their last leaf.
    EXPECT_FALSE(pt.mapHuge(0x200000, 0x400000, PermRW));
    EXPECT_EQ(pt.mappedPages(), 0u);
}

// ---------------------------------------------------------------------
// Iotlb
// ---------------------------------------------------------------------

namespace {

WalkResult
walkOf(mem::Pa pa, std::uint32_t perm, bool huge = false)
{
    WalkResult w;
    w.present = true;
    w.pa = pa;
    w.perm = perm;
    w.huge = huge;
    return w;
}

} // namespace

TEST(Iotlb, MissThenHit)
{
    Iotlb tlb;
    EXPECT_EQ(tlb.lookup(0, 0x5000), nullptr);
    EXPECT_EQ(tlb.misses(), 1u);
    tlb.insert(0, 0x5000, walkOf(0x9000, PermRW));
    const TlbEntry *e = tlb.lookup(0, 0x5432);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->paPage, 0x9000u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Iotlb, DomainsAreIsolated)
{
    Iotlb tlb;
    tlb.insert(0, 0x5000, walkOf(0x9000, PermRW));
    EXPECT_EQ(tlb.lookup(1, 0x5000), nullptr);
}

TEST(Iotlb, InvalidateRange)
{
    Iotlb tlb;
    tlb.insert(0, 0x5000, walkOf(0x9000, PermRW));
    tlb.insert(0, 0x6000, walkOf(0xa000, PermRW));
    tlb.invalidateRange(0, 0x5000, 0x1000);
    EXPECT_EQ(tlb.lookup(0, 0x5000), nullptr);
    EXPECT_NE(tlb.lookup(0, 0x6000), nullptr);
}

TEST(Iotlb, InvalidateDomainLeavesOthers)
{
    Iotlb tlb;
    tlb.insert(0, 0x5000, walkOf(0x9000, PermRW));
    tlb.insert(1, 0x5000, walkOf(0xb000, PermRW));
    tlb.invalidateDomain(0);
    EXPECT_EQ(tlb.lookup(0, 0x5000), nullptr);
    EXPECT_NE(tlb.lookup(1, 0x5000), nullptr);
}

TEST(Iotlb, InvalidateAll)
{
    Iotlb tlb;
    tlb.insert(0, 0x5000, walkOf(0x9000, PermRW));
    tlb.insert(1, 0x7000, walkOf(0xc000, PermRW));
    tlb.invalidateAll();
    EXPECT_EQ(tlb.lookup(0, 0x5000), nullptr);
    EXPECT_EQ(tlb.lookup(1, 0x7000), nullptr);
}

TEST(Iotlb, LruEvictionWithinSet)
{
    // 1 set x 2 ways: third insert evicts the least recently used.
    Iotlb tlb(1, 2, 1, 1);
    tlb.insert(0, 0x1000, walkOf(0x1000, PermRW));
    tlb.insert(0, 0x2000, walkOf(0x2000, PermRW));
    EXPECT_NE(tlb.lookup(0, 0x1000), nullptr); // touch 0x1000
    tlb.insert(0, 0x3000, walkOf(0x3000, PermRW));
    EXPECT_NE(tlb.lookup(0, 0x1000), nullptr); // survived
    EXPECT_EQ(tlb.lookup(0, 0x2000), nullptr); // evicted
}

TEST(Iotlb, HugeEntryServes4kLookups)
{
    Iotlb tlb;
    tlb.insert(0, 0x0, walkOf(0x200000, PermRW, /*huge=*/true));
    const TlbEntry *e = tlb.lookup(0, 0x12345);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->huge);
    EXPECT_EQ(e->paPage, 0x200000u);
}

TEST(Iotlb, LowBitIndexingConflicts)
{
    // Two IOVAs that differ only in high bits land in the same set —
    // the conflict behaviour DAMN's metadata encoding suffers from.
    Iotlb tlb(4, 1, 1, 1); // 4 sets x 1 way
    const Iova a = 0x0000'0000'5000;
    const Iova b = 0x4000'0000'5000; // same low bits
    tlb.insert(0, a, walkOf(0x1000, PermRW));
    tlb.insert(0, b, walkOf(0x2000, PermRW));
    EXPECT_EQ(tlb.lookup(0, a), nullptr); // evicted by b
    EXPECT_NE(tlb.lookup(0, b), nullptr);
}

TEST(Iotlb, WalkCacheHitsOnRegionReuse)
{
    Iotlb tlb;
    EXPECT_FALSE(tlb.walkCached(0, 0x100000)); // cold
    EXPECT_TRUE(tlb.walkCached(0, 0x150000));  // same 2 MiB region
    EXPECT_FALSE(tlb.walkCached(0, 0x400000)); // different region
}

TEST(Iotlb, WalkCacheThrashesAcrossManyRegions)
{
    Iotlb tlb;
    // Touch 64 distinct regions (cache holds 32): round two misses.
    for (Iova r = 0; r < 64; ++r)
        tlb.walkCached(0, r << 21);
    EXPECT_FALSE(tlb.walkCached(0, 0ull << 21));
}

TEST(Iotlb, ZeroLengthRangeDropsContainingPage)
{
    Iotlb tlb;
    tlb.insert(0, 0x5000, walkOf(0x9000, PermRW));
    tlb.insert(0, 0x6000, walkOf(0xa000, PermRW));
    tlb.invalidateRange(0, 0x6000, 0); // aligned: covers nothing
    EXPECT_EQ(tlb.validEntries(0).size(), 2u);
    tlb.invalidateRange(0, 0x5123, 0); // unaligned: its own page
    const auto left = tlb.validEntries(0);
    ASSERT_EQ(left.size(), 1u);
    EXPECT_EQ(left[0].iovaPage, 0x6000u);
}

namespace {

/** Everything that identifies one cached entry, for exact comparison. */
std::vector<std::tuple<Iova, bool, mem::Pa, std::uint64_t>>
entryKeys(const std::vector<TlbEntry> &v)
{
    std::vector<std::tuple<Iova, bool, mem::Pa, std::uint64_t>> out;
    for (const TlbEntry &e : v)
        out.emplace_back(e.iovaPage, e.huge, e.paPage, e.lastUse);
    return out;
}

/** invalidateRange's coverage rule: [iova, iova+len) with its end
 *  saturated at 2^64, compared against the entry's inclusive last
 *  byte.  Computed in 128 bits so neither end can overflow. */
bool
rangeCovers(const TlbEntry &e, Iova iova, std::uint64_t len)
{
    using u128 = unsigned __int128;
    const u128 sz = e.huge ? kHugePageSize : mem::kPageSize;
    return e.iovaPage < u128(iova) + len && e.iovaPage + sz > iova;
}

/** Full-scan reference for invalidateRange: the entries of @p before
 *  that no byte of [iova, iova+len) touches, in the same order. */
std::vector<TlbEntry>
referenceSurvivors(const std::vector<TlbEntry> &before, Iova iova,
                   std::uint64_t len)
{
    std::vector<TlbEntry> out;
    for (const TlbEntry &e : before)
        if (!rangeCovers(e, iova, len))
            out.push_back(e);
    return out;
}

struct Geometry
{
    const char *name;
    unsigned sets4k, ways4k, sets2m, ways2m;
};

} // namespace

TEST(Iotlb, SetProbedInvalidationMatchesFullScan)
{
    // Tags cluster in three windows (low, the DAMN high half, just
    // below 2^64) so random ranges hit cached entries, and the top
    // window lets a range wrap past 2^64.
    const Iova bases[] = {0, 0x4000'0000'0000ull, 0ull - (16ull << 20)};
    const Geometry geoms[] = {
        {"vtd", 256, 4, 32, 4},
        {"smmuv3", 128, 4, 16, 4},
        {"one-set", 1, 4, 1, 2},
    };
    for (const Geometry &g : geoms) {
        SCOPED_TRACE(g.name);
        Iotlb tlb(g.sets4k, g.ways4k, g.sets2m, g.ways2m);
        sim::Rng rng(0x5e7 + g.sets4k);
        const std::uint64_t setsSpan4k =
            std::uint64_t(g.sets4k) * mem::kPageSize;
        for (unsigned round = 0; round < 4000; ++round) {
            // A few random fills per round, both domains, both banks.
            for (unsigned f = 0; f < 3; ++f) {
                const DomainId d = DomainId(rng.below(2));
                const Iova base = bases[rng.below(3)];
                const bool huge = rng.chance(0.25);
                const Iova iova =
                    huge ? base + rng.below(4) * kHugePageSize
                         : base + rng.below(2048) * mem::kPageSize;
                tlb.insert(d, iova,
                           walkOf(rng.next() & ~0xfffull, PermRW, huge));
            }

            const DomainId d = DomainId(rng.below(2));
            const Iova base = bases[rng.below(3)];
            Iova iova = base + rng.below(8ull << 20);
            std::uint64_t len = 0;
            switch (rng.below(6)) {
              case 0: // zero-length, unaligned
                iova |= 1 + rng.below(mem::kPageSize - 1);
                len = 0;
                break;
              case 1: // exactly `sets` pages (the full-scan threshold)
                len = setsSpan4k;
                break;
              case 2: // larger than that
                len = setsSpan4k + 1 + rng.below(setsSpan4k);
                break;
              case 3: { // straddles a 2 MiB boundary
                const std::uint64_t x = 1 + rng.below(64 * mem::kPageSize);
                iova = base + (1 + rng.below(3)) * kHugePageSize - x;
                len = x + 1 + rng.below(64 * mem::kPageSize);
              } break;
              case 4: // iova + len wraps past 2^64
                iova = bases[2] + rng.below(16ull << 20);
                len = (0 - iova) + 1 + rng.below(1ull << 20);
                break;
              default: // small random range
                len = rng.below(16 * mem::kPageSize);
                break;
            }

            const auto before0 = tlb.validEntries(d);
            const auto before1 = tlb.validEntries(1 - d);
            tlb.invalidateRange(d, iova, len);
            ASSERT_EQ(entryKeys(tlb.validEntries(d)),
                      entryKeys(referenceSurvivors(before0, iova, len)))
                << "round " << round << " iova " << iova << " len " << len;
            ASSERT_EQ(entryKeys(tlb.validEntries(1 - d)),
                      entryKeys(before1))
                << "other domain touched in round " << round;
        }
    }
}

TEST(Iotlb, RangeEndSaturatesAtTopOfAddressSpace)
{
    // Regressions: tag + size overflowed to 0 on the last page, so no
    // range could drop it, and a range whose end wrapped past 2^64
    // dropped nothing in [iova, 2^64).  64 low fills keep the live
    // index longer than a one-page probe, so both walks are covered.
    const Iova top4k = 0ull - mem::kPageSize;
    const Iova top2m = 0ull - kHugePageSize;
    Iotlb tlb;
    for (Iova p = 0; p < 64; ++p)
        tlb.insert(0, p * mem::kPageSize, walkOf(0x1000, PermRW));
    const auto has = [&tlb](Iova iova) {
        for (const TlbEntry &e : tlb.validEntries(0))
            if (e.iovaPage == iova)
                return true;
        return false;
    };

    // A range inside the top page, not reaching its end.
    tlb.insert(0, top4k, walkOf(0x9000, PermRW));
    tlb.invalidateRange(0, top4k + 0x10, 0x20);
    EXPECT_FALSE(has(top4k));
    // Zero-length, unaligned, on the top page.
    tlb.insert(0, top4k, walkOf(0x9000, PermRW));
    tlb.invalidateRange(0, top4k + 0x123, 0);
    EXPECT_FALSE(has(top4k));
    // A range ending exactly at 2^64 (iova + len == 0).
    tlb.insert(0, top4k, walkOf(0x9000, PermRW));
    tlb.invalidateRange(0, top4k, mem::kPageSize);
    EXPECT_FALSE(has(top4k));
    // A range wrapping past 2^64 drops the top 4 KiB and 2 MiB pages,
    // but saturates: the low pages it would wrap onto survive.
    tlb.insert(0, top4k, walkOf(0x9000, PermRW));
    tlb.insert(0, top2m, walkOf(0x200000, PermRW, true));
    tlb.invalidateRange(0, top4k + 0x800, 0x4000);
    EXPECT_FALSE(has(top4k));
    EXPECT_FALSE(has(top2m));
    EXPECT_EQ(tlb.validEntries(0).size(), 64u);
}

namespace {

/**
 * The IOTLB as a plain full scan of both banks: the behaviour the
 * live-index implementation must reproduce entry for entry, stamp for
 * stamp and counter for counter.
 */
class ReferenceIotlb
{
  public:
    ReferenceIotlb(unsigned sets4k, unsigned ways4k, unsigned sets2m,
                   unsigned ways2m)
        : sets_{sets4k, sets2m}, ways_{ways4k, ways2m},
          bank_{std::vector<TlbEntry>(std::size_t(sets4k) * ways4k),
                std::vector<TlbEntry>(std::size_t(sets2m) * ways2m)}
    {}

    const TlbEntry *
    lookup(DomainId d, Iova iova)
    {
        for (const bool huge : {true, false}) {
            const Iova tag = iova & ~(pageSize(huge) - 1);
            TlbEntry *set = setOf(huge, tag);
            for (unsigned w = 0; w < ways_[huge]; ++w)
                if (set[w].valid && set[w].domain == d &&
                    set[w].iovaPage == tag && set[w].huge == huge) {
                    set[w].lastUse = ++clock_;
                    ++hits;
                    return &set[w];
                }
        }
        ++misses;
        return nullptr;
    }

    void
    insert(DomainId d, Iova iova, const WalkResult &w)
    {
        const Iova tag = iova & ~(pageSize(w.huge) - 1);
        TlbEntry *set = setOf(w.huge, tag);
        TlbEntry *victim = &set[0];
        for (unsigned i = 0; i < ways_[w.huge]; ++i) {
            TlbEntry &e = set[i];
            if (e.valid && e.domain == d && e.iovaPage == tag &&
                e.huge == w.huge) {
                victim = &e;
                break;
            }
            if (!e.valid)
                victim = &e;
            else if (victim->valid && e.lastUse < victim->lastUse)
                victim = &e;
        }
        *victim = {true, d, tag, w.pa & ~(pageSize(w.huge) - 1), w.perm,
                   w.huge, ++clock_};
        ++fills;
    }

    void
    invalidateRange(DomainId d, Iova iova, std::uint64_t len)
    {
        if (consumeDrop())
            return;
        dropIf([&](const TlbEntry &e) {
            return e.domain == d && rangeCovers(e, iova, len);
        });
    }

    void
    invalidateDomain(DomainId d)
    {
        if (consumeDrop())
            return;
        dropIf([d](const TlbEntry &e) { return e.domain == d; });
    }

    void
    invalidateAll()
    {
        dropIf([](const TlbEntry &) { return true; });
    }

    std::vector<TlbEntry>
    validEntries(DomainId d) const
    {
        std::vector<TlbEntry> out;
        for (const auto &bank : bank_)
            for (const TlbEntry &e : bank)
                if (e.valid && e.domain == d)
                    out.push_back(e);
        return out;
    }

    unsigned dropRemaining = 0;
    std::uint64_t hits = 0, misses = 0, fills = 0, invalidations = 0;

  private:
    static std::uint64_t
    pageSize(bool huge)
    {
        return huge ? kHugePageSize : mem::kPageSize;
    }

    TlbEntry *
    setOf(bool huge, Iova tag)
    {
        const unsigned shift = huge ? 21 : 12;
        return &bank_[huge][std::size_t((tag >> shift) % sets_[huge]) *
                            ways_[huge]];
    }

    bool
    consumeDrop()
    {
        if (dropRemaining > 0) {
            --dropRemaining;
            return true;
        }
        return false;
    }

    template <class Pred>
    void
    dropIf(Pred pred)
    {
        ++invalidations;
        for (auto &bank : bank_)
            for (TlbEntry &e : bank)
                if (e.valid && pred(e))
                    e.valid = false;
    }

    unsigned sets_[2], ways_[2];
    std::vector<TlbEntry> bank_[2];
    std::uint64_t clock_ = 0;
};

} // namespace

TEST(Iotlb, LiveIndexMatchesFullScanReference)
{
    const Iova bases[] = {0, 0x4000'0000'0000ull, 0ull - (16ull << 20)};
    const Geometry geoms[] = {
        {"vtd", 256, 4, 32, 4},
        {"smmuv3", 128, 4, 16, 4},
        {"one-set", 1, 4, 1, 2},
    };
    constexpr DomainId kDomains = 3;
    for (const Geometry &g : geoms) {
        SCOPED_TRACE(g.name);
        Iotlb tlb(g.sets4k, g.ways4k, g.sets2m, g.ways2m);
        ReferenceIotlb ref(g.sets4k, g.ways4k, g.sets2m, g.ways2m);
        sim::Rng rng(0x1d3 + g.sets4k);
        const auto randomIova = [&] {
            const Iova base = bases[rng.below(3)];
            return rng.chance(0.2)
                       ? base + rng.below(8) * kHugePageSize
                       : base + rng.below(4096) * mem::kPageSize +
                             rng.below(mem::kPageSize);
        };
        for (unsigned op = 0; op < 20000; ++op) {
            const DomainId d = DomainId(rng.below(kDomains));
            const unsigned kind = unsigned(rng.below(100));
            if (kind < 45) {
                const bool huge = rng.chance(0.25);
                const Iova iova = randomIova();
                const WalkResult w =
                    walkOf(rng.next() & ~0xfffull, PermRW, huge);
                tlb.insert(d, iova, w);
                ref.insert(d, iova, w);
            } else if (kind < 75) {
                const Iova iova = randomIova();
                const TlbEntry *got = tlb.lookup(d, iova);
                const TlbEntry *want = ref.lookup(d, iova);
                ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
                if (got != nullptr) {
                    ASSERT_EQ(entryKeys({*got}), entryKeys({*want}))
                        << "op " << op;
                }
            } else if (kind < 90) {
                const Iova iova = randomIova();
                const std::uint64_t len =
                    rng.chance(0.1) ? (0 - iova) + rng.below(1ull << 22)
                    : rng.chance(0.2)
                        ? rng.below(std::uint64_t(g.sets4k + 4) << 12)
                        : rng.below(8 * mem::kPageSize);
                tlb.invalidateRange(d, iova, len);
                ref.invalidateRange(d, iova, len);
            } else if (kind < 96) {
                tlb.invalidateDomain(d);
                ref.invalidateDomain(d);
            } else if (kind < 98) {
                tlb.invalidateAll();
                ref.invalidateAll();
            } else {
                const unsigned n = unsigned(rng.below(3));
                tlb.debugDropInvalidations(n);
                ref.dropRemaining = n;
            }
            for (DomainId k = 0; k < kDomains; ++k)
                ASSERT_EQ(entryKeys(tlb.validEntries(k)),
                          entryKeys(ref.validEntries(k)))
                    << "op " << op << " domain " << k;
            ASSERT_EQ(tlb.hits(), ref.hits);
            ASSERT_EQ(tlb.misses(), ref.misses);
            ASSERT_EQ(tlb.fills(), ref.fills);
            ASSERT_EQ(tlb.invalidations(), ref.invalidations);
        }
    }
}

namespace {

/** The page-walk cache as a stamp scan: each probe walks every entry,
 *  taking the last empty one, else the oldest stamp, as the victim. */
class ReferencePwc
{
  public:
    explicit ReferencePwc(unsigned entries) : pwc_(entries) {}

    bool
    walkCached(DomainId d, Iova iova)
    {
        const Iova tag = iova >> 21;
        Entry *victim = &pwc_[0];
        for (Entry &e : pwc_) {
            if (e.valid && e.domain == d && e.tag == tag) {
                e.lastUse = ++clock_;
                return true;
            }
            if (!e.valid || e.lastUse < victim->lastUse)
                victim = &e;
        }
        *victim = {true, d, tag, ++clock_};
        return false;
    }

  private:
    struct Entry
    {
        bool valid = false;
        DomainId domain = 0;
        Iova tag = 0;
        std::uint64_t lastUse = 0;
    };

    std::vector<Entry> pwc_;
    std::uint64_t clock_ = 0;
};

} // namespace

// The LRU-list page-walk cache against the stamp scan, draw for draw,
// over more (domain, region) pairs than it holds.  IOTLB traffic runs
// alongside: its entries must not disturb the walk cache.
TEST(Iotlb, WalkCacheMatchesStampScanReference)
{
    for (const unsigned entries : {32u, 16u, 3u, 1u}) {
        SCOPED_TRACE(entries);
        Iotlb tlb(256, 4, 32, 4, entries);
        ReferencePwc ref(entries);
        sim::Rng rng(0x9c + entries);
        const Iova bases[] = {0, 0x4000'0000'0000ull,
                              0ull - (64ull << 21)};
        std::uint64_t hits = 0;
        for (unsigned i = 0; i < 100'000; ++i) {
            // Half the draws from a hot set that fits, half from nine
            // times the capacity: both hits and LRU evictions matter.
            const bool hot = rng.chance(0.5);
            const DomainId d = hot ? 0 : DomainId(rng.below(3));
            const std::uint64_t region =
                hot ? rng.below(entries / 2 + 1) : rng.below(entries);
            const Iova iova = (hot ? bases[0] : bases[rng.below(3)]) +
                              (region << 21) + rng.below(kHugePageSize);
            if (rng.chance(0.1))
                tlb.insert(d, iova, walkOf(0x1000 * i, PermRW));
            const bool got = tlb.walkCached(d, iova);
            ASSERT_EQ(got, ref.walkCached(d, iova)) << "draw " << i;
            hits += got;
        }
        EXPECT_GT(hits, 10'000u);
        EXPECT_LT(hits, 90'000u);
    }
}

// lookup() probes the 2 MiB bank only while it counts a valid entry
// there.  A huge entry hits until it is invalidated; each kind of
// invalidation leaves the others' huge entries hitting (an undercount
// would skip the bank); and 4 KiB lookups hit and miss, and count, the
// same with or without huge entries around.
TEST(Iotlb, HugeEntriesHitUntilInvalidated)
{
    Iotlb tlb;
    tlb.insert(0, 0x5000, walkOf(0x9000, PermRW));
    // 4 KiB hits and misses, and what one pair of them counts.
    const auto probe4k = [&tlb] {
        const std::uint64_t hits = tlb.hits(), misses = tlb.misses();
        EXPECT_NE(tlb.lookup(0, 0x5abc), nullptr);
        EXPECT_EQ(tlb.lookup(0, 0x6000), nullptr);
        EXPECT_EQ(tlb.hits(), hits + 1);
        EXPECT_EQ(tlb.misses(), misses + 1);
    };
    probe4k();

    const Iova big = 0x4000'0000;
    tlb.insert(0, big, walkOf(0x8000'0000, PermRW, true));
    tlb.insert(0, big, walkOf(0x8000'0000, PermRW, true)); // refill
    const TlbEntry *e = tlb.lookup(0, big + 0x12345);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->huge);
    EXPECT_EQ(tlb.lookup(1, big), nullptr); // other domain
    probe4k();

    tlb.invalidateRange(0, big + 0x3000, 1);
    EXPECT_EQ(tlb.lookup(0, big + 0x12345), nullptr);
    probe4k();

    // Each kind of invalidation drops only its own huge entries: the
    // survivors still hit, so the bank is still probed.
    tlb.insert(0, big, walkOf(0x8000'0000, PermRW, true));
    tlb.insert(1, big, walkOf(0x8000'0000, PermRW, true));
    tlb.insert(2, big, walkOf(0x8000'0000, PermRW, true));
    tlb.invalidateRange(0, 0x5000, 1); // a 4 KiB entry only
    EXPECT_EQ(tlb.lookup(0, 0x5abc), nullptr);
    EXPECT_NE(tlb.lookup(0, big), nullptr);
    tlb.invalidateRange(1, big, kHugePageSize);
    EXPECT_EQ(tlb.lookup(1, big), nullptr);
    EXPECT_NE(tlb.lookup(0, big), nullptr);
    EXPECT_NE(tlb.lookup(2, big), nullptr);
    tlb.invalidateDomain(2);
    EXPECT_EQ(tlb.lookup(2, big), nullptr);
    EXPECT_NE(tlb.lookup(0, big), nullptr);
    tlb.invalidateAll();
    EXPECT_EQ(tlb.lookup(0, big), nullptr);
    EXPECT_EQ(tlb.lookup(0, 0x5abc), nullptr);

    // Refilled after invalidateAll(), both banks hit again.
    tlb.insert(0, 0x5000, walkOf(0x9000, PermRW));
    tlb.insert(3, big, walkOf(0x8000'0000, PermRW, true));
    probe4k();
    EXPECT_NE(tlb.lookup(3, big + 0x1000), nullptr);
}

TEST(Iotlb, HitRateStat)
{
    Iotlb tlb;
    tlb.insert(0, 0x1000, walkOf(0x1000, PermRW));
    tlb.lookup(0, 0x1000);
    tlb.lookup(0, 0x2000);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
    tlb.resetAccounting();
    EXPECT_EQ(tlb.hits() + tlb.misses(), 0u);
}

// ---------------------------------------------------------------------
// IovaAllocator
// ---------------------------------------------------------------------

TEST(IovaAllocator, AllocatesDistinctRanges)
{
    IovaAllocator a;
    const Iova x = a.alloc(4);
    const Iova y = a.alloc(4);
    EXPECT_NE(x, y);
    EXPECT_GE(y, x + 4 * mem::kPageSize);
}

TEST(IovaAllocator, RecyclesFreedRanges)
{
    IovaAllocator a;
    const Iova x = a.alloc(4);
    a.free(x, 4);
    EXPECT_EQ(a.alloc(4), x);
    EXPECT_EQ(a.recycled(), 1u);
}

TEST(IovaAllocator, SizeBucketsIndependent)
{
    IovaAllocator a;
    const Iova x = a.alloc(4);
    a.free(x, 4);
    const Iova y = a.alloc(2); // different bucket: no reuse
    EXPECT_NE(y, x);
}

TEST(IovaAllocator, StaysBelowDamnBit)
{
    IovaAllocator a;
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(a.alloc(16), kDamnIovaBit);
}

TEST(IovaAllocator, PageAligned)
{
    IovaAllocator a;
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.alloc(3) % mem::kPageSize, 0u);
}

TEST(IovaAllocator, ExhaustionReturnsInvalid)
{
    IovaAllocator a;
    a.setSpaceBytes(16 * mem::kPageSize);
    for (int i = 0; i < 4; ++i)
        EXPECT_NE(a.alloc(4), kInvalidIova);
    EXPECT_EQ(a.alloc(4), kInvalidIova);
    EXPECT_EQ(a.failures(), 1u);
    EXPECT_DOUBLE_EQ(a.utilization(), 1.0);
}

TEST(IovaAllocator, ExhaustionRecoversViaRecycling)
{
    IovaAllocator a;
    a.setSpaceBytes(16 * mem::kPageSize);
    Iova ranges[4];
    for (Iova &r : ranges)
        r = a.alloc(4);
    EXPECT_EQ(a.alloc(4), kInvalidIova);
    a.free(ranges[2], 4);
    EXPECT_EQ(a.alloc(4), ranges[2]);
    // The freelist hit does not count as a failure.
    EXPECT_EQ(a.failures(), 1u);
}

TEST(IovaAllocator, SplitsLargerRecycledRangeWhenExhausted)
{
    IovaAllocator a;
    a.setSpaceBytes(16 * mem::kPageSize);
    const Iova big = a.alloc(16);
    a.free(big, 16);
    // Fresh space is gone; a 4-page request must carve the recycled
    // 16-page range instead of failing on a size-bucket miss.
    EXPECT_EQ(a.alloc(4), big);
    EXPECT_EQ(a.splits(), 1u);
    // The 12-page remainder keeps satisfying smaller requests.
    EXPECT_EQ(a.alloc(4), big + 4 * mem::kPageSize);
    EXPECT_EQ(a.alloc(4), big + 8 * mem::kPageSize);
    EXPECT_EQ(a.alloc(4), big + 12 * mem::kPageSize);
    EXPECT_EQ(a.alloc(4), kInvalidIova);
}

TEST(IovaAllocator, OutstandingChurnDoesNotLeak)
{
    IovaAllocator a;
    a.setSpaceBytes(64 * mem::kPageSize);
    for (int round = 0; round < 1000; ++round) {
        const Iova x = a.alloc(4);
        const Iova y = a.alloc(2);
        ASSERT_NE(x, kInvalidIova);
        ASSERT_NE(y, kInvalidIova);
        a.free(x, 4);
        a.free(y, 2);
    }
    EXPECT_EQ(a.outstanding(), 0u);
    EXPECT_EQ(a.failures(), 0u);
    EXPECT_GT(a.recycled(), 0u);
}

TEST(IovaAllocator, ShrinkingSpaceOnlyAffectsFreshAllocations)
{
    IovaAllocator a;
    const Iova x = a.alloc(8);
    a.setSpaceBytes(4 * mem::kPageSize); // below the high-water mark
    a.free(x, 8);
    EXPECT_EQ(a.alloc(8), x); // recycling still works
}

// ---------------------------------------------------------------------
// Iommu facade
// ---------------------------------------------------------------------

namespace {

struct IommuFixture : ::testing::Test
{
    IommuFixture() : ctx(sim::CostModel{}, 1, 2), mmu(ctx) {}

    sim::Context ctx;
    Iommu mmu;
};

} // namespace

TEST_F(IommuFixture, DisabledIsIdentity)
{
    Iommu off(ctx, /*enabled=*/false);
    const DomainId d = off.createDomain();
    const TranslateResult r = off.translate(d, 0x12345678, true);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pa, 0x12345678u);
    EXPECT_EQ(r.latencyNs, 0u);
}

TEST_F(IommuFixture, MissingMappingFaults)
{
    const DomainId d = mmu.createDomain();
    const TranslateResult r = mmu.translate(d, 0x5000, false);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(mmu.faults(), 1u);
}

TEST_F(IommuFixture, PermissionEnforced)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRead);
    EXPECT_TRUE(mmu.translate(d, 0x5000, false).ok);
    EXPECT_TRUE(mmu.translate(d, 0x5000, true).fault);
}

TEST_F(IommuFixture, WalkThenTlbHit)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    const TranslateResult miss = mmu.translate(d, 0x5100, true);
    EXPECT_TRUE(miss.ok);
    EXPECT_EQ(miss.pa, 0x9100u);
    EXPECT_GT(miss.latencyNs, 0u);
    const TranslateResult hit = mmu.translate(d, 0x5200, true);
    EXPECT_TRUE(hit.ok);
    EXPECT_EQ(hit.latencyNs, 0u);
}

TEST_F(IommuFixture, StaleTlbServesAfterPteClear)
{
    // The deferred-window mechanism in one test: clearing the PTE does
    // not revoke a cached translation until an IOTLB invalidation.
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    mmu.translate(d, 0x5000, true); // cache it
    mmu.unmapPage(d, 0x5000);
    EXPECT_TRUE(mmu.translate(d, 0x5000, true).ok) << "stale hit";
    mmu.iotlb().invalidateRange(d, 0x5000, 0x1000);
    EXPECT_TRUE(mmu.translate(d, 0x5000, true).fault);
}

TEST_F(IommuFixture, PerDomainPageTables)
{
    const DomainId d0 = mmu.createDomain();
    const DomainId d1 = mmu.createDomain();
    mmu.mapPage(d0, 0x5000, 0x9000, PermRW);
    EXPECT_TRUE(mmu.translate(d0, 0x5000, true).ok);
    EXPECT_TRUE(mmu.translate(d1, 0x5000, true).fault);
}

TEST_F(IommuFixture, EverVsCurrentlyMapped)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    mmu.mapPage(d, 0x6000, 0xa000, PermRW);
    EXPECT_EQ(mmu.everMappedFrames(), 2u);
    EXPECT_EQ(mmu.currentlyMappedPages(), 2u);
    mmu.unmapPage(d, 0x5000);
    EXPECT_EQ(mmu.everMappedFrames(), 2u); // monotonic
    EXPECT_EQ(mmu.currentlyMappedPages(), 1u);
    // Re-mapping the same frame does not grow the ever set.
    mmu.mapPage(d, 0x7000, 0x9000, PermRW);
    EXPECT_EQ(mmu.everMappedFrames(), 2u);
}

// everMappedFrames() counts distinct frames: remaps of a frame, a
// 2 MiB block overlapping earlier 4 KiB frames, and a first map far
// above every earlier frame (the frame bitmap grows there) each add
// exactly the frames not seen before, and unmaps never subtract.
TEST_F(IommuFixture, EverMappedFramesDistinctAndMonotonic)
{
    const DomainId d = mmu.createDomain();
    const DomainId e = mmu.createDomain();
    mmu.mapPage(d, 0x1000, 0x201000, PermRW); // frame 0x201
    mmu.mapPage(e, 0x1000, 0x201000, PermRead);
    EXPECT_EQ(mmu.everMappedFrames(), 1u);
    mmu.unmapPage(d, 0x1000);
    mmu.mapPage(d, 0x1000, 0x201000, PermRW);
    EXPECT_EQ(mmu.everMappedFrames(), 1u);

    // Frames 0x200..0x3ff, of which 0x201 was already counted.
    ASSERT_TRUE(mmu.mapHuge(d, 0x200000, 0x200000, PermRW));
    EXPECT_EQ(mmu.everMappedFrames(), 512u);
    mmu.mapPage(e, 0x2000, 0x3ff000, PermRW); // inside the block
    EXPECT_EQ(mmu.everMappedFrames(), 512u);

    // 3 GiB up, far past the bitmap's words so far.
    const mem::Pa far = 3ull << 30;
    mmu.mapPage(d, 0x3000, far, PermRW);
    EXPECT_EQ(mmu.everMappedFrames(), 513u);
    mmu.mapPage(d, 0x4000, far - mem::kPageSize, PermRW);
    mmu.mapPage(e, 0x3000, far, PermRW);
    EXPECT_EQ(mmu.everMappedFrames(), 514u);

    mmu.unmapPage(d, 0x3000);
    mmu.detachDomain(e);
    EXPECT_EQ(mmu.everMappedFrames(), 514u);
    // Frame 0 is a frame like any other.
    mmu.mapPage(d, 0x5000, 0, PermRW);
    EXPECT_EQ(mmu.everMappedFrames(), 515u);
}

TEST_F(IommuFixture, SyncInvalidateSerializesOnLock)
{
    const DomainId d = mmu.createDomain();
    auto &be = mmu.backend();
    sim::Core &a = ctx.machine.core(0);
    sim::Core &b = ctx.machine.core(1);
    const sim::TimeNs t1 = be.syncInvalidate(a, 0, d, 0x5000, 0x1000);
    EXPECT_EQ(t1, ctx.cost.strictInvalidateNs);
    const sim::TimeNs t2 = be.syncInvalidate(b, 0, d, 0x6000, 0x1000);
    EXPECT_EQ(t2, 2 * ctx.cost.strictInvalidateNs);
}

TEST_F(IommuFixture, BatchedFlushInvalidatesEverything)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    mmu.translate(d, 0x5000, true);
    mmu.unmapPage(d, 0x5000);
    mmu.backend().batchedFlush(ctx.machine.core(0), 0, {d});
    EXPECT_TRUE(mmu.translate(d, 0x5000, true).fault);
}

TEST_F(IommuFixture, HugeMappingTranslates)
{
    const DomainId d = mmu.createDomain();
    mmu.mapHuge(d, 0, 0x200000, PermRW);
    const TranslateResult r = mmu.translate(d, 0x123456, false);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pa, 0x200000u + 0x123456);
    EXPECT_EQ(mmu.everMappedFrames(), 512u);
}

// ---------------------------------------------------------------------
// Backend conformance: both hardware models must behave identically
// through the facade (map/unmap/translate/invalidate/fault/detach).
// ---------------------------------------------------------------------

class BackendConformance : public ::testing::TestWithParam<BackendKind>
{
  protected:
    BackendConformance()
        : ctx(sim::CostModel{}, 1, 2), mmu(ctx, true, GetParam())
    {}

    sim::Context ctx;
    Iommu mmu;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformance,
    ::testing::Values(BackendKind::Vtd, BackendKind::SmmuV3),
    [](const ::testing::TestParamInfo<BackendKind> &p) {
        return std::string(backendKindName(p.param)) == "vtd" ? "vtd"
                                                              : "smmuv3";
    });

TEST_P(BackendConformance, ReportsItsKind)
{
    EXPECT_EQ(mmu.backendKind(), GetParam());
    EXPECT_EQ(mmu.backend().kind(), GetParam());
    EXPECT_STREQ(mmu.backend().name(), backendKindName(GetParam()));
}

TEST_P(BackendConformance, MapTranslateUnmap)
{
    const DomainId d = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(d, 0x5000, 0x9000, PermRW));
    const TranslateResult r = mmu.translate(d, 0x5123, true);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pa, 0x9123u);
    ASSERT_TRUE(mmu.unmapPage(d, 0x5000));
    mmu.backend().syncInvalidate(ctx.machine.core(0), 0, d, 0x5000,
                                 4096);
    EXPECT_TRUE(mmu.translate(d, 0x5123, true).fault);
}

TEST_P(BackendConformance, SyncInvalidateRevokesStaleEntry)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    mmu.translate(d, 0x5000, true); // cache it
    mmu.unmapPage(d, 0x5000);
    // Stale until a flush covering the range completes: the contract
    // every deferred-window experiment relies on, on both backends.
    EXPECT_TRUE(mmu.translate(d, 0x5000, true).ok);
    const sim::TimeNs done = mmu.backend().syncInvalidate(
        ctx.machine.core(0), 0, d, 0x5000, 4096);
    EXPECT_GT(done, 0u);
    EXPECT_TRUE(mmu.translate(d, 0x5000, true).fault);
}

TEST_P(BackendConformance, SyncInvalidateRangesRevokesAll)
{
    const DomainId d = mmu.createDomain();
    for (Iova va = 0x5000; va < 0x8000; va += 0x1000) {
        mmu.mapPage(d, va, 0x10000 + va, PermRW);
        mmu.translate(d, va, true);
        mmu.unmapPage(d, va);
    }
    const std::vector<IommuBackend::InvalRange> ranges = {
        {d, 0x5000, 4096}, {d, 0x6000, 4096}, {d, 0x7000, 4096}};
    mmu.backend().syncInvalidateRanges(ctx.machine.core(0), 0, ranges);
    for (Iova va = 0x5000; va < 0x8000; va += 0x1000)
        EXPECT_TRUE(mmu.translate(d, va, true).fault) << va;
}

TEST_P(BackendConformance, BatchedFlushScopedToDomains)
{
    const DomainId a = mmu.createDomain();
    const DomainId b = mmu.createDomain();
    mmu.mapPage(a, 0x5000, 0x9000, PermRW);
    mmu.mapPage(b, 0x5000, 0xa000, PermRW);
    mmu.translate(a, 0x5000, true);
    mmu.translate(b, 0x5000, true);
    mmu.unmapPage(a, 0x5000);
    mmu.backend().batchedFlush(ctx.machine.core(0), 0, {a});
    EXPECT_TRUE(mmu.translate(a, 0x5000, true).fault);
    // Domain b's warm entry must survive a flush scoped to a.
    EXPECT_NE(mmu.iotlb().lookup(b, 0x5000), nullptr);
}

TEST_P(BackendConformance, BatchedFlushAllClearsEverything)
{
    const DomainId a = mmu.createDomain();
    const DomainId b = mmu.createDomain();
    mmu.mapPage(a, 0x5000, 0x9000, PermRW);
    mmu.mapPage(b, 0x6000, 0xa000, PermRW);
    mmu.translate(a, 0x5000, true);
    mmu.translate(b, 0x6000, true);
    mmu.backend().batchedFlushAll(ctx.machine.core(0), 0);
    EXPECT_EQ(mmu.iotlb().lookup(a, 0x5000), nullptr);
    EXPECT_EQ(mmu.iotlb().lookup(b, 0x6000), nullptr);
}

TEST_P(BackendConformance, FaultRecordedOnUnmappedAccess)
{
    const DomainId d = mmu.createDomain();
    EXPECT_TRUE(mmu.translate(d, 0xdead000, true).fault);
    ASSERT_EQ(mmu.faultLog().size(), 1u);
    EXPECT_EQ(mmu.faultLog()[0].domain, d);
    EXPECT_EQ(mmu.faultLog()[0].iova, 0xdead000u);
    EXPECT_EQ(mmu.faultLog()[0].reason, FaultReason::NotPresent);
}

TEST_P(BackendConformance, PermissionFaultParity)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRead);
    EXPECT_TRUE(mmu.translate(d, 0x5000, false).ok);
    EXPECT_TRUE(mmu.translate(d, 0x5000, true).fault);
    ASSERT_EQ(mmu.faultLog().size(), 1u);
    EXPECT_EQ(mmu.faultLog()[0].reason, FaultReason::Permission);
}

TEST_P(BackendConformance, DetachStopsTranslation)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    mmu.translate(d, 0x5000, true);
    mmu.detachDomain(d);
    const TranslateResult r = mmu.translate(d, 0x5000, true);
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(mmu.faultLog().back().reason, FaultReason::Detached);
}

TEST(IovaAllocator, DmaApiHalfEndsAtTheDamnTagBit)
{
    // Both backends implement 48 input bits: the DMA-API half is
    // [kIovaBase, 2^47), and no space setting reaches DAMN's half.
    static_assert(kDamnIovaBit == Iova{1} << 47);
    IovaAllocator a;
    EXPECT_EQ(a.spaceBytes(), kDamnIovaBit - kIovaBase);
    a.setSpaceBytes(1ull << 60); // experiment knob above the ceiling
    EXPECT_EQ(a.spaceBytes(), kDamnIovaBit - kIovaBase);
    a.setSpaceBytes(2 * mem::kPageSize);
    const Iova first = a.alloc(1);
    EXPECT_EQ(first, kIovaBase);
    EXPECT_NE(a.alloc(1), kInvalidIova);
    EXPECT_EQ(a.alloc(1), kInvalidIova) << "past the space ceiling";
    a.free(first, 1);
    EXPECT_EQ(a.alloc(1), first) << "recycling still works at the cap";
}

// ---------------------------------------------------------------------
// SMMUv3 specifics: command-queue batching, CMD_SYNC ordering, the
// config cache, and the bounded event queue.
// ---------------------------------------------------------------------

namespace {

struct SmmuFixture : ::testing::Test
{
    SmmuFixture() : SmmuFixture(sim::CostModel{}) {}
    explicit SmmuFixture(const sim::CostModel &cm)
        : ctx(cm, 1, 2), mmu(ctx, true, BackendKind::SmmuV3),
          smmu(dynamic_cast<SmmuV3Backend &>(mmu.backend()))
    {}

    sim::Context ctx;
    Iommu mmu;
    SmmuV3Backend &smmu;
};

} // namespace

TEST_F(SmmuFixture, TlbiIsPendingUntilCmdSync)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    mmu.translate(d, 0x5000, true);
    mmu.unmapPage(d, 0x5000);

    smmu.submitTlbiRange(ctx.machine.core(0), 0, d, 0x5000, 4096);
    EXPECT_EQ(smmu.pendingCommands(), 1u);
    // No CMD_SYNC yet: the stale translation is still served.
    EXPECT_NE(mmu.iotlb().lookup(d, 0x5000), nullptr);

    smmu.sync(ctx.machine.core(0), 0);
    EXPECT_EQ(smmu.pendingCommands(), 0u);
    EXPECT_EQ(mmu.iotlb().lookup(d, 0x5000), nullptr);
}

TEST_F(SmmuFixture, CmdSyncCoversEveryPriorCommand)
{
    const DomainId d = mmu.createDomain();
    for (Iova va = 0x5000; va < 0x8000; va += 0x1000) {
        mmu.mapPage(d, va, 0x10000 + va, PermRW);
        mmu.translate(d, va, true);
        mmu.unmapPage(d, va);
        smmu.submitTlbiRange(ctx.machine.core(0), 0, d, va, 4096);
    }
    EXPECT_EQ(smmu.pendingCommands(), 3u);
    smmu.sync(ctx.machine.core(0), 0);
    for (Iova va = 0x5000; va < 0x8000; va += 0x1000)
        EXPECT_EQ(mmu.iotlb().lookup(d, va), nullptr) << va;
}

TEST_F(SmmuFixture, BatchedRangesBeatPerOpSyncs)
{
    const DomainId d = mmu.createDomain();
    const std::vector<IommuBackend::InvalRange> ranges = {
        {d, 0x5000, 4096}, {d, 0x6000, 4096}, {d, 0x7000, 4096}};
    const sim::TimeNs batched = smmu.syncInvalidateRanges(
        ctx.machine.core(0), 0, ranges);

    // Per-op on the second core, serially: each unmap pays its own
    // CMD_SYNC round trip.
    sim::TimeNs serial = 0;
    for (const auto &r : ranges) {
        serial = smmu.syncInvalidate(ctx.machine.core(1), serial,
                                     r.domain, r.iova, r.len);
    }
    EXPECT_LT(batched, serial)
        << "one CMD_SYNC amortizes over the whole batch";
}

TEST_F(SmmuFixture, ProducerLockReleasedBeforeConsumption)
{
    // The architectural asymmetry vs VT-d: with the same per-core
    // arrival times, the second core's batch completes well before
    // two full VT-d invalidation round trips (2 * 1650 ns), because
    // the cmdq lock covers only command production.
    const DomainId d = mmu.createDomain();
    smmu.submitTlbiRange(ctx.machine.core(0), 0, d, 0x5000, 4096);
    const sim::TimeNs other =
        smmu.syncInvalidate(ctx.machine.core(1), 0, d, 0x6000, 4096);
    EXPECT_LT(other, 2 * ctx.cost.strictInvalidateNs);
}

TEST_F(SmmuFixture, ConfigCacheFetchesDescriptorOnce)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    EXPECT_FALSE(smmu.configCached(d));
    const sim::TimeNs first = smmu.walkLatency(d, 0x5000);
    EXPECT_TRUE(smmu.configCached(d));
    const sim::TimeNs second = smmu.walkLatency(d, 0x5000);
    EXPECT_GT(first, second) << "CD fetch + cold walk vs cached walk";
    EXPECT_EQ(ctx.stats.get(sim::Ctr::SmmuCdFetches), 1u);
}

TEST_F(SmmuFixture, DetachDropsStreamTableEntryAndConfigCache)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    smmu.walkLatency(d, 0x5000);
    ASSERT_TRUE(smmu.configCached(d));
    mmu.detachDomain(d);
    EXPECT_FALSE(smmu.configCached(d));
    EXPECT_GE(ctx.stats.get(sim::Ctr::SmmuCfgiSte), 1u);
}

TEST_F(SmmuFixture, InjectedInvalDropKeepsStaleEntries)
{
    const DomainId d = mmu.createDomain();
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    mmu.translate(d, 0x5000, true);
    mmu.unmapPage(d, 0x5000);

    ctx.faults.enable(13);
    ctx.faults.failNth(sim::FaultSite::IommuInval, 1);
    smmu.syncInvalidate(ctx.machine.core(0), 0, d, 0x5000, 4096);
    // The dropped CMD_SYNC left the stale entry behind...
    EXPECT_NE(mmu.iotlb().lookup(d, 0x5000), nullptr);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::IommuInvalDropped), 1u);
    // ...and the next (uninjected) one clears it.
    smmu.syncInvalidate(ctx.machine.core(0), 0, d, 0x5000, 4096);
    EXPECT_EQ(mmu.iotlb().lookup(d, 0x5000), nullptr);
}

namespace {

struct SmmuTinyQueues : SmmuFixture
{
    static sim::CostModel
    tiny()
    {
        sim::CostModel cm;
        cm.smmuCmdqDepth = 4;
        cm.smmuEvtqDepth = 2;
        return cm;
    }
    SmmuTinyQueues() : SmmuFixture(tiny()) {}
};

} // namespace

TEST_F(SmmuTinyQueues, FullCommandQueueStallsTheProducer)
{
    const DomainId d = mmu.createDomain();
    sim::TimeNs t = 0;
    for (unsigned i = 0; i < 6; ++i) {
        t = smmu.submitTlbiRange(ctx.machine.core(0), t, d,
                                 0x5000 + Iova(i) * 0x1000, 4096);
    }
    EXPECT_GE(ctx.stats.get(sim::Ctr::SmmuCmdqStalls), 1u)
        << "6 TLBIs through a 4-deep ring must stall at least once";
    smmu.sync(ctx.machine.core(0), t);
}

TEST_F(SmmuTinyQueues, EventQueueBoundedWithOverflowFlag)
{
    const DomainId d = mmu.createDomain();
    for (Iova va = 0; va < 4; ++va)
        EXPECT_TRUE(mmu.translate(d, 0xdead000 + va * 0x1000, true)
                        .fault);
    // Two records fit; two raised the overflow condition.  The
    // driver-side facade log is NOT bounded by the hardware ring.
    EXPECT_EQ(smmu.eventQueue().size(), 2u);
    EXPECT_EQ(smmu.eventQueueOverflows(), 2u);
    EXPECT_EQ(mmu.faultLog().size(), 4u);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::SmmuEvtqOverflows), 2u);

    EXPECT_EQ(smmu.eventQueue()[0].reason, FaultReason::NotPresent);

    // Draining the ring clears the condition: new records land again.
    smmu.drainEventQueue();
    EXPECT_EQ(smmu.eventQueueDrained(), 2u);
    EXPECT_TRUE(mmu.translate(d, 0xbeef000, true).fault);
    EXPECT_EQ(smmu.eventQueue().size(), 1u);
}
