/**
 * @file
 * Randomized differential tests: the substrates checked against
 * simple reference models over long random operation sequences, plus
 * the chaos-harness tests (src/fuzz): determinism, the clean matrix
 * smoke, the injected-bug oracle self-check + shrinking, and the .dfz
 * corpus round-trip.  All generators draw from the shared fuzz::Rng.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "fuzz/corpus.hh"
#include "fuzz/harness.hh"
#include "fuzz/interval_set.hh"
#include "fuzz/rng.hh"
#include "fuzz/shrink.hh"
#include "iommu/backend_smmu.hh"
#include "iommu/iommu.hh"
#include "iommu/iotlb.hh"
#include "mem/kmalloc.hh"
#include "sim/context.hh"
#include "tests/json_reader.hh"

using namespace damn;
using namespace damn::testjson;

// ---------------------------------------------------------------------
// I/O page table vs a std::map reference
// ---------------------------------------------------------------------

TEST(FuzzPageTable, MatchesReferenceModel)
{
    iommu::IoPageTable pt;
    std::map<iommu::Iova, std::pair<mem::Pa, std::uint32_t>> ref;
    fuzz::Rng rng(101);

    for (int step = 0; step < 20000; ++step) {
        const iommu::Iova iova =
            (rng.below(4096) << 12) | (rng.below(4) << 30);
        const int op = int(rng.below(3));
        if (op == 0) {
            const mem::Pa pa = rng.below(1 << 20) << 12;
            const auto perm = std::uint32_t(rng.between(1, 3));
            const bool ok = pt.map(iova, pa, perm);
            const bool ref_ok = ref.find(iova) == ref.end();
            ASSERT_EQ(ok, ref_ok) << "step " << step;
            if (ok)
                ref[iova] = {pa, perm};
        } else if (op == 1) {
            const bool ok = pt.unmap(iova);
            ASSERT_EQ(ok, ref.erase(iova) == 1) << "step " << step;
        } else {
            const iommu::WalkResult w =
                pt.walk(iova | rng.below(4096));
            const auto it = ref.find(iova);
            ASSERT_EQ(w.present, it != ref.end()) << "step " << step;
            if (w.present) {
                ASSERT_EQ(w.pa & ~0xfffull, it->second.first);
                ASSERT_EQ(w.perm, it->second.second);
            }
        }
    }
    ASSERT_EQ(pt.mapped4kEntries(), ref.size());
}

TEST(FuzzPageTable, MatchesReferenceModelWithHugePages)
{
    using Leaf = std::pair<mem::Pa, std::uint32_t>;
    constexpr iommu::Iova kHugeMask = iommu::kHugePageSize - 1;
    fuzz::Rng rng(202);
    int huge_maps = 0, refused_inside_huge = 0;

    // Short epochs on a fresh table: interior nodes never die, so a
    // long run would leave no region free for a 2 MiB leaf.
    for (int epoch = 0; epoch < 40; ++epoch) {
        iommu::IoPageTable pt;
        std::map<iommu::Iova, Leaf> ref4k, ref2m;
        std::set<iommu::Iova> tabled; // regions that ever held a 4 KiB table

        for (int step = 0; step < 500; ++step) {
            const iommu::Iova region =
                (rng.below(16) << 21) | (rng.below(2) << 39);
            const iommu::Iova page = region | (rng.below(64) << 12);
            const std::uint32_t perm = std::uint32_t(rng.between(1, 3));
            switch (rng.below(4)) {
            case 0: {
                const mem::Pa pa = rng.below(1 << 20) << 12;
                const bool ok = pt.map(page, pa, perm);
                bool ref_ok = false;
                if (ref2m.count(region) == 0) {
                    tabled.insert(region);
                    ref_ok = ref4k.emplace(page, Leaf{pa, perm}).second;
                } else {
                    ++refused_inside_huge;
                }
                ASSERT_EQ(ok, ref_ok) << epoch << "/" << step;
                break;
            }
            case 1:
                ASSERT_EQ(pt.unmap(page), ref4k.erase(page) == 1)
                    << epoch << "/" << step;
                break;
            case 2: {
                const mem::Pa pa = rng.below(1 << 10) << 21;
                const bool ok = pt.mapHuge(region, pa, perm);
                const bool ref_ok = tabled.count(region) == 0 &&
                    ref2m.emplace(region, Leaf{pa, perm}).second;
                ASSERT_EQ(ok, ref_ok) << epoch << "/" << step;
                huge_maps += ok;
                break;
            }
            default: {
                const iommu::Iova iova = page | rng.below(4096);
                const iommu::WalkResult w = pt.walk(iova);
                const auto h = ref2m.find(region);
                const auto p = ref4k.find(page);
                if (h != ref2m.end()) {
                    ASSERT_TRUE(w.present && w.huge) << epoch << "/" << step;
                    ASSERT_EQ(w.pa, h->second.first | (iova & kHugeMask));
                    ASSERT_EQ(w.perm, h->second.second);
                } else if (p != ref4k.end()) {
                    ASSERT_TRUE(w.present && !w.huge) << epoch << "/" << step;
                    ASSERT_EQ(w.pa, p->second.first | (iova & 0xfff));
                    ASSERT_EQ(w.perm, p->second.second);
                } else {
                    ASSERT_FALSE(w.present) << epoch << "/" << step;
                }
            }
            }
            ASSERT_EQ(pt.mapped4kEntries(), ref4k.size());
            ASSERT_EQ(pt.mapped2mEntries(), ref2m.size());
        }
    }
    // Both 2 MiB paths were exercised, not just the 4 KiB one.
    EXPECT_GT(huge_maps, 100);
    EXPECT_GT(refused_inside_huge, 100);
}

// ---------------------------------------------------------------------
// Buddy allocator invariants under random alloc/free
// ---------------------------------------------------------------------

TEST(FuzzBuddy, NoOverlapNoLeak)
{
    mem::PhysicalMemory pm(256ull << 20);
    mem::PageAllocator pa(pm, 2);
    fuzz::Rng rng(77);
    const std::uint64_t initial_free = pa.freeFrames();

    struct Block
    {
        mem::Pfn pfn;
        unsigned order;
    };
    std::vector<Block> live;

    for (int step = 0; step < 30000; ++step) {
        if (live.size() < 300 && rng.chance(0.55)) {
            const auto order = unsigned(rng.below(6));
            const mem::Pfn pfn =
                pa.allocPages(order, sim::NumaId(rng.below(2)));
            if (pfn == mem::kInvalidPfn)
                continue;
            // No overlap with any live block.
            for (const Block &b : live) {
                const bool disjoint =
                    pfn + (1ull << order) <= b.pfn ||
                    b.pfn + (1ull << b.order) <= pfn;
                ASSERT_TRUE(disjoint)
                    << "overlap at step " << step << ": " << pfn << "/"
                    << order << " vs " << b.pfn << "/" << b.order;
            }
            live.push_back({pfn, order});
        } else if (!live.empty()) {
            const auto idx = rng.below(live.size());
            pa.freePages(live[idx].pfn, live[idx].order);
            live.erase(live.begin() + long(idx));
        }
    }
    for (const Block &b : live)
        pa.freePages(b.pfn, b.order);
    EXPECT_EQ(pa.freeFrames(), initial_free) << "frames leaked";
    EXPECT_EQ(pa.allocatedFrames(), 0u);
}

// ---------------------------------------------------------------------
// kmalloc vs a reference multiset
// ---------------------------------------------------------------------

TEST(FuzzKmalloc, ContentIsolationAcrossObjects)
{
    mem::PhysicalMemory pm(128ull << 20);
    mem::PageAllocator pa(pm, 1);
    mem::KmallocHeap heap(pa);
    fuzz::Rng rng(55);

    // Every live object holds a distinct stamp; writes to one object
    // must never bleed into another.
    std::unordered_map<mem::Pa, std::pair<std::uint32_t, std::uint8_t>>
        live; // pa -> (size, stamp)
    std::uint8_t next_stamp = 1;

    for (int step = 0; step < 20000; ++step) {
        if (live.size() < 400 && rng.chance(0.55)) {
            const auto size = std::uint32_t(rng.between(1, 4096));
            const mem::Pa p = heap.kmalloc(size);
            ASSERT_NE(p, 0u);
            ASSERT_EQ(live.count(p), 0u) << "double allocation";
            pm.fill(p, next_stamp, size);
            live[p] = {size, next_stamp};
            next_stamp = std::uint8_t(next_stamp == 255 ? 1
                                                        : next_stamp + 1);
        } else if (!live.empty()) {
            auto it = live.begin();
            std::advance(it, long(rng.below(live.size())));
            // Verify the object is intact before freeing.
            const auto [size, stamp] = it->second;
            ASSERT_EQ(pm.readByte(it->first), stamp);
            ASSERT_EQ(pm.readByte(it->first + size - 1), stamp);
            heap.kfree(it->first);
            live.erase(it);
        }
    }
    for (const auto &[p, meta] : live) {
        ASSERT_EQ(pm.readByte(p), meta.second);
        heap.kfree(p);
    }
    EXPECT_EQ(heap.liveObjects(), 0u);
    EXPECT_EQ(heap.allocatedBytes(), 0u);
}

// ---------------------------------------------------------------------
// IOTLB never returns stale-after-invalidate translations
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Tracer ring buffer vs a per-core deque reference
// ---------------------------------------------------------------------

TEST(FuzzTracer, RingWrapMatchesReferenceModel)
{
    sim::Context ctx(sim::CostModel{}, 1, 4);
    fuzz::Rng rng(2024);

    for (const std::size_t cap : {std::size_t(1), std::size_t(2),
                                  std::size_t(7), std::size_t(64)}) {
        ctx.tracer.resetWindow();
        ctx.tracer.startRecording(cap);

        // Reference: each core keeps its newest `cap` events; every
        // displaced event is one drop.
        std::vector<std::deque<std::pair<sim::TimeNs, std::uint64_t>>>
            ref(4);
        std::uint64_t ref_drops = 0;
        std::uint64_t tag = 0;

        for (int step = 0; step < 5000; ++step) {
            const auto core = sim::CoreId(rng.below(4));
            const sim::TimeNs t = rng.below(100000);
            if (rng.chance(0.5)) {
                ctx.tracer.instant(core, sim::TraceCat::NicRing, "i",
                                   t, 0, tag);
            } else {
                ctx.tracer.span(core, sim::TraceCat::Copy, "s", t,
                                t + rng.below(100), 0, tag);
            }
            ref[core].emplace_back(t, tag);
            ++tag;
            if (ref[core].size() > cap) {
                ref[core].pop_front();
                ++ref_drops;
            }
        }

        EXPECT_EQ(ctx.tracer.droppedEvents(), ref_drops)
            << "cap " << cap;
        std::size_t ref_count = 0;
        for (const auto &d : ref)
            ref_count += d.size();
        EXPECT_EQ(ctx.tracer.bufferedEvents(), ref_count);

        // Tags increase in record order, so the expected merged order
        // is (t0, tag) — exactly the exporter's (t0, seq) sort.
        std::vector<std::pair<sim::TimeNs, std::uint64_t>> expect;
        for (const auto &d : ref)
            expect.insert(expect.end(), d.begin(), d.end());
        std::sort(expect.begin(), expect.end());

        const sim::TraceBundle b = ctx.tracer.bundle(ctx.machine, 2.0);
        ASSERT_EQ(b.events.size(), expect.size()) << "cap " << cap;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(b.events[i].t0, expect[i].first)
                << "cap " << cap << " slot " << i;
            EXPECT_EQ(b.events[i].aux, expect[i].second)
                << "cap " << cap << " slot " << i;
        }
    }
}

// ---------------------------------------------------------------------
// The trace-JSON escaper round-trips adversarial strings
// ---------------------------------------------------------------------

TEST(FuzzJsonEscape, AdversarialStringsRoundTripThroughTheParser)
{
    // Targeted adversaries first: everything that could break a JSON
    // string literal or confuse a parser.
    const std::string cases[] = {
        "",
        "\"",
        "\\",
        "\\\\\"\"",
        "\"},{\"pid\":0}",
        std::string(1, '\0'),
        std::string("\0\x01\x02\x1f", 4),
        "\b\f\n\r\t",
        "]}\n{\"traceEvents\":[",
        "\xff\xfe high bytes \x80",
        "日本語 utf-8 passes through",
    };
    for (const std::string &s : cases) {
        const std::string wrapped = "\"" + sim::jsonEscape(s) + "\"";
        const exp::Json v = parseJson(wrapped);
        EXPECT_EQ(v.str(), s);
    }

    // Then random byte soup over the full 0..255 range.
    fuzz::Rng rng(404);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::string s = rng.bytes(64);
        const std::string wrapped = "\"" + sim::jsonEscape(s) + "\"";
        const exp::Json v = parseJson(wrapped);
        ASSERT_EQ(v.str(), s) << "iter " << iter;
    }
}

TEST(FuzzJsonEscape, AdversarialEventNamesKeepTheTraceParseable)
{
    sim::Context ctx(sim::CostModel{}, 1, 2);
    fuzz::Rng rng(911);
    ctx.tracer.startRecording(256);
    std::vector<std::string> names;
    for (int i = 0; i < 64; ++i) {
        names.push_back(rng.bytes1(24));
        const std::string &name = names.back();
        // aux = i + 1 so every event serializes an args.aux tag
        // (zero-valued args are omitted from the JSON).
        ctx.tracer.instant(sim::CoreId(i % 2), sim::TraceCat::Other,
                           name, sim::TimeNs(i), 0, i + 1);
    }
    const sim::TraceBundle b = ctx.tracer.bundle(ctx.machine, 2.0);
    const std::string json =
        sim::chromeTraceJson({{"evil \"proc\"\n", &b}});
    const exp::Json doc = parseJson(json);
    const exp::Json *evs = find(doc, "traceEvents");
    ASSERT_NE(evs, nullptr);
    ASSERT_EQ(evs->items().size(), 65u); // metadata + 64 instants
    for (std::size_t i = 1; i < evs->items().size(); ++i) {
        const exp::Json &ev = evs->items()[i];
        // aux identifies the original name regardless of sort order.
        const auto tag =
            std::size_t(asUint(at(ev, "args", "aux"))) - 1;
        ASSERT_LT(tag, names.size());
        EXPECT_EQ(at(ev, "name").str(), names[tag]);
    }
}

TEST(FuzzIotlb, InvalidationIsComplete)
{
    iommu::Iotlb tlb(16, 2, 4, 2);
    fuzz::Rng rng(31);
    std::map<iommu::Iova, mem::Pa> truth;

    for (int step = 0; step < 20000; ++step) {
        const iommu::Iova page = rng.below(256) << 12;
        const int op = int(rng.below(4));
        if (op == 0) {
            iommu::WalkResult w;
            w.present = true;
            w.pa = rng.below(1024) << 12;
            w.perm = iommu::PermRW;
            tlb.insert(0, page, w);
            truth[page] = w.pa;
        } else if (op == 1) {
            tlb.invalidateRange(0, page, 4096);
            truth.erase(page);
        } else if (op == 2 && rng.chance(0.05)) {
            tlb.invalidateDomain(0);
            truth.clear();
        } else {
            const iommu::TlbEntry *e = tlb.lookup(0, page);
            if (e != nullptr) {
                // A hit must reflect a still-valid insertion.
                auto it = truth.find(page);
                ASSERT_NE(it, truth.end())
                    << "stale IOTLB entry at step " << step;
                ASSERT_EQ(e->paPage, it->second);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The harness's IntervalSet vs the ordered-map set it replaced
// ---------------------------------------------------------------------

namespace {

/** The interval set as an ordered map of lo -> hi. */
class MapIntervalSet
{
  public:
    void
    insert(std::uint64_t lo, std::uint64_t hi)
    {
        if (lo >= hi)
            return;
        ++growth_;
        auto it = m_.lower_bound(lo);
        if (it != m_.begin()) {
            auto prev = std::prev(it);
            if (prev->second >= lo)
                it = prev;
        }
        while (it != m_.end() && it->first <= hi) {
            lo = std::min(lo, it->first);
            hi = std::max(hi, it->second);
            it = m_.erase(it);
        }
        m_[lo] = hi;
    }

    void
    erase(std::uint64_t lo, std::uint64_t hi)
    {
        if (lo >= hi)
            return;
        auto it = m_.lower_bound(lo);
        if (it != m_.begin()) {
            auto prev = std::prev(it);
            if (prev->second > lo)
                it = prev;
        }
        while (it != m_.end() && it->first < hi) {
            const std::uint64_t l = it->first;
            const std::uint64_t h = it->second;
            it = m_.erase(it);
            if (l < lo)
                m_[l] = lo;
            if (h > hi) {
                m_[hi] = h;
                break;
            }
        }
    }

    bool
    overlaps(std::uint64_t lo, std::uint64_t hi) const
    {
        auto it = m_.lower_bound(lo);
        if (it != m_.end() && it->first < hi)
            return true;
        if (it != m_.begin() && std::prev(it)->second > lo)
            return true;
        return false;
    }

    void
    absorb(MapIntervalSet &o)
    {
        for (const auto &[l, h] : o.m_)
            insert(l, h);
        o.m_.clear();
    }

    bool empty() const { return m_.empty(); }
    void clear() { m_.clear(); }
    std::uint64_t growth() const { return growth_; }

  private:
    std::map<std::uint64_t, std::uint64_t> m_;
    std::uint64_t growth_ = 0;
};

} // namespace

TEST(FuzzIntervalSet, TouchingRangesCoalesceAndEraseSplits)
{
    // absorb() inserts one range per stored range, so the growth it
    // adds counts the ranges the set holds.
    fuzz::IntervalSet s, sink;
    s.insert(0x1000, 0x2000);
    s.insert(0x2000, 0x3000); // touches: one range [0x1000, 0x3000)
    s.insert(0x5000, 0x5000); // empty: no growth
    EXPECT_EQ(s.growth(), 2u);
    sink.absorb(s);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(sink.growth(), 1u);

    sink.erase(0x1800, 0x2800); // splits it in two
    EXPECT_TRUE(sink.overlaps(0x17ff, 0x1800));
    EXPECT_FALSE(sink.overlaps(0x1800, 0x2800));
    EXPECT_TRUE(sink.overlaps(0x2800, 0x2801));
    EXPECT_EQ(sink.growth(), 1u);
    s.absorb(sink);
    EXPECT_EQ(s.growth(), 4u);

    s.insert(0x1800, 0x2800); // fills the hole: one range again
    sink.absorb(s);
    EXPECT_EQ(sink.growth(), 2u);
    sink.erase(0, ~std::uint64_t{0});
    EXPECT_TRUE(sink.empty());
}

// Random inserts, erases, overlap queries, absorbs and clears on two
// pairs of sets over a small coordinate space, so ranges touch, nest
// and split all the time.  Every few ops each set's coverage is
// compared point by point; absorb's growth compares the range count.
TEST(FuzzIntervalSet, MatchesOrderedMapReference)
{
    constexpr std::uint64_t kSpace = 160;
    fuzz::IntervalSet sets[2];
    MapIntervalSet ref[2];
    fuzz::Rng rng(0x15e7);
    unsigned merges = 0, splits = 0;
    for (int step = 0; step < 100000; ++step) {
        const unsigned k = unsigned(rng.below(2));
        std::uint64_t lo = rng.below(kSpace);
        std::uint64_t hi = lo + rng.below(24);
        if (rng.chance(0.02))
            hi = rng.below(kSpace); // sometimes empty or inverted
        switch (rng.below(10)) {
          case 0: case 1: case 2: case 3:
            if (ref[k].overlaps(lo == 0 ? 0 : lo - 1, hi + 1))
                ++merges;
            sets[k].insert(lo, hi);
            ref[k].insert(lo, hi);
            break;
          case 4: case 5: case 6:
            if (lo > 0 && ref[k].overlaps(lo - 1, lo) &&
                ref[k].overlaps(hi, hi + 1))
                ++splits;
            sets[k].erase(lo, hi);
            ref[k].erase(lo, hi);
            break;
          case 7:
            if (lo <= hi) {
                ASSERT_EQ(sets[k].overlaps(lo, hi), ref[k].overlaps(lo, hi))
                    << "step " << step;
            }
            break;
          case 8:
            sets[k].absorb(sets[1 - k]);
            ref[k].absorb(ref[1 - k]);
            break;
          default:
            if (rng.chance(0.1)) {
                sets[k].clear();
                ref[k].clear();
            }
            break;
        }
        for (unsigned j = 0; j < 2; ++j) {
            ASSERT_EQ(sets[j].empty(), ref[j].empty()) << "step " << step;
            ASSERT_EQ(sets[j].growth(), ref[j].growth()) << "step " << step;
        }
        if (step % 16 != 0)
            continue;
        for (unsigned j = 0; j < 2; ++j) {
            for (std::uint64_t x = 0; x < kSpace + 24; ++x) {
                ASSERT_EQ(sets[j].overlaps(x, x + 1),
                          ref[j].overlaps(x, x + 1))
                    << "step " << step << " set " << j << " at " << x;
            }
        }
    }
    EXPECT_GT(merges, 10000u);
    EXPECT_GT(splits, 1000u);
}

// ---------------------------------------------------------------------
// SMMUv3 command queue under a randomized producer storm
// ---------------------------------------------------------------------

TEST(FuzzSmmuCmdq, ProducerStallStormStaysCoherent)
{
    // A 4-slot ring under a TLBI storm: the producer must stall (and
    // the stall must be counted), yet every CMD_SYNC still covers all
    // prior commands and time never runs backwards.
    sim::CostModel cm;
    cm.smmuCmdqDepth = 4;
    sim::Context ctx(cm, 1, 2);
    iommu::Iommu mmu(ctx, true, iommu::BackendKind::SmmuV3);
    auto &smmu = dynamic_cast<iommu::SmmuV3Backend &>(mmu.backend());
    const iommu::DomainId d = mmu.createDomain();

    fuzz::Rng rng(4242);
    sim::TimeNs t = 0;
    for (int step = 0; step < 2000; ++step) {
        sim::Core &core = ctx.machine.core(sim::CoreId(rng.below(2)));
        const sim::TimeNs before = t;
        switch (rng.below(4)) {
          case 0:
            t = smmu.submitTlbiRange(core, t, d, rng.below(4096) << 12,
                                     4096);
            break;
          case 1:
            t = smmu.batchedFlush(core, t, {d});
            break;
          case 2:
            t = smmu.submitTlbiAll(core, t);
            break;
          default:
            t = smmu.sync(core, t);
            EXPECT_EQ(smmu.pendingCommands(), 0u) << "step " << step;
            break;
        }
        ASSERT_GE(t, before) << "time went backwards at step " << step;
    }
    t = smmu.sync(ctx.machine.core(0), t);
    EXPECT_EQ(smmu.pendingCommands(), 0u);
    EXPECT_GT(ctx.stats.get(sim::Ctr::SmmuCmdqStalls), 0ull)
        << "a 4-slot ring under a 2000-command storm must stall";
}

// ---------------------------------------------------------------------
// The chaos harness itself (src/fuzz)
// ---------------------------------------------------------------------

TEST(FuzzHarness, SameConfigIsBitIdentical)
{
    // The determinism contract everything else leans on: the same
    // (config, seed) yields the same digest, stats, and op count.
    for (const auto scheme : {dma::SchemeKind::Strict,
                              dma::SchemeKind::Damn}) {
        for (const iommu::BackendKind backend : fuzz::fuzzBackends()) {
            fuzz::FuzzConfig cfg;
            cfg.scheme = scheme;
            cfg.backend = backend;
            cfg.seed = 99;
            cfg.ops = 300;
            const fuzz::FuzzResult r1 = fuzz::run(cfg);
            const fuzz::FuzzResult r2 = fuzz::run(cfg);
            EXPECT_EQ(r1.digest, r2.digest)
                << dma::schemeKindName(scheme) << "/"
                << iommu::backendKindName(backend);
            EXPECT_EQ(r1.stats, r2.stats);
            EXPECT_EQ(r1.opsExecuted, r2.opsExecuted);
            EXPECT_EQ(r1.violated, r2.violated);
        }
    }
}

TEST(FuzzHarness, CleanMatrixSmoke)
{
    // Without the injected bug, every scheme x backend cell must come
    // out clean: no oracle violation and no watchdog stall.
    for (const dma::SchemeKind scheme : fuzz::fuzzSchemes()) {
        for (const iommu::BackendKind backend : fuzz::fuzzBackends()) {
            fuzz::FuzzConfig cfg;
            cfg.scheme = scheme;
            cfg.backend = backend;
            cfg.seed = 5;
            cfg.ops = 300;
            const fuzz::FuzzResult res = fuzz::run(cfg);
            EXPECT_FALSE(res.violated)
                << dma::schemeKindName(scheme) << "/"
                << iommu::backendKindName(backend) << ": "
                << res.violation.oracle << " — "
                << res.violation.detail;
            EXPECT_EQ(res.watchdogStalls, 0u);
            EXPECT_EQ(res.opsExecuted, cfg.ops);
        }
    }
}

TEST(FuzzHarness, InjectedStaleBugIsCaughtAndShrunk)
{
    // The oracle self-check: arm the IOTLB's dropped-invalidation hook
    // and the stale-translation oracle must fire; ddmin must then cut
    // the repro down to a handful of ops (the acceptance bound is 12).
    struct Cell
    {
        dma::SchemeKind scheme;
        iommu::BackendKind backend;
    };
    const Cell cells[] = {
        {dma::SchemeKind::Strict, iommu::BackendKind::Vtd},
        {dma::SchemeKind::Deferred, iommu::BackendKind::SmmuV3},
    };
    for (const Cell &cell : cells) {
        fuzz::FuzzConfig cfg;
        cfg.scheme = cell.scheme;
        cfg.backend = cell.backend;
        cfg.seed = 7;
        cfg.ops = 40;
        cfg.injectStaleBug = true;

        const fuzz::Sequence seq = fuzz::generate(cfg);
        const fuzz::FuzzResult res = fuzz::runSequence(cfg, seq);
        ASSERT_TRUE(res.violated)
            << dma::schemeKindName(cell.scheme) << "/"
            << iommu::backendKindName(cell.backend);
        EXPECT_EQ(res.violation.oracle, "stale-translation");

        const fuzz::ShrinkResult small =
            fuzz::shrink(cfg, seq, res.violation);
        EXPECT_LE(small.seq.size(), 12u)
            << "shrunk repro too large for "
            << dma::schemeKindName(cell.scheme);
        ASSERT_TRUE(small.result.violated);
        EXPECT_EQ(small.result.violation.oracle, "stale-translation");
        // Re-running the minimal repro reproduces it bit-identically.
        const fuzz::FuzzResult again = fuzz::runSequence(cfg, small.seq);
        EXPECT_EQ(again.digest, small.result.digest);
    }
}

TEST(FuzzHarness, InjectedDevTlbBugIsCaughtAndShrunk)
{
    // Same self-check for the device-TLB side: silently dropping ATS
    // invalidations must trip the stale-device-tlb oracle — which the
    // IOTLB oracle cannot see, since the ATC sits outside the IOMMU —
    // and shrink to a handful of ops on both backends.
    struct Cell
    {
        dma::SchemeKind scheme;
        iommu::BackendKind backend;
    };
    const Cell cells[] = {
        {dma::SchemeKind::Strict, iommu::BackendKind::Vtd},
        {dma::SchemeKind::Deferred, iommu::BackendKind::SmmuV3},
    };
    for (const Cell &cell : cells) {
        fuzz::FuzzConfig cfg;
        cfg.scheme = cell.scheme;
        cfg.backend = cell.backend;
        cfg.seed = 7;
        cfg.ops = 40;
        cfg.injectDevTlbBug = true;

        const fuzz::Sequence seq = fuzz::generate(cfg);
        const fuzz::FuzzResult res = fuzz::runSequence(cfg, seq);
        ASSERT_TRUE(res.violated)
            << dma::schemeKindName(cell.scheme) << "/"
            << iommu::backendKindName(cell.backend);
        EXPECT_EQ(res.violation.oracle, "stale-device-tlb");

        const fuzz::ShrinkResult small =
            fuzz::shrink(cfg, seq, res.violation);
        EXPECT_LE(small.seq.size(), 12u)
            << "shrunk repro too large for "
            << dma::schemeKindName(cell.scheme);
        ASSERT_TRUE(small.result.violated);
        EXPECT_EQ(small.result.violation.oracle, "stale-device-tlb");
        const fuzz::FuzzResult again = fuzz::runSequence(cfg, small.seq);
        EXPECT_EQ(again.digest, small.result.digest);
    }
}

TEST(FuzzCorpus, SerializeParseReplayRoundTrip)
{
    // A recorded run must survive text serialization and replay to the
    // same verdict — the .dfz regression-corpus contract.
    fuzz::FuzzConfig cfg;
    cfg.scheme = dma::SchemeKind::Deferred;
    cfg.backend = iommu::BackendKind::SmmuV3;
    cfg.seed = 3;
    cfg.ops = 30;
    const fuzz::Sequence seq = fuzz::generate(cfg);
    const fuzz::FuzzResult res = fuzz::runSequence(cfg, seq);

    fuzz::CorpusFile file;
    file.cfg = cfg;
    file.seq = seq;
    file.verdict = fuzz::verdictOf(res);

    const std::string text = fuzz::serializeCorpus(file);
    fuzz::CorpusFile parsed;
    std::string err;
    ASSERT_TRUE(fuzz::parseCorpus(text, &parsed, &err)) << err;
    EXPECT_EQ(parsed.cfg.scheme, file.cfg.scheme);
    EXPECT_EQ(parsed.cfg.backend, file.cfg.backend);
    EXPECT_EQ(parsed.cfg.seed, file.cfg.seed);
    EXPECT_EQ(parsed.cfg.injectStaleBug, file.cfg.injectStaleBug);
    EXPECT_EQ(parsed.seq, file.seq);
    EXPECT_EQ(parsed.verdict, file.verdict);

    const fuzz::ReplayOutcome replay = fuzz::replayCorpus(parsed);
    EXPECT_TRUE(replay.reproduced)
        << "recorded " << file.verdict << ", got " << replay.verdict;

    // Corrupted text must be rejected, not misparsed.
    EXPECT_FALSE(fuzz::parseCorpus(text + "bogus_key 1\n", &parsed,
                                   &err));
    EXPECT_FALSE(fuzz::parseCorpus("dfz 2\n", &parsed, &err));
}

TEST(FuzzCorpus, DevTlbInjectTokenRoundTripsAndReplays)
{
    // The stale-devtlb inject flag must survive serialization, and a
    // replayed devtlb repro must reproduce its recorded verdict.
    fuzz::FuzzConfig cfg;
    cfg.scheme = dma::SchemeKind::Strict;
    cfg.backend = iommu::BackendKind::Vtd;
    cfg.seed = 7;
    cfg.ops = 40;
    cfg.injectDevTlbBug = true;
    const fuzz::Sequence seq = fuzz::generate(cfg);
    const fuzz::FuzzResult res = fuzz::runSequence(cfg, seq);
    ASSERT_TRUE(res.violated);

    fuzz::CorpusFile file;
    file.cfg = cfg;
    file.seq = seq;
    file.verdict = fuzz::verdictOf(res);

    const std::string text = fuzz::serializeCorpus(file);
    EXPECT_NE(text.find("inject stale-devtlb"), std::string::npos);
    fuzz::CorpusFile parsed;
    std::string err;
    ASSERT_TRUE(fuzz::parseCorpus(text, &parsed, &err)) << err;
    EXPECT_TRUE(parsed.cfg.injectDevTlbBug);
    EXPECT_FALSE(parsed.cfg.injectStaleBug);
    EXPECT_EQ(parsed.seq, file.seq);
    EXPECT_EQ(parsed.verdict, "stale-device-tlb");

    const fuzz::ReplayOutcome replay = fuzz::replayCorpus(parsed);
    EXPECT_TRUE(replay.reproduced)
        << "recorded " << file.verdict << ", got " << replay.verdict;
}
