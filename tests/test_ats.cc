/**
 * @file
 * ATS/PRI conformance tests, parameterized over both IOMMU backends:
 * device-TLB (ATC) caching and staleness, the fault -> service ->
 * resume ordering, page-request-queue overflow auto-responses, ATS
 * invalidation vs the regular flush entry points (including the
 * SMMUv3 CMD_ATC_INV-pending-until-CMD_SYNC race), and the faulting
 * RDMA workload end to end.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <set>

#include "dma/device.hh"
#include "dma/faultable.hh"
#include "iommu/ats.hh"
#include "iommu/backend_smmu.hh"
#include "iommu/backend_vtd.hh"
#include "iommu/iommu.hh"
#include "iommu/sva.hh"
#include "sim/fault_injector.hh"
#include "sim/rng.hh"
#include "workloads/rdma.hh"

using namespace damn;
using namespace damn::iommu;

namespace {

/**
 * Both backends with tiny PRI queues (depth 4), so overflow is
 * reachable, plus backing memory for the SVA / faultable-DMA tests.
 */
class AtsConformance : public ::testing::TestWithParam<BackendKind>
{
  protected:
    static sim::CostModel
    tiny()
    {
        sim::CostModel cm;
        cm.vtdPrqDepth = 4;
        cm.smmuStallDepth = 4;
        return cm;
    }

    AtsConformance()
        : ctx(tiny(), 1, 2), mmu(ctx, true, GetParam()),
          pm(64ull << 20), alloc(pm, 1)
    {}

    sim::Core &core() { return ctx.machine.core(0); }

    sim::Context ctx;
    Iommu mmu;
    mem::PhysicalMemory pm;
    mem::PageAllocator alloc;
};

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Backends, AtsConformance,
    ::testing::Values(BackendKind::Vtd, BackendKind::SmmuV3),
    [](const ::testing::TestParamInfo<BackendKind> &p) {
        return std::string(backendKindName(p.param)) == "vtd" ? "vtd"
                                                              : "smmuv3";
    });

TEST_P(AtsConformance, DevTlbCachesTranslations)
{
    const DomainId d = mmu.createDomain();
    AtsAgent ats(ctx, mmu, d);
    ASSERT_TRUE(mmu.mapPage(d, 0x5000, 0x9000, PermRW));

    const AtsAgent::Result miss = ats.translate(0x5123, true);
    EXPECT_TRUE(miss.ok);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.pa, 0x9123u);

    const AtsAgent::Result hit = ats.translate(0x5456, false);
    EXPECT_TRUE(hit.ok);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.pa, 0x9456u);
    EXPECT_LT(hit.latencyNs, miss.latencyNs);
    EXPECT_EQ(ats.hits(), 1u);
    EXPECT_EQ(ats.misses(), 1u);
}

TEST_P(AtsConformance, TranslateMissIsPriRetryNotFault)
{
    const DomainId d = mmu.createDomain();
    AtsAgent ats(ctx, mmu, d);
    EXPECT_FALSE(ats.translate(0xdead000, true).ok);
    // Permission splits count too: read-only page, write access.
    ASSERT_TRUE(mmu.mapPage(d, 0x5000, 0x9000, PermRead));
    EXPECT_FALSE(ats.translate(0x5000, true).ok);
    EXPECT_TRUE(ats.translate(0x5000, false).ok);
    // Neither miss was a recorded IOMMU fault — PRI retries instead.
    EXPECT_EQ(mmu.faults(), 0u);
}

TEST_P(AtsConformance, IotlbFlushLeavesAtcStaleUntilAtsInvalidate)
{
    const DomainId d = mmu.createDomain();
    AtsAgent ats(ctx, mmu, d);
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    ASSERT_TRUE(ats.translate(0x5000, true).ok);

    mmu.unmapPage(d, 0x5000);
    mmu.backend().syncInvalidate(core(), 0, d, 0x5000, 4096);
    // The IOTLB flush never reaches the device: the ATC still serves
    // the (now stale) translation — the extra window ATS opens.
    const AtsAgent::Result stale = ats.translate(0x5000, true);
    EXPECT_TRUE(stale.ok);
    EXPECT_TRUE(stale.hit);
    EXPECT_EQ(ats.entries(), 1u);

    // Only the explicit device-TLB invalidation verb closes it.
    mmu.backend().atsInvalidate(core(), 0, ats, d, 0x5000, 4096);
    EXPECT_EQ(ats.entries(), 0u);
    EXPECT_FALSE(ats.translate(0x5000, true).ok);
}

TEST_P(AtsConformance, AtsInvalidateAllClearsEveryEntry)
{
    const DomainId d = mmu.createDomain();
    AtsAgent ats(ctx, mmu, d);
    for (Iova va = 0x5000; va < 0x9000; va += 0x1000) {
        mmu.mapPage(d, va, 0x10000 + va, PermRW);
        ASSERT_TRUE(ats.translate(va, true).ok);
    }
    EXPECT_EQ(ats.entries(), 4u);
    const sim::TimeNs done =
        mmu.backend().atsInvalidateAll(core(), 0, ats, d);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(ats.entries(), 0u);
}

TEST_P(AtsConformance, DroppedAtsInvalidationLeavesStaleAtc)
{
    const DomainId d = mmu.createDomain();
    AtsAgent ats(ctx, mmu, d);
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    ats.translate(0x5000, true);
    mmu.unmapPage(d, 0x5000);

    ctx.faults.enable(13);
    ctx.faults.failNth(sim::FaultSite::IommuInval, 1);
    mmu.backend().atsInvalidate(core(), 0, ats, d, 0x5000, 4096);
    // VT-d drops the device-TLB inval descriptor; SMMUv3 drops the
    // CMD_ATC_INV batch at its CMD_SYNC.  Either way: stale entry.
    EXPECT_EQ(ats.entries(), 1u);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::IommuInvalDropped), 1u);
    // The next (uninjected) invalidation clears it.
    mmu.backend().atsInvalidate(core(), 0, ats, d, 0x5000, 4096);
    EXPECT_EQ(ats.entries(), 0u);
}

TEST_P(AtsConformance, AtcRangeEndSaturatesAtTopOfAddressSpace)
{
    // Same regressions as the IOTLB's: no range could drop the top
    // page (page + 4 KiB overflowed to 0), and a range wrapping past
    // 2^64 dropped nothing.  The 48-bit page table aliases the top
    // IOVA, which is enough to fill an ATC entry there.
    const DomainId d = mmu.createDomain();
    AtsAgent ats(ctx, mmu, d);
    const Iova top = 0ull - mem::kPageSize;
    ASSERT_TRUE(mmu.mapPage(d, top, 0x9000, PermRW));
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0xa000, PermRW));
    ASSERT_TRUE(ats.translate(0x1000, true).ok);

    // The inputs of Iotlb.RangeEndSaturatesAtTopOfAddressSpace: each
    // drops the top page and nothing it would wrap onto.
    const std::pair<Iova, std::uint64_t> ranges[] = {
        {top + 0x10, 0x20},          // inside the top page
        {top + 0x123, 0},            // zero-length, unaligned
        {top, mem::kPageSize},       // ends exactly at 2^64
        {top + 0x800, 0x4000},       // wraps past 2^64
        {top - 0x800, 0x4000},       // starts below, wraps past 2^64
    };
    for (const auto &[iova, len] : ranges) {
        ASSERT_TRUE(ats.translate(top, true).ok);
        ats.invalidateRange(iova, len);
        EXPECT_EQ(ats.validEntries(), std::vector<Iova>{0x1000})
            << iova << "+" << len;
    }

    // Iotlb.ZeroLengthRangeDropsContainingPage's inputs: an aligned
    // zero-length range covers nothing, an unaligned one its own page.
    ASSERT_TRUE(mmu.mapPage(d, 0x5000, 0xb000, PermRW));
    ASSERT_TRUE(ats.translate(0x5000, true).ok);
    ats.invalidateRange(0x1000, 0);
    EXPECT_EQ(ats.validEntries().size(), 2u);
    ats.invalidateRange(0x5123, 0);
    EXPECT_EQ(ats.validEntries(), std::vector<Iova>{0x1000});
}

TEST_P(AtsConformance, EmptyAtcStillCountsInvalidations)
{
    // An empty ATC skips its scans, but an invalidation message is
    // still counted — or consumed by the planted drop.
    const DomainId d = mmu.createDomain();
    AtsAgent ats(ctx, mmu, d);
    ats.invalidateRange(0x5000, 4096);
    ats.invalidateAll();
    EXPECT_EQ(ats.invalidations(), 2u);
    ats.debugDropInvalidations(1);
    ats.invalidateAll();
    EXPECT_EQ(ats.invalidations(), 2u);
    ats.reset();
    EXPECT_EQ(ats.entries(), 0u);
    EXPECT_TRUE(ats.validEntries().empty());
}

TEST_P(AtsConformance, FaultServiceResumeOrdering)
{
    SvaDomain sva(ctx, mmu, alloc);
    AtsAgent ats(ctx, mmu, sva.domain());
    const Iova va = 0x7f0000000000ull;

    // Device stalls: no translation yet, so it posts a page request.
    EXPECT_FALSE(ats.translate(va, true).ok);
    ASSERT_TRUE(mmu.backend().postPageRequest(
        {sva.domain(), va, true, 0, 100}));
    EXPECT_EQ(mmu.backend().pendingPageRequests(), 1u);

    // OS fetches and services: the page becomes resident and mapped,
    // and the response completes strictly after the request.
    const auto reqs = mmu.backend().fetchPageRequests();
    ASSERT_EQ(reqs.size(), 1u);
    sim::CpuCursor cpu(core(), 200);
    EXPECT_TRUE(sva.servicePageRequest(cpu, reqs[0], &ats));
    EXPECT_GT(cpu.time, reqs[0].time);
    EXPECT_TRUE(sva.resident(va));
    EXPECT_EQ(sva.faultsServiced(), 1u);

    // Resume: the retried translation now succeeds and fills the ATC.
    const AtsAgent::Result r = ats.translate(va, true);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pa, sva.paOf(va));
    EXPECT_EQ(mmu.backend().pageRequestsResponded(), 1u);
}

TEST_P(AtsConformance, PrqOverflowAutoResponds)
{
    SvaDomain sva(ctx, mmu, alloc);
    const Iova base = 0x7f0000000000ull;

    // Depth is 4 (tiny cost model): posts 5 and 6 must auto-respond.
    for (std::uint32_t i = 0; i < 6; ++i) {
        const bool accepted = mmu.backend().postPageRequest(
            {sva.domain(), base + Iova(i) * 0x1000, true, i, 0});
        EXPECT_EQ(accepted, i < 4) << "post " << i;
    }
    IommuBackend &be = mmu.backend();
    EXPECT_EQ(be.pendingPageRequests(), 4u);
    EXPECT_EQ(be.pageRequestsPosted(), 6u);
    EXPECT_EQ(be.pageRequestAutoResponses(), 2u);
    EXPECT_EQ(be.pageRequestMaxDepth(), 4u);

    if (auto *vtd = dynamic_cast<VtdBackend *>(&be)) {
        // VT-d surfaces the condition architecturally: PRQ head/tail
        // diverge and the sticky overflow bit is set...
        EXPECT_TRUE(vtd->prsPending());
        EXPECT_TRUE(vtd->prsOverflow());
        EXPECT_EQ(vtd->prqTail() - vtd->prqHead(), 4u);
    }

    // ...until the OS drains the queue, which clears both.
    EXPECT_EQ(be.fetchPageRequests().size(), 4u);
    EXPECT_EQ(be.pendingPageRequests(), 0u);
    EXPECT_EQ(be.pageRequestsFetched(), 4u);
    if (auto *vtd = dynamic_cast<VtdBackend *>(&be)) {
        EXPECT_FALSE(vtd->prsPending());
        EXPECT_FALSE(vtd->prsOverflow());
    }
    // The conservation law the fuzzer's pri-conservation oracle pins.
    EXPECT_EQ(be.pageRequestsPosted(),
              be.pageRequestAutoResponses() +
                  be.pendingPageRequests() + be.pageRequestsFetched());
}

TEST_P(AtsConformance, SvaResidentLimitEvictsLru)
{
    SvaDomain sva(ctx, mmu, alloc, /*residentLimitPages=*/2);
    AtsAgent ats(ctx, mmu, sva.domain());
    sim::CpuCursor cpu(core(), 0);
    const Iova base = 0x7f0000000000ull;

    for (unsigned i = 0; i < 3; ++i)
        EXPECT_TRUE(sva.handleFault(cpu, base + Iova(i) * 0x1000,
                                    true, &ats));
    EXPECT_EQ(sva.residentPages(), 2u);
    EXPECT_EQ(sva.evictions(), 1u);
    // Page 0 was the LRU victim: unmapped, ATS-invalidated, freed.
    EXPECT_FALSE(sva.resident(base));
    EXPECT_TRUE(sva.resident(base + 0x2000));
    EXPECT_FALSE(ats.translate(base, true).ok);
}

TEST_P(AtsConformance, SvaSpuriousFaultRefreshesLru)
{
    SvaDomain sva(ctx, mmu, alloc, /*residentLimitPages=*/2);
    AtsAgent ats(ctx, mmu, sva.domain());
    sim::CpuCursor cpu(core(), 0);
    const Iova p0 = 0x7f0000000000ull, p1 = p0 + 0x1000, p2 = p0 + 0x2000;

    EXPECT_TRUE(sva.handleFault(cpu, p0, true, &ats));
    EXPECT_TRUE(sva.handleFault(cpu, p1, true, &ats));
    EXPECT_TRUE(sva.handleFault(cpu, p0, true, &ats)); // spurious
    EXPECT_TRUE(sva.handleFault(cpu, p2, true, &ats));
    // The re-fault made p0 most recently used, so p1 is the victim.
    EXPECT_EQ(sva.evictions(), 1u);
    EXPECT_FALSE(sva.resident(p1));
    EXPECT_TRUE(sva.resident(p0));
    EXPECT_TRUE(sva.resident(p2));
    EXPECT_EQ(ctx.stats.get(sim::Ctr::SvaSpuriousFaults), 1u);
}

// The resident set and its LRU against an ordered-map + list model:
// random new, spurious and evicting faults plus explicit evictions.
// A reference allocator mirrors every frame the domain takes and
// returns, so each fault's frame, each victim and every paOf() answer
// are checked.  Teardown must give back exactly the resident frames:
// the frames drawn next match a reference that freed them in VA order.
TEST_P(AtsConformance, SvaResidentSetMatchesOrderedReference)
{
    constexpr unsigned kLimit = 24, kPages = 64;
    const Iova base = 0x7f0000000000ull;
    mem::PhysicalMemory ref_pm(64ull << 20);
    mem::PageAllocator ref_alloc(ref_pm, 1);
    std::map<Iova, mem::Pfn> ref;
    std::list<Iova> lru; // least recently used first
    sim::Rng rng(0x5fa);
    sim::CpuCursor cpu(core(), 0);
    {
        SvaDomain sva(ctx, mmu, alloc, kLimit);
        AtsAgent ats(ctx, mmu, sva.domain());
        std::uint64_t evictions = 0;
        for (unsigned step = 0; step < 4000; ++step) {
            const Iova page = base + rng.below(kPages) * mem::kPageSize;
            const Iova va = page + rng.below(mem::kPageSize);
            if (rng.chance(0.1)) {
                // Reclaim a page from anywhere in the LRU order.
                const bool was = ref.count(page) != 0;
                ASSERT_EQ(sva.evict(cpu, va, &ats), was) << "step " << step;
                if (was) {
                    ref_alloc.freePages(ref[page], 0);
                    ref.erase(page);
                    lru.remove(page);
                    ++evictions;
                }
            } else if (ref.count(page) != 0) {
                ASSERT_TRUE(sva.handleFault(cpu, va, true, &ats));
                lru.remove(page);
                lru.push_back(page);
            } else {
                if (ref.size() >= kLimit) {
                    const Iova victim = lru.front();
                    lru.pop_front();
                    ref_alloc.freePages(ref[victim], 0);
                    ref.erase(victim);
                    ++evictions;
                }
                ASSERT_TRUE(sva.handleFault(cpu, va, true, &ats));
                ref[page] = ref_alloc.allocPages(0, 0);
                lru.push_back(page);
            }
            ASSERT_EQ(sva.evictions(), evictions) << "step " << step;
            ASSERT_EQ(sva.residentPages(), ref.size()) << "step " << step;
            for (unsigned i = 0; i < kPages; ++i) {
                const Iova p = base + i * mem::kPageSize;
                const auto it = ref.find(p);
                ASSERT_EQ(sva.paOf(p + 5),
                          it == ref.end() ? 0 : mem::pfnToPa(it->second))
                    << "step " << step << " page " << i;
            }
        }
        EXPECT_GT(evictions, 500u);
        EXPECT_GT(ctx.stats.get(sim::Ctr::SvaSpuriousFaults), 500u);
    }
    for (const auto &[page, pfn] : ref)
        ref_alloc.freePages(pfn, 0);
    EXPECT_EQ(alloc.freeFrames(), ref_alloc.freeFrames());
    for (unsigned i = 0; i < 2 * kLimit; ++i)
        ASSERT_EQ(alloc.allocPages(0), ref_alloc.allocPages(0))
            << "draw " << i;
}

TEST_P(AtsConformance, FaultableDmaFaultsInAndCompletes)
{
    SvaDomain sva(ctx, mmu, alloc);
    AtsAgent ats(ctx, mmu, sva.domain());
    dma::Device dev(ctx, "ats0", mmu, pm);
    sim::CpuCursor cpu(core(), 0);
    const Iova va = 0x7f0000000000ull;

    std::vector<std::uint8_t> payload(3 * mem::kPageSize + 17, 0xa5);
    const dma::FaultableDmaResult w = dma::faultableDma(
        cpu, dev, ats, sva, va, payload.data(), payload.size(),
        /*is_write=*/true);
    EXPECT_TRUE(w.ok);
    EXPECT_EQ(w.bytesDone, payload.size());
    EXPECT_EQ(w.faultsServiced, 4u);
    EXPECT_GT(w.serviceNsTotal, 0u);

    // Read back through a second faultable DMA: all resident now, so
    // zero faults — and the bytes round-trip.
    std::vector<std::uint8_t> readback(payload.size(), 0);
    const dma::FaultableDmaResult r = dma::faultableDma(
        cpu, dev, ats, sva, va, readback.data(), readback.size(),
        /*is_write=*/false);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.faultsServiced, 0u);
    EXPECT_EQ(readback, payload);
}

TEST_P(AtsConformance, RdmaWorkloadServicesFaultsDeterministically)
{
    work::RdmaOpts o;
    o.sysParams.scheme = dma::SchemeKind::Strict;
    o.footprintBytes = 1ull << 20;
    o.seed = 42;
    o.runWindow = {sim::kNsPerMs, 2 * sim::kNsPerMs};
    o.sysParams.backend = GetParam();
    const work::RdmaResult a = work::runRdma(o);
    const work::RdmaResult b = work::runRdma(o);

    EXPECT_GT(a.faultsServiced, 0u);
    EXPECT_GT(a.messages, 0u);
    EXPECT_GT(a.prqMaxDepth, 0u);
    EXPECT_GT(a.avgFaultServiceNs, 0.0);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.faultsServiced, b.faultsServiced);
    EXPECT_EQ(a.common.stats, b.common.stats);
}

// ---------------------------------------------------------------------
// SMMUv3-specific: CMD_ATC_INV is pending until CMD_SYNC.
// ---------------------------------------------------------------------

namespace {

struct SmmuAtsFixture : ::testing::Test
{
    SmmuAtsFixture()
        : ctx(sim::CostModel{}, 1, 2),
          mmu(ctx, true, BackendKind::SmmuV3),
          smmu(dynamic_cast<SmmuV3Backend &>(mmu.backend()))
    {}

    sim::Context ctx;
    Iommu mmu;
    SmmuV3Backend &smmu;
};

} // namespace

TEST_F(SmmuAtsFixture, AtcInvPendingUntilCmdSync)
{
    const DomainId d = mmu.createDomain();
    AtsAgent ats(ctx, mmu, d);
    mmu.mapPage(d, 0x5000, 0x9000, PermRW);
    ats.translate(0x5000, true);
    mmu.unmapPage(d, 0x5000);

    // CMD_ATC_INV alone does nothing observable: the ATC entry stays
    // visible until the covering CMD_SYNC completes — the ordering
    // race the fuzzer's Sync op and this suite both pin.
    const sim::TimeNs t =
        smmu.submitAtcInvRange(ctx.machine.core(0), 0, ats, 0x5000,
                               4096);
    EXPECT_EQ(ats.entries(), 1u);
    EXPECT_GE(smmu.pendingCommands(), 1u);
    smmu.sync(ctx.machine.core(0), t);
    EXPECT_EQ(ats.entries(), 0u);
    EXPECT_EQ(smmu.pendingCommands(), 0u);
}

TEST_F(SmmuAtsFixture, ResumeIsFireAndForget)
{
    // A stalled transaction is a stall event; CMD_RESUME is produced
    // into the command queue without a trailing CMD_SYNC (the device
    // retries whenever it retries — resume needs no ordering).
    const DomainId d = mmu.createDomain();
    ASSERT_TRUE(smmu.postPageRequest({d, 0x7000, true, 0, 0}));
    EXPECT_EQ(ctx.stats.get(sim::Ctr::SmmuStallEvents), 1u);
    const auto reqs = smmu.fetchPageRequests();
    ASSERT_EQ(reqs.size(), 1u);
    const sim::TimeNs done =
        smmu.respondPageRequest(ctx.machine.core(0), 50, reqs[0], true);
    EXPECT_GT(done, 50u);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::SmmuCmdResumes), 1u);
    EXPECT_EQ(smmu.pageRequestsResponded(), 1u);
}

// ---------------------------------------------------------------------
// The indexed ATC against the linear one it replaced.
// ---------------------------------------------------------------------

namespace {

/**
 * The ATC as a plain slot array: find() and the victim search scan
 * every slot, LRU is a use stamp, invalidation scans too.  Walks the
 * same page table as the agent under test.
 */
class LinearAtc
{
  public:
    LinearAtc(Iommu &mmu, DomainId d, unsigned slots)
        : mmu_(mmu), d_(d), atc_(slots)
    {}

    AtsAgent::Result
    translate(Iova iova, bool is_write)
    {
        AtsAgent::Result r;
        const Iova page = iova & ~Iova(mem::kPageSize - 1);
        const std::uint32_t need = is_write ? PermWrite : PermRead;
        if (Entry *e = find(page); e != nullptr && (e->perm & need) == need) {
            e->lastUse = ++clock_;
            ++hits;
            r.ok = r.hit = true;
            r.pa = e->paPage + (iova - page);
            return r;
        }
        ++misses;
        const WalkResult w = mmu_.pageTable(d_).walk(iova);
        if (!w.present || (w.perm & need) != need)
            return r;
        insert(page, w.pa & ~mem::Pa(mem::kPageSize - 1), w.perm);
        r.ok = true;
        r.pa = w.pa;
        return r;
    }

    void
    invalidateRange(Iova iova, std::uint64_t len)
    {
        if (dropRemaining > 0) {
            --dropRemaining;
            return;
        }
        ++invalidations;
        for (Entry &e : atc_)
            if (e.valid && rangeHitsPage(iova, len, e.page, mem::kPageSize))
                e.valid = false;
    }

    void
    invalidateAll()
    {
        if (dropRemaining > 0) {
            --dropRemaining;
            return;
        }
        ++invalidations;
        reset();
    }

    void
    reset()
    {
        for (Entry &e : atc_)
            e.valid = false;
    }

    std::vector<Iova>
    validEntries() const
    {
        std::vector<Iova> out;
        for (const Entry &e : atc_)
            if (e.valid)
                out.push_back(e.page);
        return out;
    }

    std::uint64_t hits = 0, misses = 0, invalidations = 0, fills = 0;
    unsigned dropRemaining = 0;

  private:
    struct Entry
    {
        bool valid = false;
        Iova page = 0;
        mem::Pa paPage = 0;
        std::uint32_t perm = 0;
        std::uint64_t lastUse = 0;
    };

    Entry *
    find(Iova page)
    {
        for (Entry &e : atc_)
            if (e.valid && e.page == page)
                return &e;
        return nullptr;
    }

    void
    insert(Iova page, mem::Pa paPage, std::uint32_t perm)
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
        *victim = {true, page, paPage, perm, ++clock_};
        ++fills;
    }

    Iommu &mmu_;
    DomainId d_;
    std::vector<Entry> atc_;
    std::uint64_t clock_ = 0;
};

class AtcDifferential : public ::testing::TestWithParam<unsigned>
{
  protected:
    static sim::CostModel
    sized()
    {
        sim::CostModel cm;
        cm.atsDevTlbEntries = GetParam();
        return cm;
    }

    AtcDifferential() : ctx(sized(), 1, 2), mmu(ctx, true, BackendKind::Vtd)
    {}

    sim::Context ctx;
    Iommu mmu;
};

} // namespace

INSTANTIATE_TEST_SUITE_P(Sizes, AtcDifferential, ::testing::Values(64u, 100u),
                         [](const ::testing::TestParamInfo<unsigned> &p) {
                             return "slots" + std::to_string(p.param);
                         });

// Random translates over more pages than the ATC holds, re-maps that
// change a page's rights behind the ATC's back (so one page comes to
// sit in several slots), every invalidation shape (zero-length,
// unaligned, wider than the live entries, ending at or wrapping past
// 2^64), global invalidations, resets and planted drops.  After each
// op the agent must match the linear ATC: the translation, the valid
// entries in slot order, and every counter.
TEST_P(AtcDifferential, MatchesLinearReference)
{
    const DomainId d = mmu.createDomain();
    AtsAgent ats(ctx, mmu, d);
    LinearAtc ref(mmu, d, GetParam());

    // 300 low pages plus the top 8 of the address space (the 48-bit
    // page table aliases those, which is enough to fill the ATC).
    std::vector<Iova> pages;
    for (unsigned i = 0; i < 300; ++i)
        pages.push_back(0x100000 + Iova(i) * mem::kPageSize);
    for (unsigned i = 1; i <= 8; ++i)
        pages.push_back(0 - Iova(i) * mem::kPageSize);
    const std::uint32_t kPerms[] = {PermRead, PermWrite, PermRW};
    for (std::size_t i = 0; i < pages.size(); ++i)
        ASSERT_TRUE(mmu.mapPage(d, pages[i], 0x40000000 + i * 0x1000,
                                kPerms[i % 3]));

    sim::Rng rng(0xa7c);
    std::uint64_t nextPa = 0x80000000;
    unsigned duplicates = 0, probes = 0, scans = 0, evictions = 0;
    for (unsigned step = 0; step < 20000; ++step) {
        // A hot set keeps hits common.  Each 1000 steps open with
        // translates only, over every page, to fill the ATC and evict.
        const bool fillPhase = step % 1000 < 300;
        const Iova page = pages[!fillPhase && rng.chance(0.6)
                                    ? rng.below(24)
                                    : rng.below(pages.size())];
        const unsigned op = fillPhase ? 0 : unsigned(rng.below(1000));
        if (op < 800) {
            const Iova iova = page + rng.below(mem::kPageSize);
            const bool isw = rng.chance(0.5);
            const bool full = ats.entries() == GetParam();
            const std::uint64_t fills = ref.fills;
            const AtsAgent::Result got = ats.translate(iova, isw);
            const AtsAgent::Result want = ref.translate(iova, isw);
            ASSERT_EQ(got.ok, want.ok) << "step " << step;
            ASSERT_EQ(got.hit, want.hit) << "step " << step;
            ASSERT_EQ(got.pa, want.pa) << "step " << step;
            ASSERT_EQ(got.latencyNs == ctx.cost.atsDevTlbHitNs, got.hit)
                << "step " << step;
            evictions += full && ref.fills > fills;
        } else if (op < 880) {
            // Re-map with other rights (or unmap) and no ATS
            // invalidation: the ATC keeps the old entry.
            mmu.unmapPage(d, page);
            if (!rng.chance(0.2)) {
                ASSERT_TRUE(mmu.mapPage(d, page, nextPa,
                                        kPerms[rng.below(3)]));
                nextPa += mem::kPageSize;
            }
        } else if (op < 990) {
            Iova lo = 0;
            std::uint64_t len = 0;
            switch (rng.below(40)) {
              default: // one page
                lo = page;
                len = mem::kPageSize;
                break;
              case 0: case 1: // unaligned, up to three pages
                lo = page + rng.below(mem::kPageSize);
                len = 1 + rng.below(3 * mem::kPageSize);
                break;
              case 2: // zero length, aligned or not
                lo = page + (rng.chance(0.5) ? 0 : rng.below(mem::kPageSize));
                break;
              case 3: // more pages than the ATC can hold
                lo = page - rng.below(64) * mem::kPageSize;
                len = (65 + rng.below(200)) * mem::kPageSize;
                break;
              case 4: // ends exactly at 2^64
                lo = (0 - (1 + rng.below(10)) * mem::kPageSize) +
                     rng.below(mem::kPageSize);
                len = 0 - lo;
                break;
              case 5: // wraps past 2^64
                lo = 0 - (1 + rng.below(10)) * mem::kPageSize;
                len = (0 - lo) + rng.below(1ull << 24);
                break;
            }
            if (rng.chance(0.02)) { // everything
                lo = rng.below(mem::kPageSize);
                len = ~std::uint64_t{0};
            }
            const std::size_t before = ats.entries();
            ats.invalidateRange(lo, len);
            ref.invalidateRange(lo, len);
            if (before > 0) { // roughly: which path the agent took
                const std::uint64_t span = len == 0 ? 1 : len / mem::kPageSize;
                (span <= before ? probes : scans) += 1;
            }
        } else if (op < 994) {
            ats.invalidateAll();
            ref.invalidateAll();
        } else if (op < 996) {
            ats.reset();
            ref.reset();
            ref.dropRemaining = 0;
        } else {
            const unsigned n = 1 + unsigned(rng.below(3));
            ats.debugDropInvalidations(n);
            ref.dropRemaining = n;
        }

        const std::vector<Iova> valid = ref.validEntries();
        ASSERT_EQ(ats.validEntries(), valid) << "step " << step;
        ASSERT_EQ(ats.entries(), valid.size()) << "step " << step;
        ASSERT_EQ(ats.hits(), ref.hits) << "step " << step;
        ASSERT_EQ(ats.misses(), ref.misses) << "step " << step;
        ASSERT_EQ(ats.fills(), ref.fills) << "step " << step;
        ASSERT_EQ(ats.invalidations(), ref.invalidations) << "step " << step;
        if (std::set<Iova>(valid.begin(), valid.end()).size() < valid.size())
            ++duplicates;
    }
    // The run reached the cases it exists for.
    EXPECT_GT(duplicates, 800u);
    EXPECT_GT(probes, 700u);
    EXPECT_GT(scans, 60u);
    EXPECT_GT(evictions, 500u);
    EXPECT_GT(ref.hits, 1500u);
}
