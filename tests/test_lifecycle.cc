/**
 * @file
 * Device lifecycle hardening: surprise unplug, orderly teardown, the
 * allocator/DMA-API drain paths, Iommu::detachDomain semantics, the
 * resetDomain IOTLB-flush regression, and the damn::audit invariant
 * battery proving zero live mappings, zero stale IOTLB entries, and
 * zero leaked IOVAs after every teardown.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/audit.hh"
#include "net/stream.hh"
#include "nvme/nvme.hh"
#include "sim/rng.hh"
#include "workloads/netperf.hh"

using namespace damn;
using namespace damn::net;

namespace {

/**
 * One System + NIC + stack + auditor under the parameterized scheme,
 * with helpers running the unplug -> teardown -> drain -> detach ->
 * audit sequence the chaos soak loops over.
 */
struct LifecycleFixture : ::testing::TestWithParam<dma::SchemeKind>
{
    LifecycleFixture()
    {
        SystemParams p;
        p.scheme = GetParam();
        sys = std::make_unique<System>(p);
        sys->ctx.functionalData = false;
        nic = std::make_unique<NicDevice>(*sys, "mlx5_0");
        // The auditor must observe every map: install it before any
        // traffic (construction maps nothing).
        auditor = std::make_unique<audit::Auditor>(sys->mmu);
        stack = std::make_unique<TcpStack>(*sys, *nic);
        stream = std::make_unique<StreamEngine>(*sys, *nic, *stack);
        for (unsigned i = 0; i < 4; ++i) {
            FlowSpec f;
            f.kind = i % 2 == 0 ? Traffic::Rx : Traffic::Tx;
            f.core = i % 2;
            f.port = i % 2;
            f.segBytes = 16 * 1024;
            f.window = 8;
            f.maxRetries = 5;
            f.rtoNs = 10 * sim::kNsPerUs;
            stream->addFlow(f);
        }
    }

    /** Drive traffic for @p ns of virtual time. */
    void
    burst(sim::TimeNs ns)
    {
        stream->startAll();
        clock += ns;
        sys->ctx.engine.run(clock);
    }

    /**
     * The canonical drain ordering: rings, then caches, then page
     * table + IOTLB (detach).  Returns the audit report.
     */
    audit::TeardownReport
    teardownAndAudit()
    {
        sys->ctx.faults.reset();
        if (nic->attached())
            nic->unplug();
        {
            sim::CpuCursor cpu(sys->ctx.machine.core(0), clock);
            stream->teardown(cpu);
            clock = std::max(clock, cpu.time);
        }
        // Virtual-time watchdog: every in-flight segment and pending
        // retransmit timer must have aborted by now.
        clock += 2 * sim::kNsPerMs;
        sys->ctx.engine.run(clock);
        EXPECT_TRUE(stream->quiesced()) << "flows did not quiesce";

        sim::CpuCursor cpu(sys->ctx.machine.core(0), clock);
        sys->dmaApi->drainDomain(cpu, *nic);
        const std::uint64_t forced =
            sys->mmu.detachDomain(nic->domain());
        return auditor->verifyTeardown(
            nic->domain(), sys->liveIovaPages(nic->domain()),
            forced);
    }

    std::unique_ptr<System> sys;
    std::unique_ptr<NicDevice> nic;
    std::unique_ptr<audit::Auditor> auditor;
    std::unique_ptr<TcpStack> stack;
    std::unique_ptr<StreamEngine> stream;
    sim::TimeNs clock = 0;
};

std::string
schemeName(const ::testing::TestParamInfo<dma::SchemeKind> &info)
{
    std::string n = dma::schemeKindName(info.param);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

// ---------------------------------------------------------------------
// Orderly teardown: zero live mappings / stale TLB / leaked IOVAs
// ---------------------------------------------------------------------

TEST_P(LifecycleFixture, DetachAfterCleanTeardownAuditsClean)
{
    burst(500 * sim::kNsPerUs);
    EXPECT_GT(auditor->mapEvents() + sys->ctx.stats.get(sim::Ctr::DamnAllocs),
              0u)
        << "burst moved no traffic; the audit would be vacuous";

    const audit::TeardownReport rep = teardownAndAudit();
    EXPECT_TRUE(rep.clean())
        << ::testing::PrintToString(rep.violations);
    EXPECT_EQ(rep.ledgerPages, 0u);
    EXPECT_EQ(rep.tablePages, 0u);
    EXPECT_EQ(rep.tlbEntries, 0u);
    EXPECT_EQ(rep.staleTlbEntries, 0u);
    EXPECT_EQ(rep.leakedIovas, 0u);
    // Nothing was left for detachDomain() to force-clear: the drivers
    // and allocators released every mapping themselves.
    EXPECT_EQ(rep.forceCleared, 0u);
}

TEST_P(LifecycleFixture, SurpriseUnplugAbortsInsteadOfHanging)
{
    // The 20th device DMA yanks the NIC mid-burst.
    sys->ctx.faults.enable(99);
    sys->ctx.faults.failNth(sim::FaultSite::DeviceUnplug, 20);
    burst(500 * sim::kNsPerUs);
    EXPECT_FALSE(nic->attached()) << "scheduled unplug never fired";
    EXPECT_GT(sys->ctx.stats.get(sim::Ctr::DmaUnpluggedAborts), 0u);

    const audit::TeardownReport rep = teardownAndAudit();
    EXPECT_TRUE(rep.clean())
        << ::testing::PrintToString(rep.violations);
    // Unplug fails flows (no retransmit can ever land) rather than
    // letting them spin against a dead device.
    EXPECT_GT(stream->failedFlows() + stream->abortedSegments(), 0u);
}

TEST_P(LifecycleFixture, TranslateFaultsDetachedAfterTeardown)
{
    burst(200 * sim::kNsPerUs);
    const audit::TeardownReport rep = teardownAndAudit();
    ASSERT_TRUE(rep.clean());

    if (!sys->mmu.enabled())
        return; // damn-without-iommu variant: nothing to translate
    const iommu::TranslateResult t =
        sys->mmu.translate(nic->domain(), 0x4000, false);
    EXPECT_TRUE(t.fault);
    EXPECT_EQ(sys->mmu.faultLog().back().reason,
              iommu::FaultReason::Detached);

    // Replug: a fresh attach lifts the detached state.
    sys->mmu.attachDomain(nic->domain());
    nic->replug();
    EXPECT_FALSE(sys->mmu.detached(nic->domain()));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, LifecycleFixture,
    ::testing::Values(dma::SchemeKind::Strict, dma::SchemeKind::Deferred,
                      dma::SchemeKind::Shadow, dma::SchemeKind::Damn),
    schemeName);

// ---------------------------------------------------------------------
// Iommu domain lifecycle primitives
// ---------------------------------------------------------------------

namespace {

struct IommuLifecycle : ::testing::Test
{
    IommuLifecycle() : ctx(sim::CostModel{}, 1, 2), mmu(ctx) {}

    sim::Context ctx;
    iommu::Iommu mmu;
};

} // namespace

// Satellite regression: resetDomain() must flush the domain's IOTLB
// entries, or a reset device resumes with translations for mappings
// that no longer exist.
TEST_F(IommuLifecycle, ResetDomainFlushesIotlb)
{
    const iommu::DomainId d = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    ASSERT_TRUE(mmu.translate(d, 0x1000, false).ok); // fill the IOTLB
    ASSERT_EQ(mmu.iotlb().validEntries(d).size(), 1u);

    // Tear the PTE out from under the cached entry: the stale IOTLB
    // entry still translates (this is the deferred-mode vulnerability
    // window, working as modeled)...
    ASSERT_TRUE(mmu.unmapPage(d, 0x1000));
    EXPECT_TRUE(mmu.translate(d, 0x1000, false).ok);

    // ...and resetDomain() must clear it along with the quarantine
    // state, so the post-reset device starts from nothing.
    mmu.resetDomain(d);
    EXPECT_TRUE(mmu.iotlb().validEntries(d).empty());
    EXPECT_TRUE(mmu.translate(d, 0x1000, false).fault);
}

TEST_F(IommuLifecycle, DetachDomainClearsEverythingAndBlocksDma)
{
    const iommu::DomainId d = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    ASSERT_TRUE(mmu.mapHuge(d, 0x200000, 0x400000, iommu::PermRead));
    ASSERT_TRUE(mmu.translate(d, 0x1000, false).ok);

    // The driver "forgot" 513 pages: detach force-clears and reports
    // them, flushes the IOTLB, and fences later DMA.
    EXPECT_EQ(mmu.detachDomain(d), 513u);
    EXPECT_TRUE(mmu.detached(d));
    EXPECT_EQ(mmu.pageTable(d).mappedPages(), 0u);
    EXPECT_TRUE(mmu.iotlb().validEntries(d).empty());

    const iommu::TranslateResult t = mmu.translate(d, 0x1000, false);
    EXPECT_TRUE(t.fault);
    EXPECT_EQ(mmu.faultLog().back().reason,
              iommu::FaultReason::Detached);

    // attachDomain() re-arms the (empty) domain.
    mmu.attachDomain(d);
    EXPECT_FALSE(mmu.detached(d));
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    EXPECT_TRUE(mmu.translate(d, 0x1000, false).ok);
}

TEST_F(IommuLifecycle, DetachDoesNotDisturbOtherDomains)
{
    const iommu::DomainId a = mmu.createDomain();
    const iommu::DomainId b = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(a, 0x1000, 0x5000, iommu::PermRW));
    ASSERT_TRUE(mmu.mapPage(b, 0x1000, 0x6000, iommu::PermRW));
    ASSERT_TRUE(mmu.translate(b, 0x1000, false).ok);

    mmu.detachDomain(a);
    EXPECT_FALSE(mmu.detached(b));
    EXPECT_EQ(mmu.pageTable(b).mappedPages(), 1u);
    EXPECT_EQ(mmu.iotlb().validEntries(b).size(), 1u);
    EXPECT_TRUE(mmu.translate(b, 0x1000, false).ok);
}

// ---------------------------------------------------------------------
// Auditor ledger semantics
// ---------------------------------------------------------------------

TEST_F(IommuLifecycle, AuditorLedgerTracksMapUnmapAndDetach)
{
    audit::Auditor auditor(mmu);
    const iommu::DomainId d = mmu.createDomain();

    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    ASSERT_TRUE(mmu.mapHuge(d, 0x200000, 0x400000, iommu::PermRead));
    EXPECT_EQ(auditor.ledgerPages(d), 513u);
    EXPECT_EQ(auditor.mapEvents(), 2u);

    ASSERT_TRUE(mmu.unmapPage(d, 0x1000));
    EXPECT_EQ(auditor.ledgerPages(d), 512u);
    EXPECT_EQ(auditor.unmapEvents(), 1u);

    // A failed map (already present) must not double-count.
    EXPECT_FALSE(mmu.mapHuge(d, 0x200000, 0x400000, iommu::PermRead));
    EXPECT_EQ(auditor.ledgerPages(d), 512u);

    // Detach with the huge mapping leaked: the audit pins the blame.
    const std::uint64_t forced = mmu.detachDomain(d);
    EXPECT_EQ(forced, 512u);
    EXPECT_EQ(auditor.ledgerPages(d), 0u); // DetachClear resets it
    const audit::TeardownReport rep =
        auditor.verifyTeardown(d, 0, forced);
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.forceCleared, 512u);
}

// An Auditor detaches itself when destroyed, but only while it holds
// the observer slot: a destroyed thief leaves the slot empty, and a
// destroyed victim leaves the thief installed.  Maps after either
// destruction must not reach a dead observer.
TEST_F(IommuLifecycle, AuditorDetachesItsObserverWhenDestroyed)
{
    const iommu::DomainId d = mmu.createDomain();
    auto first = std::make_unique<audit::Auditor>(mmu);
    EXPECT_EQ(mmu.mapObserver(), first.get());
    auto second = std::make_unique<audit::Auditor>(mmu); // steals it
    first.reset();
    EXPECT_EQ(mmu.mapObserver(), second.get());
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    EXPECT_EQ(second->ledgerPages(d), 1u);

    second.reset();
    EXPECT_EQ(mmu.mapObserver(), nullptr);
    ASSERT_TRUE(mmu.mapPage(d, 0x2000, 0x6000, iommu::PermRW));

    {
        audit::Auditor a(mmu);
        const audit::Auditor b(mmu);
    } // b (the holder) dies first, then a, which no longer holds it
    EXPECT_EQ(mmu.mapObserver(), nullptr);
    ASSERT_TRUE(mmu.unmapPage(d, 0x1000));
}

// ledgerPages() is a running count kept by the map observer; it must
// equal the sum over the ledger (and the page table's own count) after
// every kind of mutation, including the ones that change nothing.
TEST_F(IommuLifecycle, AuditorLedgerRunningCountMatchesLedgerSum)
{
    audit::Auditor auditor(mmu);
    const iommu::DomainId d = mmu.createDomain();
    const iommu::DomainId other = mmu.createDomain();
    std::map<iommu::Iova, unsigned> ledger; // test-side reference
    const auto check = [&](const char *step) {
        SCOPED_TRACE(step);
        std::uint64_t sum = 0;
        for (const auto &[iova, pages] : ledger)
            sum += pages;
        EXPECT_EQ(auditor.ledgerPages(d), sum);
        EXPECT_EQ(auditor.ledgerPages(d), mmu.pageTable(d).mappedPages());
    };
    check("empty");

    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    ledger[0x1000] = 1;
    check("4 KiB map");

    ASSERT_TRUE(mmu.mapHuge(d, 0x400000, 0x800000, iommu::PermRead));
    ledger[0x400000] = 512;
    check("2 MiB map");

    // Re-map of the same IOVA: refused while mapped, then accepted
    // (onto a new frame) once the first mapping is gone.
    EXPECT_FALSE(mmu.mapPage(d, 0x1000, 0x6000, iommu::PermRW));
    check("refused re-map");
    ASSERT_TRUE(mmu.unmapPage(d, 0x1000));
    ledger.erase(0x1000);
    check("unmap");
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x7000, iommu::PermRW));
    ledger[0x1000] = 1;
    check("re-map at the same IOVA");

    // Unmapping an IOVA that was never mapped emits nothing.
    EXPECT_FALSE(mmu.unmapPage(d, 0x9000));
    check("unmap of a never-mapped IOVA");

    // Another domain's traffic never moves this domain's count.
    ASSERT_TRUE(mmu.mapPage(other, 0x1000, 0x5000, iommu::PermRW));
    check("other domain map");
    EXPECT_EQ(auditor.ledgerPages(other), 1u);

    EXPECT_EQ(mmu.detachDomain(d), 513u);
    ledger.clear();
    check("detach (DetachClear)");
    EXPECT_EQ(auditor.ledgerPages(other), 1u);
}

// The hashed ledger against a std::map reference, over raw observer
// events the Iommu itself never emits: re-maps of a live IOVA, unmaps
// of absent ones, and domain ids past the ledger's end.
TEST_F(IommuLifecycle, AuditorLedgerMatchesOrderedMapReference)
{
    audit::Auditor auditor(mmu);
    constexpr iommu::DomainId kDomains = 6; // mmu has none: all grow
    std::vector<std::map<iommu::Iova, unsigned>> ref(kDomains);
    sim::Rng rng(0x1ed9e7);
    std::uint64_t maps = 0, unmaps = 0;
    for (unsigned op = 0; op < 20000; ++op) {
        const iommu::DomainId d = iommu::DomainId(rng.below(kDomains));
        const iommu::Iova iova = rng.below(256) * mem::kPageSize;
        const unsigned kind = unsigned(rng.below(100));
        if (kind < 55) {
            const unsigned pages = rng.chance(0.2) ? 512 : 1;
            auditor.onEvent(iommu::MapEvent::Map, d, iova, pages);
            ref[d][iova] = pages;
            ++maps;
        } else if (kind < 99) {
            auditor.onEvent(iommu::MapEvent::Unmap, d, iova, 1);
            ref[d].erase(iova);
            ++unmaps;
        } else {
            auditor.onEvent(iommu::MapEvent::DetachClear, d, 0, 0);
            ref[d].clear();
        }
        for (iommu::DomainId k = 0; k <= kDomains; ++k) {
            std::uint64_t sum = 0;
            if (k < kDomains)
                for (const auto &[page, n] : ref[k])
                    sum += n;
            ASSERT_EQ(auditor.ledgerPages(k), sum)
                << "op " << op << " domain " << k;
        }
    }
    EXPECT_EQ(auditor.mapEvents(), maps);
    EXPECT_EQ(auditor.unmapEvents(), unmaps);
}

TEST_F(IommuLifecycle, AuditorFlagsStaleTlbEntries)
{
    audit::Auditor auditor(mmu);
    const iommu::DomainId d = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    ASSERT_TRUE(mmu.translate(d, 0x1000, false).ok);
    EXPECT_EQ(auditor.verifyTeardown(d, 0, 0).staleTlbEntries, 0u);

    // PTE gone, entry cached: one stale translation.
    ASSERT_TRUE(mmu.unmapPage(d, 0x1000));
    EXPECT_EQ(auditor.verifyTeardown(d, 0, 0).staleTlbEntries, 1u);

    mmu.iotlb().invalidateRange(d, 0x1000, 4096);
    EXPECT_EQ(auditor.verifyTeardown(d, 0, 0).staleTlbEntries, 0u);
}

// ---------------------------------------------------------------------
// Allocator drain (DAMN chunk caches)
// ---------------------------------------------------------------------

TEST(AllocatorDrain, DamnDrainReleasesEveryCachedChunk)
{
    SystemParams p;
    p.scheme = dma::SchemeKind::Damn;
    System sys(p);
    sys.ctx.functionalData = false;
    NicDevice nic(sys, "mlx5_0");
    audit::Auditor auditor(sys.mmu);
    TcpStack stack(sys, nic);

    // Pull a pile of RX buffers through the DAMN caches, spread over
    // cores (per-core magazines + depot all get populated)...
    sim::CpuCursor cpu(sys.ctx.machine.core(0), 0);
    std::vector<RxBuffer> bufs;
    for (unsigned core = 0; core < 4; ++core) {
        sim::CpuCursor c(sys.ctx.machine.core(core), cpu.time);
        for (unsigned i = 0; i < 64; ++i)
            bufs.push_back(stack.driver.allocRxBuffer(c, 16 * 1024));
    }
    EXPECT_GT(sys.damn->ownedBytes(), 0u);

    // ...free them all back (rings emptied)...
    for (RxBuffer &b : bufs)
        stack.driver.abortRxBuffer(cpu, b);
    bufs.clear();

    // ...then drain: every cached chunk's mappings come back through
    // the scheme's unmap path, and nothing stays outstanding.
    sys.damn->drainDomain(cpu, nic.domain());
    EXPECT_EQ(sys.damn->outstandingIovaSlots(nic.domain()), 0u);

    const std::uint64_t forced = sys.mmu.detachDomain(nic.domain());
    const audit::TeardownReport rep = auditor.verifyTeardown(
        nic.domain(), sys.liveIovaPages(nic.domain()), forced);
    EXPECT_TRUE(rep.clean())
        << ::testing::PrintToString(rep.violations);
}

// ---------------------------------------------------------------------
// Memory-pressure injection (mem.page_alloc site)
// ---------------------------------------------------------------------

TEST(MemoryPressure, InjectedAllocFailuresRecoverWithoutFailingFlows)
{
    work::NetperfOpts opts = work::singleCoreOpts(
        dma::SchemeKind::Deferred, work::NetMode::Rx);
    opts.runWindow.warmupNs = 2 * sim::kNsPerMs;
    opts.runWindow.measureNs = 10 * sim::kNsPerMs;
    const work::NetperfRun r =
        work::runNetperf(opts, [](work::NetperfRun &run) {
            run.sys->ctx.faults.enable(21);
            run.sys->ctx.faults.setProbability(
                sim::FaultSite::PageAlloc, 0.02);
        });

    // Pressure was real...
    const auto it = r.common.stats.find("mem.injected_alloc_fails");
    ASSERT_NE(it, r.common.stats.end());
    EXPECT_GT(it->second, 0u);
    // ...and the ring-refill retry path healed every failure: traffic
    // flowed and no flow died.
    EXPECT_GT(r.res.totalGbps, 0.0);
    EXPECT_EQ(r.res.failedFlows, 0u);
}

// ---------------------------------------------------------------------
// NVMe lifecycle: abort semantics on unplug
// ---------------------------------------------------------------------

TEST(NvmeLifecycle, UnpluggedSubmitAbortsInBoundedTime)
{
    SystemParams p;
    p.scheme = dma::SchemeKind::Strict;
    System sys(p);
    nvme::NvmeDevice dev(sys.ctx, "nvme0", sys.mmu, sys.phys);
    sim::CpuCursor cpu(sys.ctx.machine.core(0), 0);
    const mem::Pa pa = mem::pfnToPa(sys.pageAlloc.allocPages(0, 0));
    const iommu::Iova dma =
        sys.dmaApi->map(cpu, dev, pa, 4096, dma::Dir::FromDevice);

    // Unplug before submission: the driver aborts without a single
    // device-side attempt or timeout.
    dev.unplug();
    const nvme::NvmeCmdResult pre = dev.submitRead(1000, dma, 4096);
    EXPECT_FALSE(pre.ok);
    EXPECT_TRUE(pre.aborted);
    EXPECT_EQ(pre.attempts, 0u);
    EXPECT_EQ(pre.completes, 1000u); // no timeout burned

    // Unplug *during* the command: the faulting DMA is the unplug;
    // the driver aborts instead of entering the retry/timeout loop.
    dev.replug();
    sys.ctx.faults.enable(5);
    sys.ctx.faults.failNth(sim::FaultSite::DeviceUnplug, 1);
    const nvme::NvmeCmdResult mid = dev.submitRead(2000, dma, 4096);
    EXPECT_FALSE(mid.ok);
    EXPECT_TRUE(mid.aborted);
    EXPECT_EQ(mid.attempts, 1u);
    EXPECT_EQ(mid.timeouts, 0u);
    EXPECT_LT(mid.completes, 2000 + sys.ctx.cost.nvmeTimeoutNs);
    EXPECT_EQ(dev.abortedCmds(), 2u);
}
