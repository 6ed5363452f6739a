/**
 * @file
 * Fault-injection framework, IOMMU fault reporting, and end-to-end
 * recovery paths: injector determinism, fault-log semantics,
 * quarantine round trips, the per-domain deferred-flush scoping
 * regression, TCP-lite retransmission healing dropped segments
 * byte-exactly under every protection scheme, and NVMe bounded retry.
 */

#include <gtest/gtest.h>

#include "net/stream.hh"
#include "nvme/nvme.hh"
#include "workloads/attacks.hh"
#include "workloads/netperf.hh"

using namespace damn;
using namespace damn::net;

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, DeterministicAcrossReruns)
{
    sim::FaultInjector a, b;
    a.enable(123);
    b.enable(123);
    a.setProbability(sim::FaultSite::NicRx, 0.1);
    b.setProbability(sim::FaultSite::NicRx, 0.1);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_EQ(a.shouldFail(sim::FaultSite::NicRx),
                  b.shouldFail(sim::FaultSite::NicRx));
    }
    EXPECT_EQ(a.ops(sim::FaultSite::NicRx), 10000u);
    EXPECT_EQ(a.injected(sim::FaultSite::NicRx),
              b.injected(sim::FaultSite::NicRx));
    EXPECT_GT(a.injected(sim::FaultSite::NicRx), 0u);
}

TEST(FaultInjector, SeedChangesSequence)
{
    sim::FaultInjector a, b;
    a.enable(1);
    b.enable(2);
    a.setProbability(sim::FaultSite::NicTx, 0.2);
    b.setProbability(sim::FaultSite::NicTx, 0.2);
    bool differ = false;
    for (int i = 0; i < 1000; ++i) {
        if (a.shouldFail(sim::FaultSite::NicTx) !=
            b.shouldFail(sim::FaultSite::NicTx))
            differ = true;
    }
    EXPECT_TRUE(differ);
}

TEST(FaultInjector, FailNthExactlyOnce)
{
    sim::FaultInjector f;
    f.enable(5);
    f.failNth(sim::FaultSite::NicTx, 3);
    EXPECT_FALSE(f.shouldFail(sim::FaultSite::NicTx));
    EXPECT_FALSE(f.shouldFail(sim::FaultSite::NicTx));
    EXPECT_TRUE(f.shouldFail(sim::FaultSite::NicTx));
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(f.shouldFail(sim::FaultSite::NicTx));
    EXPECT_EQ(f.injected(sim::FaultSite::NicTx), 1u);
    EXPECT_EQ(f.totalInjected(), 1u);
}

TEST(FaultInjector, DisabledIsInert)
{
    sim::FaultInjector f;
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(f.shouldFail(sim::FaultSite::DmaTranslate));
    // No accounting either: disabled means zero cost, zero state.
    EXPECT_EQ(f.ops(sim::FaultSite::DmaTranslate), 0u);
    EXPECT_EQ(f.totalInjected(), 0u);
}

TEST(FaultInjector, SitesHaveIndependentStreams)
{
    // Decisions at one site must not shift when another site is
    // exercised in between (each site draws its own RNG stream).
    sim::FaultInjector a, b;
    a.enable(77);
    b.enable(77);
    a.setProbability(sim::FaultSite::NicRx, 0.05);
    b.setProbability(sim::FaultSite::NicRx, 0.05);
    b.setProbability(sim::FaultSite::NvmeCmd, 0.5);
    for (int i = 0; i < 1000; ++i) {
        b.shouldFail(sim::FaultSite::NvmeCmd);
        EXPECT_EQ(a.shouldFail(sim::FaultSite::NicRx),
                  b.shouldFail(sim::FaultSite::NicRx));
    }
}

TEST(FaultInjector, ResetClearsEverything)
{
    sim::FaultInjector f;
    f.enable(9);
    f.setProbability(sim::FaultSite::NicRx, 1.0);
    EXPECT_TRUE(f.shouldFail(sim::FaultSite::NicRx));
    f.reset();
    EXPECT_FALSE(f.enabled());
    EXPECT_FALSE(f.shouldFail(sim::FaultSite::NicRx));
    EXPECT_EQ(f.ops(sim::FaultSite::NicRx), 0u);
    EXPECT_EQ(f.totalInjected(), 0u);
}

TEST(FaultInjector, EnableResetEnableReproducesSchedule)
{
    // The reset() contract: enable(s) -> reset() -> enable(s) must
    // replay the exact fault schedule of the first enable(s), because
    // enable() re-seeds every per-site stream from its argument.  The
    // chaos soak leans on this to re-arm the storm every cycle.
    const auto schedule = [](sim::FaultInjector &f) {
        f.setProbability(sim::FaultSite::NicRx, 0.1);
        f.setProbability(sim::FaultSite::NvmeCmd, 0.3);
        std::vector<bool> s;
        for (int i = 0; i < 2000; ++i) {
            s.push_back(f.shouldFail(sim::FaultSite::NicRx));
            s.push_back(f.shouldFail(sim::FaultSite::NvmeCmd));
        }
        return s;
    };

    sim::FaultInjector f;
    f.enable(31337);
    const std::vector<bool> first = schedule(f);

    f.reset();
    // Between reset() and enable() the injector is disarmed: nothing
    // fires, no counters move, no RNG state advances.
    EXPECT_FALSE(f.shouldFail(sim::FaultSite::NicRx));
    EXPECT_EQ(f.ops(sim::FaultSite::NicRx), 0u);

    f.enable(31337);
    EXPECT_EQ(schedule(f), first);
}

// ---------------------------------------------------------------------
// IOMMU fault reporting
// ---------------------------------------------------------------------

namespace {

struct FaultIommuFixture : ::testing::Test
{
    FaultIommuFixture() : ctx(sim::CostModel{}, 1, 2), mmu(ctx) {}

    sim::Context ctx;
    iommu::Iommu mmu;
};

} // namespace

TEST_F(FaultIommuFixture, LogRecordsReasonsAndDetails)
{
    const iommu::DomainId d = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRead));

    EXPECT_TRUE(mmu.translate(d, 0x9000, false).fault);
    EXPECT_TRUE(mmu.translate(d, 0x1000, true).fault);

    ASSERT_EQ(mmu.faultLog().size(), 2u);
    const iommu::FaultRecord &np = mmu.faultLog()[0];
    EXPECT_EQ(np.domain, d);
    EXPECT_EQ(np.iova, 0x9000u);
    EXPECT_FALSE(np.isWrite);
    EXPECT_EQ(np.reason, iommu::FaultReason::NotPresent);
    const iommu::FaultRecord &perm = mmu.faultLog()[1];
    EXPECT_EQ(perm.iova, 0x1000u);
    EXPECT_TRUE(perm.isWrite);
    EXPECT_EQ(perm.reason, iommu::FaultReason::Permission);

    EXPECT_EQ(mmu.faults(), 2u);
    EXPECT_EQ(mmu.domainFaults(d), 2u);
}

TEST_F(FaultIommuFixture, LogOverflowKeepsOldestEntries)
{
    const iommu::DomainId d = mmu.createDomain();
    mmu.setFaultLogCapacity(4);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_TRUE(
            mmu.translate(d, 0x10000 + i * 0x1000, false).fault);

    EXPECT_EQ(mmu.faultLog().size(), 4u);
    EXPECT_EQ(mmu.faultLogOverflows(), 2u);
    EXPECT_EQ(mmu.faults(), 6u); // counters see every fault
    EXPECT_EQ(mmu.faultLog().front().iova, 0x10000u);

    mmu.clearFaultLog();
    EXPECT_TRUE(mmu.faultLog().empty());
    EXPECT_EQ(mmu.faultLogOverflows(), 0u);
}

TEST_F(FaultIommuFixture, LogOverflowAccountingResumesAfterClear)
{
    const iommu::DomainId d = mmu.createDomain();
    mmu.setFaultLogCapacity(2);
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_TRUE(
            mmu.translate(d, 0x30000 + i * 0x1000, false).fault);
    EXPECT_EQ(mmu.faultLog().size(), 2u);
    EXPECT_EQ(mmu.faultLogOverflows(), 3u);

    // clearFaultLog() models the driver draining the recording
    // registers: the log refills from empty and the overflow counter
    // restarts — it is per-drain accounting, not a lifetime total.
    mmu.clearFaultLog();
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_TRUE(
            mmu.translate(d, 0x40000 + i * 0x1000, false).fault);
    EXPECT_EQ(mmu.faultLog().size(), 2u);
    EXPECT_EQ(mmu.faultLogOverflows(), 1u);
    EXPECT_EQ(mmu.faultLog().front().iova, 0x40000u);
    // The aggregate counters keep the full history.
    EXPECT_EQ(mmu.faults(), 8u);
}

TEST_F(FaultIommuFixture, QuarantineAndResetRoundTrip)
{
    const iommu::DomainId d = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    mmu.setQuarantineThreshold(3);

    for (unsigned i = 0; i < 3; ++i)
        EXPECT_TRUE(
            mmu.translate(d, 0x90000 + i * 0x1000, false).fault);
    EXPECT_TRUE(mmu.quarantined(d));

    // Even a perfectly valid mapping faults while quarantined.
    const iommu::TranslateResult t = mmu.translate(d, 0x1000, false);
    EXPECT_TRUE(t.fault);
    EXPECT_EQ(mmu.faultLog().back().reason,
              iommu::FaultReason::Quarantined);
    EXPECT_EQ(mmu.domainFaults(d), 4u);

    mmu.resetDomain(d);
    EXPECT_FALSE(mmu.quarantined(d));
    EXPECT_EQ(mmu.domainFaults(d), 0u);
    EXPECT_TRUE(mmu.translate(d, 0x1800, false).ok);
}

TEST_F(FaultIommuFixture, QuarantineDoesNotLeakAcrossDomains)
{
    const iommu::DomainId bad = mmu.createDomain();
    const iommu::DomainId good = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(good, 0x1000, 0x5000, iommu::PermRW));
    mmu.setQuarantineThreshold(2);
    mmu.translate(bad, 0xa0000, false);
    mmu.translate(bad, 0xa1000, false);
    EXPECT_TRUE(mmu.quarantined(bad));
    EXPECT_FALSE(mmu.quarantined(good));
    EXPECT_TRUE(mmu.translate(good, 0x1000, true).ok);
}

TEST_F(FaultIommuFixture, InjectedTranslateFaultIsAttributed)
{
    const iommu::DomainId d = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    ctx.faults.enable(11);
    ctx.faults.failNth(sim::FaultSite::DmaTranslate, 1);
    EXPECT_TRUE(mmu.translate(d, 0x1000, false).fault);
    ASSERT_EQ(mmu.faultLog().size(), 1u);
    EXPECT_EQ(mmu.faultLog()[0].reason, iommu::FaultReason::Injected);
    // The transient fault is gone on retry.
    EXPECT_TRUE(mmu.translate(d, 0x1000, false).ok);
}

TEST_F(FaultIommuFixture, InjectedInvalDropKeepsStaleEntry)
{
    const iommu::DomainId d = mmu.createDomain();
    ASSERT_TRUE(mmu.mapPage(d, 0x1000, 0x5000, iommu::PermRW));
    ASSERT_TRUE(mmu.translate(d, 0x1000, false).ok); // fill IOTLB
    ASSERT_NE(mmu.iotlb().lookup(d, 0x1000), nullptr);

    ctx.faults.enable(13);
    ctx.faults.failNth(sim::FaultSite::IommuInval, 1);
    mmu.backend().syncInvalidate(ctx.machine.core(0), 0, d, 0x1000,
                                 4096);
    // The dropped command left the stale entry behind...
    EXPECT_NE(mmu.iotlb().lookup(d, 0x1000), nullptr);
    // ...and the next (uninjected) invalidation clears it.
    mmu.backend().syncInvalidate(ctx.machine.core(0), 0, d, 0x1000,
                                 4096);
    EXPECT_EQ(mmu.iotlb().lookup(d, 0x1000), nullptr);
}

// ---------------------------------------------------------------------
// Per-domain deferred flush (cross-domain IOTLB pollution regression)
// ---------------------------------------------------------------------

TEST(DeferredFlush, ScopedToDomainsWithPendingUnmaps)
{
    SystemParams p;
    p.scheme = dma::SchemeKind::Deferred;
    System sys(p);
    NicDevice a(sys, "nic_a");
    NicDevice b(sys, "nic_b");
    sim::CpuCursor cpu(sys.ctx.machine.core(0), 0);

    const mem::Pa pa_a = mem::pfnToPa(sys.pageAlloc.allocPages(0, 0));
    const mem::Pa pa_b = mem::pfnToPa(sys.pageAlloc.allocPages(0, 0));
    const iommu::Iova ia =
        sys.dmaApi->map(cpu, a, pa_a, 4096, dma::Dir::FromDevice);
    const iommu::Iova ib =
        sys.dmaApi->map(cpu, b, pa_b, 4096, dma::Dir::FromDevice);

    ASSERT_TRUE(a.dmaTouch(cpu.time, ia, 64, true).ok);
    ASSERT_TRUE(b.dmaTouch(cpu.time, ib, 64, true).ok);
    ASSERT_NE(sys.mmu.iotlb().lookup(a.domain(), ia), nullptr);

    // B unmaps and its deferred flush lands: A's warm entry — a
    // different domain with nothing pending — must survive.
    sys.dmaApi->unmap(cpu, b, ib, 4096, dma::Dir::FromDevice);
    sys.dmaApi->flushPending(cpu);
    EXPECT_NE(sys.mmu.iotlb().lookup(a.domain(), ia), nullptr);
    EXPECT_EQ(sys.mmu.iotlb().lookup(b.domain(), ib), nullptr);
}

// ---------------------------------------------------------------------
// TCP-lite recovery: byte-exact healing under every scheme
// ---------------------------------------------------------------------

namespace {

struct FaultNetFixture : ::testing::TestWithParam<dma::SchemeKind>
{
    FaultNetFixture()
    {
        SystemParams p;
        p.scheme = GetParam();
        sys = std::make_unique<System>(p);
        nic = std::make_unique<NicDevice>(*sys, "mlx5_0");
        stack = std::make_unique<TcpStack>(*sys, *nic);
    }

    sim::CpuCursor
    cpu(sim::CoreId core = 0)
    {
        return sim::CpuCursor(sys->ctx.machine.core(core),
                              sys->ctx.now());
    }

    std::unique_ptr<System> sys;
    std::unique_ptr<NicDevice> nic;
    std::unique_ptr<TcpStack> stack;
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

TEST_P(FaultNetFixture, RetransmitHealsDroppedSegmentsByteExactly)
{
    constexpr std::uint32_t kSeg = 4096;
    constexpr unsigned kSegs = 8;

    // Deterministic drops: the 2nd and 5th RX DMA attempts are lost.
    sys->ctx.faults.enable(7);
    sys->ctx.faults.failNth(sim::FaultSite::NicRx, 2);
    sys->ctx.faults.failNth(sim::FaultSite::NicRx, 5);

    auto c = cpu();
    std::vector<std::uint8_t> expected, delivered;
    unsigned drops = 0;
    RxBuffer buf = stack->driver.allocRxBuffer(c, kSeg);
    for (unsigned s = 0; s < kSegs; ++s) {
        std::vector<std::uint8_t> wire(kSeg);
        for (std::size_t i = 0; i < wire.size(); ++i)
            wire[i] = std::uint8_t(s * 31 + i * 7 + 1);
        expected.insert(expected.end(), wire.begin(), wire.end());

        // Driver RX loop: on a faulted DMA the buffer is re-posted and
        // the peer retransmits the same segment.
        for (unsigned attempt = 0;; ++attempt) {
            ASSERT_LT(attempt, 5u) << "retransmit did not converge";
            const dma::DmaOutcome out = nic->transferSegment(
                c.time, 0, Traffic::Rx, buf.seg.dmaAddr, kSeg);
            if (out.fault) {
                ++drops;
                continue;
            }
            // The paced transfer is timing-only; land the payload.
            ASSERT_TRUE(nic->dmaWrite(c.time, buf.seg.dmaAddr,
                                      wire.data(), kSeg)
                            .ok);
            break;
        }

        SkBuff skb = stack->driver.rxBuild(c, buf, kSeg);
        buf = stack->driver.allocRxBuffer(c, kSeg); // ring refill
        std::vector<std::uint8_t> out(kSeg);
        sys->accessor().access(c, skb, 0, kSeg, out.data());
        delivered.insert(delivered.end(), out.begin(), out.end());
        sys->accessor().freeSkb(c, skb);
    }

    EXPECT_EQ(drops, 2u);
    // Every payload byte arrives exactly once, in order, unmodified.
    EXPECT_EQ(delivered, expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, FaultNetFixture,
    ::testing::Values(dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
                      dma::SchemeKind::Deferred, dma::SchemeKind::Shadow,
                      dma::SchemeKind::Damn),
    schemeName);

// ---------------------------------------------------------------------
// StreamEngine under a fault storm: recovery + bit-exact reproducibility
// ---------------------------------------------------------------------

namespace {

work::NetperfRun
runStorm()
{
    work::NetperfOpts opts =
        work::singleCoreOpts(dma::SchemeKind::Deferred,
                             work::NetMode::Rx);
    opts.runWindow.warmupNs = 2 * sim::kNsPerMs;
    opts.runWindow.measureNs = 10 * sim::kNsPerMs;
    return work::runNetperf(opts, [](work::NetperfRun &r) {
        r.sys->ctx.faults.enable(42);
        r.sys->ctx.faults.setProbability(sim::FaultSite::NicRx, 0.01);
    });
}

} // namespace

TEST(StreamRecovery, FaultStormHealsAndIsBitIdenticalAcrossRuns)
{
    const work::NetperfRun a = runStorm();
    const work::NetperfRun b = runStorm();

    EXPECT_GT(a.res.drops, 0u);
    EXPECT_EQ(a.res.retransmits, a.res.drops);
    EXPECT_EQ(a.res.failedFlows, 0u);
    EXPECT_GT(a.res.totalGbps, 0.0);

    // Same seed, same configuration: the whole run must reproduce
    // bit-for-bit, drops included.
    ASSERT_EQ(a.res.flows.size(), b.res.flows.size());
    for (std::size_t i = 0; i < a.res.flows.size(); ++i) {
        EXPECT_EQ(a.res.flows[i].segments, b.res.flows[i].segments);
        EXPECT_EQ(a.res.flows[i].bytes, b.res.flows[i].bytes);
        EXPECT_EQ(a.res.flows[i].drops, b.res.flows[i].drops);
        EXPECT_EQ(a.res.flows[i].retransmits,
                  b.res.flows[i].retransmits);
    }
    EXPECT_DOUBLE_EQ(a.res.totalGbps, b.res.totalGbps);
}

TEST(StreamRecovery, TxDropsAreRetransmitted)
{
    work::NetperfOpts opts = work::singleCoreOpts(
        dma::SchemeKind::Deferred, work::NetMode::Tx);
    opts.runWindow.warmupNs = 2 * sim::kNsPerMs;
    opts.runWindow.measureNs = 10 * sim::kNsPerMs;
    const work::NetperfRun r =
        work::runNetperf(opts, [](work::NetperfRun &run) {
            run.sys->ctx.faults.enable(42);
            run.sys->ctx.faults.setProbability(sim::FaultSite::NicTx,
                                               0.005);
        });
    EXPECT_GT(r.res.drops, 0u);
    EXPECT_EQ(r.res.retransmits, r.res.drops);
    EXPECT_EQ(r.res.failedFlows, 0u);
}

// ---------------------------------------------------------------------
// NVMe command timeout + bounded retry
// ---------------------------------------------------------------------

namespace {

struct NvmeFaultFixture : ::testing::Test
{
    NvmeFaultFixture()
    {
        SystemParams p;
        p.scheme = dma::SchemeKind::Strict;
        sys = std::make_unique<System>(p);
        dev = std::make_unique<nvme::NvmeDevice>(sys->ctx, "nvme0",
                                                 sys->mmu, sys->phys);
        sim::CpuCursor cpu(sys->ctx.machine.core(0), 0);
        pa = mem::pfnToPa(sys->pageAlloc.allocPages(0, 0));
        dma = sys->dmaApi->map(cpu, *dev, pa, 4096,
                               dma::Dir::FromDevice);
    }

    std::unique_ptr<System> sys;
    std::unique_ptr<nvme::NvmeDevice> dev;
    mem::Pa pa = 0;
    iommu::Iova dma = 0;
};

} // namespace

TEST_F(NvmeFaultFixture, SingleDropTimesOutAndRetries)
{
    sys->ctx.faults.enable(3);
    sys->ctx.faults.failNth(sim::FaultSite::NvmeCmd, 1);
    const nvme::NvmeCmdResult r = dev->submitRead(0, dma, 4096);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.timeouts, 1u);
    // The lost command costs at least one full timeout.
    EXPECT_GE(r.completes, sys->ctx.cost.nvmeTimeoutNs);
    EXPECT_EQ(dev->completedIos(), 1u);
    EXPECT_EQ(dev->cmdDrops(), 1u);
}

TEST_F(NvmeFaultFixture, RetryExhaustionSurfacesErrorInsteadOfHanging)
{
    sys->ctx.faults.enable(3);
    sys->ctx.faults.setProbability(sim::FaultSite::NvmeCmd, 1.0);
    const nvme::NvmeCmdResult r = dev->submitRead(0, dma, 4096);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.attempts, sys->ctx.cost.nvmeMaxRetries + 1);
    EXPECT_EQ(r.timeouts, r.attempts);
    EXPECT_EQ(dev->completedIos(), 0u);
    EXPECT_EQ(dev->failedCmds(), 1u);
    // Virtual time moved past every timeout: the submitter got an
    // answer in bounded time, not a hang.
    EXPECT_GE(r.completes,
              r.attempts * sys->ctx.cost.nvmeTimeoutNs);
}

// ---------------------------------------------------------------------
// Attack attribution through the fault log
// ---------------------------------------------------------------------

TEST(AttackAttribution, StrictBlocksStaleWindowWithMatchingRecords)
{
    const work::AttackReport rep =
        work::runAttacks({.scheme = dma::SchemeKind::Strict});
    EXPECT_FALSE(rep.staleWindowTheft);
    ASSERT_FALSE(rep.staleWindowFaults.empty());
    for (const iommu::FaultRecord &r : rep.staleWindowFaults) {
        EXPECT_EQ(r.domain, rep.attackerDomain);
        EXPECT_EQ(r.reason, iommu::FaultReason::NotPresent);
        EXPECT_FALSE(r.isWrite); // the attacker was *reading* secrets
    }
}

TEST(AttackAttribution, DeferredStaleWindowTheftLeavesNoFaultTrail)
{
    const work::AttackReport rep =
        work::runAttacks({.scheme = dma::SchemeKind::Deferred});
    // The vulnerability window: the theft succeeds and, because the
    // stale IOTLB entry translated "successfully", no fault records it.
    EXPECT_TRUE(rep.staleWindowTheft);
    EXPECT_TRUE(rep.staleWindowFaults.empty());
}

TEST(AttackAttribution, AttackerDeviceMarkFiltersOwnDomain)
{
    SystemParams p;
    p.scheme = dma::SchemeKind::Strict;
    System sys(p);
    work::AttackerDevice evil(sys.ctx, "evil", sys.mmu, sys.phys);
    NicDevice good(sys, "good");

    evil.markFaults();
    std::uint8_t scratch[64];
    good.dmaRead(0, 0xdead000, scratch, sizeof(scratch));
    evil.dmaRead(0, 0xbeef000, scratch, sizeof(scratch));

    const auto recs = evil.faultsSinceMark();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].domain, evil.domain());
    EXPECT_EQ(recs[0].iova, 0xbeef000u);
    EXPECT_EQ(recs[0].reason, iommu::FaultReason::NotPresent);
    EXPECT_FALSE(recs[0].isWrite);
    EXPECT_EQ(sys.mmu.domainFaults(evil.domain()), 1u);
}
