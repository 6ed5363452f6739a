/**
 * @file
 * Chaos soak: repeated surprise-unplug / replug cycles under a fault
 * storm and memory pressure, per scheme, with the full teardown
 * invariant audit after every cycle.
 *
 * Each cycle runs a short traffic burst (NIC streams + NVMe reads)
 * with the injector arming NIC RX/TX drops, link flaps, page-allocation
 * failures, lost NVMe commands, and one scheduled surprise unplug.
 * The cycle then ends the device's life on the bus and walks the
 * canonical drain ordering — rings, then caches, then page table, then
 * IOTLB — and damn::audit cross-checks ledger, page table, IOTLB, and
 * allocator IOVA accounting for leaks.  The experiment *fails loudly*:
 * any hang (flows not quiesced by the virtual-time watchdog) or any
 * audit violation is a nonzero metric the harness asserts on.
 *
 * Everything is seeded and virtual-time-driven, so the whole soak —
 * fault schedule included — is byte-identical across runs at a fixed
 * seed.
 */

#include "core/audit.hh"
#include "exp/experiment.hh"
#include "iommu/backend_smmu.hh"
#include "nvme/nvme.hh"
#include "workloads/netperf.hh"

#include <algorithm>
#include <memory>
#include <vector>

namespace damn::exp {
namespace {

/** One unplug/replug cycle every 400 us of measurement window: the
 *  default 20 ms window yields 50 cycles per scheme. */
constexpr sim::TimeNs kCycleQuantumNs = 400 * sim::kNsPerUs;
/** Fault-storm traffic burst per cycle. */
constexpr sim::TimeNs kBurstNs = 250 * sim::kNsPerUs;
/** Virtual-time watchdog: how long after teardown the flows get to
 *  quiesce (covers the deepest retransmit backoff chain). */
constexpr sim::TimeNs kDrainWindowNs = 1 * sim::kNsPerMs;

struct CycleTotals
{
    std::uint64_t cycles = 0;
    std::uint64_t hangs = 0;
    std::uint64_t auditViolations = 0;
    std::uint64_t forceCleared = 0;
    std::uint64_t abortedSegments = 0;
    std::uint64_t drops = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t failedFlows = 0;
    std::uint64_t drainedPages = 0;
    std::uint64_t surpriseUnplugs = 0;
    std::uint64_t nvmeAborted = 0;
    std::uint64_t nvmeOk = 0;
    // SMMUv3 event-queue accounting (zero on VT-d): conservation
    // requires faults == in-ring + drained + overflowed at soak end.
    std::uint64_t evtqInRing = 0;
    std::uint64_t evtqDrained = 0;
    std::uint64_t evtqOverflows = 0;
    std::uint64_t iommuFaults = 0;
};

/** Soak one machine built from @p params; its stats and trace land in
 *  @p out's current run. */
CycleTotals
soakOneScheme(const net::SystemParams &params, std::uint64_t seed,
              std::uint64_t cycles, Collector &out)
{
    work::NetperfOpts o;
    o.sysParams = params;
    o.mode = work::NetMode::Bidi;
    o.instances = 4;
    o.coreLimit = 2;
    o.segBytes = 16 * 1024;
    o.window = 8;
    work::NetperfRun run = work::makeNetperfSystem(o);
    net::System &sys = *run.sys;
    auto *smmu =
        dynamic_cast<iommu::SmmuV3Backend *>(&sys.mmu.backend());

    nvme::NvmeDevice nvme(sys.ctx, "nvme0", sys.mmu, sys.phys);
    // The auditor installs the Iommu map observer; both domains exist
    // by now, nothing is mapped yet.
    audit::Auditor auditor(sys.mmu);

    // One reusable O_DIRECT-style IO buffer for the NVMe burst.
    const mem::Pfn io_pfn = sys.pageAlloc.allocPages(0, 0);
    const mem::Pa io_pa = mem::pfnToPa(io_pfn);
    constexpr std::uint32_t kIoBytes = 4096;

    CycleTotals t;
    // Engines stay alive for the whole soak: torn-down flows may still
    // hold scheduled events (retry timers) that reference them and
    // fire — harmlessly — during later cycles.
    std::vector<std::unique_ptr<net::StreamEngine>> engines;
    sim::TimeNs clock = sys.ctx.now();

    for (std::uint64_t c = 0; c < cycles; ++c) {
        // ---- Arm the storm ------------------------------------------
        sys.ctx.faults.reset();
        sys.ctx.faults.enable(seed + c);
        sys.ctx.faults.setProbability(sim::FaultSite::NicRx, 0.02);
        sys.ctx.faults.setProbability(sim::FaultSite::NicTx, 0.02);
        sys.ctx.faults.setProbability(sim::FaultSite::NicLinkFlap,
                                      0.005);
        sys.ctx.faults.setProbability(sim::FaultSite::PageAlloc, 0.01);
        sys.ctx.faults.setProbability(sim::FaultSite::NvmeCmd, 0.05);
        sys.ctx.faults.setProbability(sim::FaultSite::IommuInval, 0.01);
        // One scheduled surprise unplug per cycle, landing on whichever
        // device issues the Nth DMA of the burst; the offset varies per
        // cycle so the unplug hits every pipeline stage over the soak.
        sys.ctx.faults.failNth(sim::FaultSite::DeviceUnplug,
                               1 + (c % 13) * 17);

        // ---- Traffic burst ------------------------------------------
        engines.push_back(std::make_unique<net::StreamEngine>(
            sys, *run.nic, *run.stack));
        net::StreamEngine &stream = *engines.back();
        work::addNetperfFlows(run, stream, o);
        stream.startAll();
        clock += kBurstNs;
        sys.ctx.engine.run(clock);

        // NVMe reads ride the same storm (lost commands, unplug).
        {
            sim::CpuCursor cpu(sys.ctx.machine.core(0), clock);
            const iommu::Iova dma = sys.dmaApi->map(
                cpu, nvme, io_pa, kIoBytes, dma::Dir::FromDevice);
            sim::TimeNs io_t = cpu.time;
            for (unsigned i = 0; i < 4; ++i) {
                const nvme::NvmeCmdResult r =
                    nvme.submitRead(io_t, dma, kIoBytes);
                io_t = r.completes;
                if (r.ok)
                    ++t.nvmeOk;
            }
            sys.dmaApi->unmap(cpu, nvme, dma, kIoBytes,
                              dma::Dir::FromDevice);
        }

        // ---- End of life: unplug, drain, detach, audit --------------
        t.surpriseUnplugs +=
            sys.ctx.faults.injected(sim::FaultSite::DeviceUnplug);
        // The storm is over; recovery runs on a quiet bus.  Whichever
        // device the injector missed gets an orderly surprise now.
        sys.ctx.faults.reset();
        if (run.nic->attached())
            run.nic->unplug();
        if (nvme.attached())
            nvme.unplug();

        {
            sim::CpuCursor cpu(sys.ctx.machine.core(0), clock);
            stream.teardown(cpu);
            clock = std::max(clock, cpu.time);
        }
        clock += kDrainWindowNs;
        sys.ctx.engine.run(clock);
        if (!stream.quiesced())
            ++t.hangs;

        {
            sim::CpuCursor cpu(sys.ctx.machine.core(0), clock);
            t.drainedPages += sys.dmaApi->drainDomain(cpu, *run.nic);
            t.drainedPages += sys.dmaApi->drainDomain(cpu, nvme);
        }
        for (dma::Device *dev :
             {static_cast<dma::Device *>(run.nic.get()),
              static_cast<dma::Device *>(&nvme)}) {
            const iommu::DomainId d = dev->domain();
            const std::uint64_t forced = sys.mmu.detachDomain(d);
            t.forceCleared += forced;
            const audit::TeardownReport rep = auditor.verifyTeardown(
                d, sys.liveIovaPages(d), forced);
            t.auditViolations += rep.violations.size();
        }

        // Driver-side event-queue consumption, as a real SMMUv3 fault
        // handler would do each interrupt: keeps the bounded ring from
        // pinning at its overflow wall across cycles.
        if (smmu)
            smmu->drainEventQueue(); // lifetime total read at soak end

        // ---- Replug: next cycle gets a fresh device -----------------
        sys.mmu.attachDomain(run.nic->domain());
        sys.mmu.attachDomain(nvme.domain());
        run.nic->replug();
        nvme.replug();

        t.abortedSegments += stream.abortedSegments();
        t.drops += stream.totalDrops();
        t.retransmits += stream.totalRetransmits();
        t.failedFlows += stream.failedFlows();
        ++t.cycles;
    }

    // Let every straggler retry timer fire (they see the torn-down
    // engines and return) so nothing dangles past the soak.
    sys.ctx.engine.runAll();

    t.nvmeAborted = nvme.abortedCmds();
    t.iommuFaults = sys.mmu.faults();
    if (smmu) {
        t.evtqInRing = smmu->eventQueue().size();
        t.evtqDrained = smmu->eventQueueDrained();
        t.evtqOverflows = smmu->eventQueueOverflows();
    }
    sys.pageAlloc.freePages(io_pfn, 0);
    out.capture(sys.ctx);
    return t;
}

DAMN_EXPERIMENT(chaos_soak)
{
    Experiment e;
    e.name = "chaos_soak";
    e.title = "Unplug/replug soak under fault storm: hangs and "
              "teardown-audit violations per scheme (both must be 0)";
    e.paper = "extension";
    e.axes = {"scheme", "backend"};
    // 20 ms of measurement == 50 unplug/replug cycles per scheme.
    e.defaultWindow = {0, 20 * sim::kNsPerMs};
    e.schemes = {dma::SchemeKind::Strict, dma::SchemeKind::Deferred,
                 dma::SchemeKind::Shadow, dma::SchemeKind::Damn};
    e.run = [](RunCtx &ctx) {
        const std::uint64_t cycles = std::max<std::uint64_t>(
            1, ctx.window.measureNs / kCycleQuantumNs);
        for (const dma::SchemeKind k : ctx.schemes) {
            ctx.out.beginRun(dma::schemeKindName(k));
            const CycleTotals t =
                soakOneScheme(ctx.sysParams(k), ctx.seed, cycles, ctx.out);
            ctx.out.metric("cycles", double(t.cycles), "count");
            ctx.out.metric("hangs", double(t.hangs), "count");
            ctx.out.metric("audit_violations",
                           double(t.auditViolations), "count");
            ctx.out.metric("force_cleared_pages",
                           double(t.forceCleared), "pages");
            ctx.out.metric("surprise_unplugs",
                           double(t.surpriseUnplugs), "count");
            ctx.out.metric("aborted_segments",
                           double(t.abortedSegments), "count");
            ctx.out.metric("drops", double(t.drops), "count");
            ctx.out.metric("retransmits", double(t.retransmits),
                           "count");
            ctx.out.metric("failed_flows", double(t.failedFlows),
                           "count");
            ctx.out.metric("drained_pages", double(t.drainedPages),
                           "pages");
            ctx.out.metric("nvme_ok_cmds", double(t.nvmeOk), "count");
            ctx.out.metric("nvme_aborted_cmds", double(t.nvmeAborted),
                           "count");
            if (ctx.machine.backend == iommu::BackendKind::SmmuV3) {
                // Event-queue conservation, visible in the artifact:
                // faults == in-ring + drained + overflowed.
                ctx.out.metric("iommu_faults", double(t.iommuFaults),
                               "count");
                ctx.out.metric("evtq_in_ring", double(t.evtqInRing),
                               "count");
                ctx.out.metric("evtq_drained", double(t.evtqDrained),
                               "count");
                ctx.out.metric("evtq_overflows",
                               double(t.evtqOverflows), "count");
            }
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
