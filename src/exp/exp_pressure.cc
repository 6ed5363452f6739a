/**
 * @file
 * Pressure storm: drive every scheme into IOVA / memory exhaustion and
 * back out, and verify graceful degradation instead of asserts or
 * hangs.
 *
 * Two storm families, swept per scheme:
 *
 *  - IOVA storms shrink the DMA-API IOVA space (SystemParams::
 *    iovaSpaceBytes) far below what the posted RX rings and in-flight
 *    TX segments want, so every map() walks the forced-reclaim ladder:
 *    force-flush batched invalidations (the deferred scheme's fq_ring
 *    fallback), then generic pressure reclaim, then a counted failure
 *    the driver absorbs with backoff.
 *  - Memory storms shrink physical memory (SystemParams::physBytes) so
 *    the page allocator, kmalloc, the page-frag allocator, DAMN's
 *    magazines, and shadow pools all hit their exhaustion walls and
 *    the registered reclaimers (damn_shrink, shadow_shrink) must give
 *    memory back for traffic to keep trickling.
 *
 * The engine's stall watchdog is armed for the whole run: any retry
 * livelock shows up as a nonzero watchdog_stalls metric (must be 0).
 * After the storm, a relief phase tears the rings down, drains the
 * domain, and proves recovery by performing one fresh alloc + map.
 * Everything is virtual-time deterministic: byte-identical JSON at a
 * fixed seed, any --jobs value.
 */

#include "exp/experiment.hh"
#include "workloads/netperf.hh"

#include <string>
#include <vector>

namespace damn::exp {
namespace {

/** One point of the storm sweep. */
struct StormSpec
{
    const char *storm;            //!< axis value: "iova" / "mem"
    std::uint64_t iovaSpaceBytes; //!< 0 = scheme's full space
    std::uint64_t physBytes;      //!< 0 = SystemParams default
    /** Memory storms pin pages at boot until only this many frames
     *  stay free, so refill/kmalloc/cache-growth all hit the wall
     *  regardless of how small the workload's own footprint is.  The
     *  hog is released at relief time (pressure going away). */
    std::uint64_t keepFreeFrames = 0;
};

/** Dispatch budget the progress probe may stay flat for before the
 *  watchdog declares a livelock.  Bounded-retry backoff paths emit
 *  events at ~10/ms/flow, so an honest stall needs minutes of virtual
 *  time to reach this — a real livelock reaches it instantly. */
constexpr std::uint64_t kStallBudgetEvents = 200'000;

/** How long the relief phase may run before quiesced() is checked
 *  (covers the deepest retransmit/backoff chain). */
constexpr sim::TimeNs kReliefNs = 5 * sim::kNsPerMs;

void
stormOne(const RunCtx &ctx, dma::SchemeKind kind, const StormSpec &spec)
{
    work::NetperfOpts o;
    o.sysParams = ctx.sysParams(kind);
    o.mode = work::NetMode::Bidi;
    o.instances = 4;
    o.coreLimit = 2;
    o.segBytes = 16 * 1024;
    o.window = 32;
    o.runWindow = ctx.window;
    o.sysParams.iovaSpaceBytes = spec.iovaSpaceBytes;
    if (spec.physBytes != 0)
        o.sysParams.physBytes = spec.physBytes;

    work::NetperfRun run = work::makeNetperfSystem(o);
    net::System &sys = *run.sys;

    // Memory storm: hog the page allocator down to the configured
    // residue before any traffic starts.
    std::vector<mem::Pfn> hog;
    if (spec.keepFreeFrames != 0) {
        while (sys.pageAlloc.freeFrames() > spec.keepFreeFrames) {
            const mem::Pfn pfn = sys.pageAlloc.allocPages(0, 0);
            if (pfn == mem::kInvalidPfn)
                break;
            hog.push_back(pfn);
        }
    }

    // Livelock sentry: "progress" is segments moving or teardown
    // advancing; bounded-retry loops that converge (to failed flows and
    // an empty queue) never accumulate the dispatch budget.
    sim::Stats &st = sys.ctx.stats;
    sys.ctx.engine.armWatchdog(kStallBudgetEvents, [&st] {
        std::uint64_t n = 0;
        for (const sim::Ctr c :
             {sim::Ctr::NetRxSegments, sim::Ctr::NetTxSegments,
              sim::Ctr::NetRxAbortedBuffers, sim::Ctr::NetTxAbortedSegments,
              sim::Ctr::NetRingTeardowns})
            n += st.get(c);
        return n;
    });

    net::StreamEngine stream(
        sys, *run.nic, *run.stack,
        net::StreamConfig{ctx.window.warmupNs, ctx.window.measureNs,
                          1.0});
    work::addNetperfFlows(run, stream, o);
    const net::StreamResult res = stream.run();

    // ---- Relief: tear down, drain, and prove the system recovered ---
    std::uint64_t drained = 0;
    bool quiesced = false;
    bool recovered = false;
    {
        // The storm lifts: give the pinned memory back first, then let
        // teardown and the straggling retries run against a machine
        // that can allocate again.
        for (const mem::Pfn pfn : hog)
            sys.pageAlloc.freePages(pfn, 0);
        hog.clear();
        sim::CpuCursor cpu(sys.ctx.machine.core(0), sys.ctx.now());
        stream.teardown(cpu);
        sys.ctx.engine.run(std::max(cpu.time, sys.ctx.now()) +
                           kReliefNs);
        quiesced = stream.quiesced();
    }
    {
        sim::CpuCursor cpu(sys.ctx.machine.core(0), sys.ctx.now());
        drained = sys.dmaApi->drainDomain(cpu, *run.nic);
        // Recovery probe: after the storm + drain, one ordinary
        // alloc + map + unmap must succeed again.
        const mem::Pfn pfn = sys.pageAlloc.allocPages(0, 0);
        if (pfn != mem::kInvalidPfn) {
            const iommu::Iova dma = sys.dmaApi->map(
                cpu, *run.nic, mem::pfnToPa(pfn), mem::kPageSize,
                dma::Dir::FromDevice);
            if (dma != dma::kMapFailed) {
                recovered = true;
                sys.dmaApi->unmap(cpu, *run.nic, dma, mem::kPageSize,
                                  dma::Dir::FromDevice);
            }
            sys.pageAlloc.freePages(pfn, 0);
        }
    }
    // Let every straggler retry timer fire while the watchdog is still
    // armed: a drain that livelocks counts as a stall, not a hang.
    sys.ctx.engine.runAll();
    sys.ctx.engine.disarmWatchdog();

    Collector &out = ctx.out;
    out.beginRun(dma::schemeKindName(kind));
    out.param("storm", std::string(spec.storm));
    out.param("iova_kbytes", spec.iovaSpaceBytes / 1024);
    out.param("phys_mbytes",
              (spec.physBytes ? spec.physBytes
                              : o.sysParams.physBytes) >>
                  20);
    out.param("free_frames", spec.keepFreeFrames);
    out.metric("gbps", res.totalGbps, "Gb/s");
    out.metric("iova_exhausted",
               double(st.get(sim::Ctr::IommuIovaExhausted)), "count");
    out.metric("forced_flushes",
               double(st.get(sim::Ctr::IommuIovaForcedFlushes)), "count");
    out.metric("flush_recoveries",
               double(st.get(sim::Ctr::IommuIovaFlushRecoveries) +
                      st.get(sim::Ctr::IommuIovaReclaimRecoveries)),
               "count");
    out.metric("map_fails", double(st.get(sim::Ctr::DmaMapFails)), "count");
    out.metric("reclaim_events",
               double(sys.ctx.pressure.reclaimEvents()), "count");
    out.metric("reclaimed_units",
               double(sys.ctx.pressure.reclaimedUnits()), "units");
    out.metric("tx_throttled", double(st.get(sim::Ctr::NetTxThrottled)),
               "count");
    out.metric("rx_refill_fails",
               double(st.get(sim::Ctr::NetRxRefillFails)), "count");
    out.metric("drops", double(res.drops), "count");
    out.metric("failed_flows", double(res.failedFlows), "count");
    out.metric("drained_pages", double(drained), "pages");
    out.metric("watchdog_stalls",
               double(sys.ctx.engine.stallsDetected()), "count");
    out.metric("quiesced", quiesced ? 1.0 : 0.0, "bool");
    out.metric("recovered", recovered ? 1.0 : 0.0, "bool");
    out.capture(sys.ctx);
}

DAMN_EXPERIMENT(pressure_storm)
{
    Experiment e;
    e.name = "pressure_storm";
    e.title = "Resource-pressure storms: IOVA/memory exhaustion and "
              "recovery per scheme (no asserts, no hangs)";
    e.paper = "extension";
    e.axes = {"scheme", "backend", "storm", "iova_kbytes",
              "phys_mbytes", "free_frames"};
    e.defaultWindow = {5 * sim::kNsPerMs, 20 * sim::kNsPerMs};
    e.schemes = {dma::SchemeKind::Strict, dma::SchemeKind::Deferred,
                 dma::SchemeKind::Shadow, dma::SchemeKind::Damn};
    e.run = [](RunCtx &ctx) {
        // IOVA storms: 512 KiB starves even the posted RX rings;
        // 2 MiB fits the rings but not the deferred scheme's pinned
        // backlog.  Memory storms: 8 MiB of physical memory (the page
        // allocator's 2-zone floor) with a boot-time hog pinning all
        // but the last 192 / 768 frames, so refills, kmalloc, and
        // cache growth all fail until the hog lifts at relief time.
        const StormSpec sweep[] = {
            {"iova", 512 * 1024, 0, 0},
            {"iova", 2 * 1024 * 1024, 0, 0},
            {"mem", 0, 8ull << 20, 192},
            {"mem", 0, 8ull << 20, 768},
        };
        for (const dma::SchemeKind k : ctx.schemes)
            for (const StormSpec &spec : sweep)
                stormOne(ctx, k, spec);
    };
    return e;
}

} // namespace
} // namespace damn::exp
