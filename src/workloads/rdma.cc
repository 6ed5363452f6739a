/**
 * @file
 * Faulting RDMA workload implementation.
 *
 * A small pipeline of outstanding work requests (WQEs) per iteration,
 * like an RNIC send queue: every WQE translates through the ATC until
 * it stalls, posts its page request, and the OS services the whole
 * queue in one sweep — so the page-request queue actually builds
 * depth instead of ping-ponging one request at a time.
 */

#include "workloads/rdma.hh"

#include <algorithm>
#include <array>

#include "dma/device.hh"
#include "iommu/ats.hh"
#include "iommu/sva.hh"
#include "sim/cpu_cursor.hh"
#include "sim/rng.hh"
#include "sim/tracer.hh"

namespace damn::work {

namespace {

/** One in-flight work request. */
struct Wqe
{
    iommu::Iova va = 0;
    std::uint64_t off = 0;
    bool isWrite = true;
    unsigned attempts = 0;
    bool done = false;
};

constexpr iommu::Iova kVaBase = 0x7f0000000000ull;
constexpr unsigned kQueueDepth = 4;   //!< outstanding WQEs
constexpr unsigned kMaxFaultsPerWqe = 16;
/** RDMA message size, bytes. */
constexpr std::uint32_t kMessageBytes = 16384;
/** Resident-set bound, pages: faults appear once the footprint
 *  exceeds it. */
constexpr unsigned kResidentLimitPages = 128;

} // namespace

RdmaResult
runRdma(const RdmaOpts &opts)
{
    net::System sys(opts.sysParams);
    sim::Context &ctx = sys.ctx;
    ctx.functionalData = false;

    dma::Device rnic(ctx, "rnic0", sys.mmu, sys.phys);
    iommu::SvaDomain sva(ctx, sys.mmu, sys.pageAlloc,
                         kResidentLimitPages);
    iommu::AtsAgent ats(ctx, sys.mmu, sva.domain());
    iommu::IommuBackend &be = sys.mmu.backend();

    const std::uint64_t footprintPages =
        std::max<std::uint64_t>(1, opts.footprintBytes / mem::kPageSize);

    // The per-message work descriptor lives in one pinned kernel page
    // and goes through the DMA API — the scheme-priced control path.
    const mem::Pfn descPfn = sys.pageAlloc.allocPages(0, 0);
    const mem::Pa descPa = mem::pfnToPa(descPfn);

    sim::Rng rng(opts.seed);
    sim::CpuCursor cpu(ctx.machine.core(0), 0);
    sim::LatencyHistogram faultLat;

    bool settled = false;
    std::uint64_t measMessages = 0;
    std::uint64_t measBytes = 0;
    std::uint64_t faultsBase = 0, autoBase = 0;
    std::uint64_t hitsBase = 0, missesBase = 0;

    while (cpu.time < opts.runWindow.endNs()) {
        if (!settled && cpu.time >= opts.runWindow.warmupNs) {
            opts.runWindow.settle(ctx);
            faultsBase = ctx.stats.get(sim::Ctr::SvaFaultsServiced);
            autoBase = ctx.stats.get(sim::Ctr::PriAutoResponses);
            hitsBase = ctx.stats.get(sim::Ctr::AtsDevtlbHits);
            missesBase = ctx.stats.get(sim::Ctr::AtsDevtlbMisses);
            settled = true;
        }

        // Post a queue's worth of WQEs: descriptor DMA through the
        // protection scheme, payload target drawn from the footprint.
        std::array<Wqe, kQueueDepth> sq{};
        for (Wqe &w : sq) {
            w.va = kVaBase + rng.below(footprintPages) * mem::kPageSize;
            w.isWrite = rng.below(4) != 0; // RDMA-write-mostly mix
            {
                sim::TraceSpan span(ctx.tracer, cpu,
                                    sim::TraceCat::NetDriver,
                                    "rdma.post_wqe");
                cpu.charge(ctx.cost.driverPerBufferNs);
                const iommu::Iova d = sys.dmaApi->map(
                    cpu, rnic, descPa, 64, dma::Dir::ToDevice);
                if (d != dma::kMapFailed) {
                    cpu.waitUntil(
                        rnic.dmaTouch(cpu.time, d, 64, false).completes);
                    sys.dmaApi->unmap(cpu, rnic, d, 64,
                                      dma::Dir::ToDevice);
                }
            }
        }

        // Drain the send queue: devices make progress until they
        // stall, then the OS services the accumulated page requests.
        unsigned pendingWqes = kQueueDepth;
        while (pendingWqes > 0) {
            bool anyRejected = false;
            for (std::uint32_t i = 0; i < sq.size(); ++i) {
                Wqe &w = sq[i];
                if (w.done)
                    continue;
                const dma::AtsDmaOutcome out = rnic.dmaAts(
                    ats, cpu.time, w.va + w.off, nullptr,
                    kMessageBytes - w.off, w.isWrite);
                w.off += out.bytesDone;
                cpu.waitUntil(out.completes);
                if (!out.needsFault || ++w.attempts > kMaxFaultsPerWqe) {
                    w.done = true;
                    --pendingWqes;
                    if (settled && out.ok) {
                        ++measMessages;
                        measBytes += kMessageBytes;
                    }
                    continue;
                }
                if (!be.postPageRequest({sva.domain(), out.faultVa,
                                         w.isWrite, i, cpu.time}))
                    anyRejected = true;
            }
            if (anyRejected)
                cpu.waitUntil(cpu.time + ctx.cost.priRetryBackoffNs);
            for (const iommu::IommuBackend::PageRequest &r :
                 be.fetchPageRequests()) {
                sva.servicePageRequest(cpu, r, &ats);
                if (settled)
                    faultLat.record(cpu.time > r.time ? cpu.time - r.time
                                                      : 0);
            }
        }
    }
    opts.runWindow.finish(ctx);

    RdmaResult res;
    res.messages = measMessages;
    res.common.gbps =
        opts.runWindow.measureNs == 0
            ? 0.0
            : double(measBytes) * 8.0 / double(opts.runWindow.measureNs);
    res.common.opsPerSec = opts.runWindow.perSecond(measMessages);
    res.common.cpuPct = opts.runWindow.cpuPct(ctx);
    res.common.memGBps =
        ctx.memBw.achievedGBps(opts.runWindow.measureNs);
    res.common.latency = faultLat;
    res.common.capture(ctx);

    res.faultsServiced =
        ctx.stats.get(sim::Ctr::SvaFaultsServiced) - faultsBase;
    res.autoResponses = ctx.stats.get(sim::Ctr::PriAutoResponses) - autoBase;
    res.prqMaxDepth = be.pageRequestMaxDepth();
    const std::uint64_t hits =
        ctx.stats.get(sim::Ctr::AtsDevtlbHits) - hitsBase;
    const std::uint64_t misses =
        ctx.stats.get(sim::Ctr::AtsDevtlbMisses) - missesBase;
    res.devTlbHitRate = hits + misses == 0
                            ? 0.0
                            : double(hits) / double(hits + misses);
    res.avgFaultServiceNs = faultLat.count() == 0
                                ? 0.0
                                : double(faultLat.meanNs());
    (void)descPfn;
    return res;
}

} // namespace damn::work
