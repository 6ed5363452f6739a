/**
 * @file
 * rdma_pagefault: page-faultable DMA (ATS/PRI) under a faulting RDMA
 * workload, swept over touched-memory footprint.
 *
 * The workload DMAs into an SVA domain (IOVA = process VA, nothing
 * pinned) with a bounded resident set, so growing the footprint drives
 * the device from ATC-hit steady state into fault-and-resume churn.
 * Each run reports the PRI picture — faults serviced, auto-responses,
 * page-request-queue high-water mark, device-TLB hit rate, and mean
 * post-to-resume fault-service latency — next to the usual throughput
 * and CPU numbers.  Native axis is both backends: VT-d services
 * requests through the PRQ registers, SMMUv3 through stall/resume
 * events, and the sweep shows where the two models diverge.
 */

#include "exp/experiment.hh"
#include "workloads/rdma.hh"

namespace damn::exp {
namespace {

DAMN_EXPERIMENT(rdma_pagefault)
{
    Experiment e;
    e.name = "rdma_pagefault";
    e.title = "Faulting RDMA: touched footprint vs page-fault service "
              "latency (ATS/PRI, VT-d vs SMMUv3)";
    e.paper = "extension";
    e.axes = {"scheme", "backend", "footprint_kb"};
    e.defaultWindow = work::RunWindow{2 * sim::kNsPerMs,
                                      10 * sim::kNsPerMs};
    e.backends = {iommu::BackendKind::Vtd, iommu::BackendKind::SmmuV3};
    e.schemes = {dma::SchemeKind::IommuOff, dma::SchemeKind::Strict,
                 dma::SchemeKind::Deferred, dma::SchemeKind::Shadow};
    e.run = [](RunCtx &ctx) {
        constexpr std::uint64_t kFootprints[] = {
            1ull << 20, 4ull << 20, 16ull << 20};
        for (const std::uint64_t fp : kFootprints) {
            for (const dma::SchemeKind k : ctx.schemes) {
                work::RdmaOpts o;
                o.footprintBytes = fp;
                o.seed = ctx.seed;
                o.runWindow = ctx.window;
                o.sysParams = ctx.sysParams(k);
                const work::RdmaResult r = work::runRdma(o);
                ctx.out.beginRun(dma::schemeKindName(k));
                ctx.out.param("footprint_kb", fp >> 10);
                ctx.out.metric("faults_serviced",
                               double(r.faultsServiced), "faults");
                ctx.out.metric("auto_responses", double(r.autoResponses),
                               "responses");
                ctx.out.metric("prq_max_depth", double(r.prqMaxDepth),
                               "entries");
                ctx.out.metric("devtlb_hit_rate", r.devTlbHitRate * 100.0,
                               "%");
                ctx.out.metric("fault_service_avg_ns",
                               r.avgFaultServiceNs, "ns");
                ctx.out.common(r.common, /*with_latency=*/true);
            }
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
