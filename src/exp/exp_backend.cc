/**
 * @file
 * The backend matrix: every protection scheme crossed with every IOMMU
 * hardware model (Intel VT-d vs ARM SMMUv3) over the two workload
 * shapes whose invalidation behavior the backends price differently —
 * bidirectional netperf (lock-bound strict unmaps) and fio/NVMe
 * (pipelined invalidation completion).
 *
 * Unlike the paper-figure experiments (whose native backend axis is
 * the evaluated VT-d testbed), this experiment's native axis is *both*
 * backends, so the driver labels every run with its backend — the
 * question here is how much of each scheme's cost is
 * hardware-model-specific.
 */

#include "exp/experiment.hh"
#include "workloads/fio.hh"
#include "workloads/netperf.hh"

namespace damn::exp {
namespace {

DAMN_EXPERIMENT(backend_matrix)
{
    Experiment e;
    e.name = "backend_matrix";
    e.title = "Scheme x IOMMU-backend matrix (VT-d vs SMMUv3) over "
              "netperf and fio";
    e.paper = "extension";
    e.axes = {"scheme", "backend", "workload"};
    e.defaultWindow = work::RunWindow{5 * sim::kNsPerMs,
                                      25 * sim::kNsPerMs};
    e.backends = {iommu::BackendKind::Vtd, iommu::BackendKind::SmmuV3};
    e.run = [](RunCtx &ctx) {
        // Bidirectional netperf: the figure-1 configuration, where
        // strict's unmap path hammers the invalidation interface.
        for (const dma::SchemeKind k : ctx.schemes) {
            work::NetperfOpts o = work::bidirectionalOpts(k);
            o.sysParams = ctx.sysParams(k);
            o.runWindow = ctx.window;
            const auto run = work::runNetperf(o);
            ctx.out.beginRun(dma::schemeKindName(k));
            ctx.out.param("workload", "netperf");
            ctx.out.common(run.common);
        }

        // fio direct reads (DAMN does not apply to storage); one
        // mid-size block where unmap cost is still visible.
        for (const dma::SchemeKind k : ctx.schemes) {
            if (k == dma::SchemeKind::Damn)
                continue;
            work::FioOpts o;
            o.sysParams = ctx.sysParams(k);
            o.blockBytes = 4096;
            o.runWindow = ctx.window;
            const work::FioResult r = work::runFio(o);
            ctx.out.beginRun(dma::schemeKindName(k));
            ctx.out.param("workload", "fio");
            ctx.out.common(r.common);
            ctx.out.metric("gbytes_per_sec", r.throughputGBps, "GB/s");
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
