/**
 * @file
 * The memory-exposure and memory-footprint experiments: figure 9
 * (pages ever vs currently mapped under deferred protection) and
 * figure 10 (kernel memory usage, iommu-off vs damn).
 */

#include <algorithm>

#include "exp/experiment.hh"
#include "workloads/kbuild.hh"
#include "workloads/netperf.hh"

namespace damn::exp {
namespace {

constexpr double kMiBPerFrame = 4096.0 / (1 << 20);

DAMN_EXPERIMENT(fig9_stock_pages)
{
    Experiment e;
    e.name = "fig9_stock_pages";
    e.title = "Pages ever vs currently mapped for DMA over time "
              "(deferred, netperf + kbuild churn)";
    e.paper = "Figure 9";
    e.axes = {"t_ms"};
    // The measure window is the sampling horizon (the paper runs 30
    // wall-clock minutes; we run a scaled-down window, no warmup).
    e.defaultWindow = {0, 3 * sim::kNsPerSec};
    e.schemes = {dma::SchemeKind::Deferred};
    e.run = [](RunCtx &ctx) {
        work::NetperfOpts o;
        o.sysParams = ctx.sysParams(dma::SchemeKind::Deferred);
        o.mode = work::NetMode::Rx;
        o.instances = 4;
        o.coreLimit = 4;
        o.segBytes = 64 * 1024;

        work::NetperfRun run = work::makeNetperfSystem(o);
        work::KbuildChurn churn(run.sys->ctx, run.sys->pageAlloc);
        churn.start();

        net::StreamEngine eng(*run.sys, *run.nic, *run.stack, {});
        work::addNetperfFlows(run, eng, o);
        eng.startAll();

        auto &sys = *run.sys;
        const sim::TimeNs horizon = ctx.window.measureNs;
        const unsigned samples = 15;
        const sim::TimeNs step = std::max<sim::TimeNs>(
            horizon / samples, sim::TimeNs(1));
        for (sim::TimeNs t = step; t <= horizon; t += step) {
            sys.ctx.engine.run(t);
            ctx.out.beginRun(
                dma::schemeKindName(dma::SchemeKind::Deferred));
            ctx.out.param("t_ms", t / sim::kNsPerMs);
            ctx.out.metric("ever_mapped_mib",
                           double(sys.mmu.everMappedFrames()) *
                               kMiBPerFrame,
                           "MiB");
            ctx.out.metric("currently_mapped_mib",
                           double(sys.mmu.currentlyMappedPages()) *
                               kMiBPerFrame,
                           "MiB");
        }
        // One capture for the whole timeline (cumulative).
        ctx.out.capture(sys.ctx);
    };
    return e;
}

DAMN_EXPERIMENT(fig10_memory)
{
    Experiment e;
    e.name = "fig10_memory";
    e.title = "Kernel memory usage vs netperf instance count, "
              "iommu-off vs damn";
    e.paper = "Figure 10";
    e.axes = {"scheme", "mode", "instances"};
    e.defaultWindow = {30 * sim::kNsPerMs, 100 * sim::kNsPerMs};
    e.schemes = {dma::SchemeKind::IommuOff, dma::SchemeKind::Damn};
    e.run = [](RunCtx &ctx) {
        for (const auto &[mode, label] :
             {std::pair{work::NetMode::Rx, "rx"},
              std::pair{work::NetMode::Tx, "tx"},
              std::pair{work::NetMode::Bidi, "bidi"}}) {
            for (const unsigned instances : {4u, 8u, 16u, 28u, 56u}) {
                for (const dma::SchemeKind k : ctx.schemes) {
                    work::NetperfOpts o;
                    o.sysParams = ctx.sysParams(k);
                    o.mode = mode;
                    o.instances = instances;
                    o.segBytes = 16 * 1024;
                    o.costFactor = o.sysParams.cost.multiFlowFactor;
                    o.runWindow = ctx.window;
                    const auto run = work::runNetperf(o);
                    ctx.out.beginRun(dma::schemeKindName(k));
                    ctx.out.param("mode", label);
                    ctx.out.param("instances",
                                  std::uint64_t(instances));
                    ctx.out.metric(
                        "kernel_mem_mib",
                        double(run.sys->pageAlloc.allocatedFrames()) *
                            kMiBPerFrame,
                        "MiB");
                    ctx.out.metric("gbps", run.res.totalGbps, "Gb/s");
                    ctx.out.capture(run.sys->ctx);
                }
            }
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
