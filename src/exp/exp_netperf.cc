/**
 * @file
 * The netperf TCP_STREAM experiments: figures 1, 4, 5, 6 and the
 * latency-profile extension.  All five sweep the scheme axis over a
 * pre-parameterized stream configuration and report through the
 * uniform metric set.
 */

#include "exp/experiment.hh"
#include "workloads/netperf.hh"

namespace damn::exp {
namespace {

/** Paper reference points, per figure, live in the old per-figure
 *  headers' comments; the registry keeps only the methodology. */

constexpr std::pair<work::NetMode, const char *> kRxTx[] = {
    {work::NetMode::Rx, "rx"},
    {work::NetMode::Tx, "tx"},
};

/** Run @p o on @p ctx's machine and window, and open its run (with a
 *  "mode" param when @p mode is given). */
work::NetperfRun
streamRun(RunCtx &ctx, work::NetperfOpts o, const char *mode = nullptr)
{
    o.sysParams = ctx.sysParams(o.sysParams.scheme);
    o.runWindow = ctx.window;
    work::NetperfRun run = work::runNetperf(o);
    ctx.out.beginRun(dma::schemeKindName(o.sysParams.scheme));
    if (mode)
        ctx.out.param("mode", mode);
    return run;
}

DAMN_EXPERIMENT(fig1_tradeoffs)
{
    Experiment e;
    e.name = "fig1_tradeoffs";
    e.title = "Bidirectional multi-core netperf TCP_STREAM: "
              "throughput and CPU per scheme";
    e.paper = "Figure 1";
    e.axes = {"scheme"};
    e.run = [](RunCtx &ctx) {
        for (const dma::SchemeKind k : ctx.schemes)
            ctx.out.common(
                streamRun(ctx, work::bidirectionalOpts(k)).common);
    };
    return e;
}

DAMN_EXPERIMENT(fig4_singlecore)
{
    Experiment e;
    e.name = "fig4_singlecore";
    e.title = "Single-core netperf TCP_STREAM (4 instances on core 0, "
              "64 KiB aggregates): throughput and core-0 CPU";
    e.paper = "Figure 4";
    e.axes = {"scheme", "mode"};
    e.run = [](RunCtx &ctx) {
        for (const auto &[mode, label] : kRxTx) {
            for (const dma::SchemeKind k : ctx.schemes) {
                const auto run =
                    streamRun(ctx, work::singleCoreOpts(k, mode), label);
                ctx.out.metric("gbps", run.res.totalGbps, "Gb/s");
                // Everything is pinned to core 0; machine-wide CPU%
                // would divide by 28 idle cores.
                ctx.out.metric(
                    "cpu_pct",
                    run.sys->ctx.machine.coreUtilizationPct(
                        0, ctx.window.measureNs),
                    "%");
                ctx.out.capture(run.sys->ctx);
            }
        }
    };
    return e;
}

DAMN_EXPERIMENT(fig5_multicore)
{
    Experiment e;
    e.name = "fig5_multicore";
    e.title = "Multi-core netperf TCP_STREAM (28 instances, one per "
              "core): throughput and CPU";
    e.paper = "Figure 5";
    e.axes = {"scheme", "mode"};
    e.run = [](RunCtx &ctx) {
        for (const auto &[mode, label] : kRxTx)
            for (const dma::SchemeKind k : ctx.schemes)
                ctx.out.common(
                    streamRun(ctx, work::multiCoreOpts(k, mode), label)
                        .common);
    };
    return e;
}

DAMN_EXPERIMENT(fig6_membw)
{
    Experiment e;
    e.name = "fig6_membw";
    e.title = "Bidirectional netperf TCP_STREAM: memory bandwidth "
              "(shadow saturates the memory controllers)";
    e.paper = "Figure 6";
    e.axes = {"scheme"};
    e.run = [](RunCtx &ctx) {
        for (const dma::SchemeKind k : ctx.schemes)
            ctx.out.common(
                streamRun(ctx, work::bidirectionalOpts(k)).common);
    };
    return e;
}

DAMN_EXPERIMENT(latency_profile)
{
    Experiment e;
    e.name = "latency_profile";
    e.title = "Per-segment end-to-end latency distribution, "
              "multi-core netperf RX";
    e.paper = "extension";
    e.axes = {"scheme"};
    e.run = [](RunCtx &ctx) {
        for (const dma::SchemeKind k : ctx.schemes)
            ctx.out.common(
                streamRun(ctx, work::multiCoreOpts(k, work::NetMode::Rx))
                    .common,
                /*with_latency=*/true);
    };
    return e;
}

DAMN_EXPERIMENT(netperf_stream)
{
    Experiment e;
    e.name = "netperf_stream";
    e.title = "Canonical multi-core netperf TCP_STREAM RX run "
              "(the trace/attribution showcase)";
    e.paper = "extension";
    e.axes = {"scheme"};
    // Short default window: this experiment exists for tracing and
    // attribution inspection, not statistics.
    e.defaultWindow = work::RunWindow{10 * sim::kNsPerMs,
                                      50 * sim::kNsPerMs};
    e.run = [](RunCtx &ctx) {
        for (const dma::SchemeKind k : ctx.schemes)
            ctx.out.common(
                streamRun(ctx, work::multiCoreOpts(k, work::NetMode::Rx))
                    .common);
    };
    return e;
}

} // namespace
} // namespace damn::exp
