/**
 * @file
 * Figure 2: bidirectional netperf on 4 cores beside 3 x 8-core
 * Graph500 BFS teams, plus the two solo baselines.
 */

#include <algorithm>

#include "exp/experiment.hh"
#include "workloads/graph500.hh"

namespace damn::exp {
namespace {

DAMN_EXPERIMENT(fig2_graph500)
{
    Experiment e;
    e.name = "fig2_graph500";
    e.title = "netperf (4 cores, bidi) + Graph500 (3 x 8 cores): "
              "mutual interference per scheme";
    e.paper = "Figure 2";
    e.axes = {"scheme", "config"};
    e.defaultWindow = {30 * sim::kNsPerMs, 300 * sim::kNsPerMs};
    e.run = [](RunCtx &ctx) {
        for (const dma::SchemeKind k : ctx.schemes) {
            work::CorunOpts o;
            o.sysParams = ctx.sysParams(k);
            o.runWindow = ctx.window;
            const work::CorunResult r = work::runNetGraphCorun(o);
            ctx.out.beginRun(dma::schemeKindName(k));
            ctx.out.param("config", "net+graph");
            ctx.out.common(r.net);
            ctx.out.metric("bfs_iter_seconds", r.iterSeconds, "s");
        }

        // Solo baselines (the paper's "as if the other were absent"
        // reference), under the unprotected configuration.
        constexpr dma::SchemeKind kBase = dma::SchemeKind::IommuOff;
        if (std::ranges::find(ctx.schemes, kBase) == ctx.schemes.end())
            return;
        {
            work::CorunOpts o;
            o.sysParams = ctx.sysParams(kBase);
            o.withGraph = false;
            o.runWindow = ctx.window;
            const work::CorunResult r = work::runNetGraphCorun(o);
            ctx.out.beginRun(dma::schemeKindName(kBase));
            ctx.out.param("config", "net-only");
            ctx.out.common(r.net);
        }
        {
            work::CorunOpts o;
            o.sysParams = ctx.sysParams(kBase);
            o.withNet = false;
            o.runWindow = ctx.window;
            const work::CorunResult r = work::runNetGraphCorun(o);
            ctx.out.beginRun(dma::schemeKindName(kBase));
            ctx.out.param("config", "graph-only");
            ctx.out.common(r.net); // only its stats and trace
            ctx.out.metric("bfs_iter_seconds", r.iterSeconds, "s");
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
