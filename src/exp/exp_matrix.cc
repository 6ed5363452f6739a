/**
 * @file
 * The tables: table 1 (attack-verified protection/performance matrix)
 * and table 3 (factors behind the damn vs iommu-off gap).
 */

#include "exp/experiment.hh"
#include "workloads/attacks.hh"
#include "workloads/netperf.hh"

namespace damn::exp {
namespace {

DAMN_EXPERIMENT(table1_matrix)
{
    Experiment e;
    e.name = "table1_matrix";
    e.title = "Protection-performance tradeoff matrix, with the "
              "secure columns backed by live attack replays";
    e.paper = "Table 1";
    e.axes = {"scheme"};
    e.run = [](RunCtx &ctx) {
        for (const dma::SchemeKind k : ctx.schemes) {
            const work::AttackReport rep =
                work::runAttacks(ctx.sysParams(k));
            Run &run = ctx.out.beginRun(dma::schemeKindName(k));
            ctx.out.metric("subpage_protected",
                           rep.colocationTheft ? 0.0 : 1.0, "bool");
            ctx.out.metric("window_protected",
                           (rep.staleWindowTheft || rep.tocttou)
                               ? 0.0
                               : 1.0,
                           "bool");
            // Multi-gigabit capability per the paper's verdict: only
            // strict cannot drive the NIC at line rate (figure 5); only
            // shadow copies every DMAed byte.
            ctx.out.metric("multi_gbps",
                           k == dma::SchemeKind::Strict ? 0.0 : 1.0,
                           "bool");
            ctx.out.metric("zero_copy",
                           k == dma::SchemeKind::Shadow ? 0.0 : 1.0,
                           "bool");
            // The replays' blocked DMAs are the run's counters.
            sim::Stats st;
            st.add(sim::Ctr::AttackColocationFaults,
                   rep.colocationFaults.size());
            st.add(sim::Ctr::AttackStaleWindowFaults,
                   rep.staleWindowFaults.size());
            st.add(sim::Ctr::AttackTocttouFaults, rep.tocttouFaults.size());
            run.stats = st.snapshot();
        }
    };
    return e;
}

DAMN_EXPERIMENT(table3_variants)
{
    Experiment e;
    e.name = "table3_variants";
    e.title = "Factors behind the damn vs iommu-off gap "
              "(bidirectional netperf, DMA-cache variants)";
    e.paper = "Table 3";
    e.axes = {"variant"};
    e.schemes = {dma::SchemeKind::Damn};
    e.run = [](RunCtx &ctx) {
        struct Variant
        {
            const char *name;
            dma::SchemeKind scheme;
            core::DmaCacheConfig cache;
        };
        core::DmaCacheConfig stock;
        core::DmaCacheConfig huge;
        huge.hugeIovaPages = true;
        core::DmaCacheConfig noiommu;
        noiommu.mapInIommu = false;
        const Variant variants[] = {
            {"damn", dma::SchemeKind::Damn, stock},
            {"damn+huge-iova", dma::SchemeKind::Damn, huge},
            {"damn-no-iommu", dma::SchemeKind::Damn, noiommu},
            {"iommu-off", dma::SchemeKind::IommuOff, stock},
        };

        struct Done
        {
            const Variant *v;
            work::CommonResult common;
        };
        std::vector<Done> done;
        for (const Variant &v : variants) {
            work::NetperfOpts o = work::bidirectionalOpts(v.scheme);
            o.sysParams = ctx.sysParams(v.scheme);
            o.sysParams.damnCache = v.cache;
            o.runWindow = ctx.window;
            done.push_back({&v, work::runNetperf(o).common});
        }
        const double off_gbps = done.back().common.gbps;

        for (const Done &d : done) {
            ctx.out.beginRun(dma::schemeKindName(d.v->scheme));
            ctx.out.param("variant", d.v->name);
            ctx.out.common(d.common);
            if (off_gbps > 0.0)
                ctx.out.metric("pct_of_off",
                               100.0 * d.common.gbps / off_gbps, "%");
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
