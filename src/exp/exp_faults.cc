/**
 * @file
 * Fault storm: goodput degradation vs injected DMA-fault rate, per
 * scheme.  The injector drops NIC RX DMAs at a fixed-seed
 * probability; every dropped segment costs a retransmission timeout
 * plus a resend.
 */

#include "exp/experiment.hh"
#include "workloads/netperf.hh"

namespace damn::exp {
namespace {

DAMN_EXPERIMENT(fault_storm)
{
    Experiment e;
    e.name = "fault_storm";
    e.title = "RX goodput and recovery accounting vs injected nic.rx "
              "fault rate";
    e.paper = "extension";
    e.axes = {"scheme", "rate"};
    // Short windows: the storm sweeps 20 cells.
    e.defaultWindow = {5 * sim::kNsPerMs, 30 * sim::kNsPerMs};
    e.run = [](RunCtx &ctx) {
        const std::pair<double, const char *> rates[] = {
            {0.0, "0"},
            {0.0001, "0.0001"},
            {0.001, "0.001"},
            {0.01, "0.01"},
        };
        for (const dma::SchemeKind k : ctx.schemes) {
            for (const auto &[rate, label] : rates) {
                work::NetperfOpts o =
                    work::multiCoreOpts(k, work::NetMode::Rx);
                o.sysParams = ctx.sysParams(k);
                o.runWindow = ctx.window;
                const auto run = work::runNetperf(
                    o, [&](work::NetperfRun &r) {
                        if (rate > 0.0) {
                            r.sys->ctx.faults.enable(ctx.seed);
                            r.sys->ctx.faults.setProbability(
                                sim::FaultSite::NicRx, rate);
                        }
                    });
                ctx.out.beginRun(dma::schemeKindName(k));
                ctx.out.param("rate", label);
                ctx.out.common(run.common);
                ctx.out.metric("drops", double(run.res.drops),
                               "count");
                ctx.out.metric("retransmits",
                               double(run.res.retransmits), "count");
                ctx.out.metric("failed_flows",
                               double(run.res.failedFlows), "count");
            }
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
