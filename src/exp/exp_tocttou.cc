/**
 * @file
 * Figure 8: CPU cost of DAMN's TOCTTOU copy-on-access defense.  An
 * XOR netfilter callback touches a growing prefix of each segment's
 * payload through the skbuff accessor API; under damn every accessed
 * byte is first copied out of the device's reach.
 */

#include <algorithm>

#include "exp/experiment.hh"
#include "workloads/netperf.hh"

namespace damn::exp {
namespace {

DAMN_EXPERIMENT(fig8_tocttou)
{
    Experiment e;
    e.name = "fig8_tocttou";
    e.title = "CPU% vs bytes accessed per segment "
              "(XOR netfilter, 14-core RX)";
    e.paper = "Figure 8";
    e.axes = {"scheme", "touch_bytes"};
    e.schemes = {dma::SchemeKind::IommuOff, dma::SchemeKind::Shadow,
                 dma::SchemeKind::Damn};
    e.run = [](RunCtx &ctx) {
        for (const std::uint32_t touch :
             {0u, 64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
            for (const dma::SchemeKind k : ctx.schemes) {
                work::NetperfOpts o;
                o.sysParams = ctx.sysParams(k);
                o.mode = work::NetMode::Rx;
                o.instances = 14;
                o.coreLimit = 14;
                o.segBytes = 64 * 1024;
                o.costFactor = 1.6; // fewer flows, less interference
                o.runWindow = ctx.window;
                const auto run = work::runNetperf(
                    o, [touch](work::NetperfRun &r) {
                        if (touch == 0)
                            return;
                        r.stack->addHook([touch, &r](
                                             sim::CpuCursor &cpu,
                                             net::SkBuff &skb,
                                             net::SkbAccessor &acc) {
                            const std::uint32_t n =
                                std::min<std::uint32_t>(touch,
                                                        skb.len());
                            // Inspect (and thereby secure) the
                            // bytes, then XOR them.
                            acc.access(cpu, skb, 0, n);
                            cpu.charge(sim::TimeNs(
                                double(n) /
                                r.sys->ctx.cost.xorBytesPerNs));
                        });
                    });
                ctx.out.beginRun(dma::schemeKindName(k));
                ctx.out.param("touch_bytes", std::uint64_t(touch));
                ctx.out.common(run.common);
            }
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
