/**
 * @file
 * Allocator microbenchmarks in *virtual* time: the damn_alloc/
 * damn_free fast paths per size class, plus the two DESIGN.md
 * ablations (context-split caches, magazine layer).
 *
 * The old google-benchmark binary also timed the substrate data
 * structures in host time; host time is not deterministic, so only
 * the virtual-time measurements — which are bit-identical at a fixed
 * seed — survive the port into the unified driver.
 */

#include "exp/experiment.hh"
#include "net/nic.hh"

namespace damn::exp {
namespace {

net::System
makeDamnSystem(const RunCtx &ctx, core::DmaCacheConfig cache = {})
{
    net::SystemParams p = ctx.sysParams(dma::SchemeKind::Damn);
    p.damnCache = cache;
    return net::System(p);
}

DAMN_EXPERIMENT(micro_allocator)
{
    Experiment e;
    e.name = "micro_allocator";
    e.title = "damn_alloc/damn_free virtual ns per op, per size "
              "class and DESIGN.md ablation";
    e.paper = "extension";
    e.axes = {"path", "size", "context_split", "magazines"};
    e.schemes = {dma::SchemeKind::Damn};
    e.run = [](RunCtx &ctx) {
        const char *damn = dma::schemeKindName(dma::SchemeKind::Damn);

        // Fast path per size class.
        for (const std::uint32_t size :
             {256u, 4096u, 16384u, 65536u}) {
            net::System sys = makeDamnSystem(ctx);
            net::NicDevice nic(sys, "mlx5_bench");
            sim::CpuCursor cpu(sys.ctx.machine.core(0), 0);
            constexpr unsigned kPairs = 4096;
            for (unsigned i = 0; i < kPairs; ++i) {
                const mem::Pa pa = sys.damn->damnAlloc(
                    cpu, &nic, core::Rights::Write, size);
                sys.damn->damnFree(cpu, pa);
            }
            ctx.out.beginRun(damn);
            ctx.out.param("path", "alloc_free");
            ctx.out.param("size", std::uint64_t(size));
            ctx.out.metric("virtual_ns_per_op",
                           double(cpu.time) / kPairs, "ns");
            ctx.out.capture(sys.ctx);
        }

        // Ablation (design decision 2): two DMA-cache copies per
        // context vs one cache paying irq disable/enable per op.
        for (const bool split : {false, true}) {
            net::System sys = makeDamnSystem(ctx);
            net::NicDevice nic(sys, "nic");
            sim::CpuCursor cpu(sys.ctx.machine.core(0), 0);
            const core::AllocCtx alloc_ctx = split
                ? core::AllocCtx::Interrupt
                : core::AllocCtx::Standard;
            constexpr unsigned kPairs = 1024;
            for (unsigned i = 0; i < kPairs; ++i) {
                if (!split)
                    cpu.charge(sys.ctx.cost.irqDisableNs * 2);
                const mem::Pa pa = sys.damn->damnAlloc(
                    cpu, &nic, core::Rights::Write, 4096, alloc_ctx);
                sys.damn->damnFree(cpu, pa, alloc_ctx);
            }
            ctx.out.beginRun(damn);
            ctx.out.param("path", "ablation_context_split");
            ctx.out.param("context_split", split ? "1" : "0");
            ctx.out.metric("virtual_ns_per_op",
                           double(cpu.time) / kPairs, "ns");
            ctx.out.capture(sys.ctx);
        }

        // Ablation (design decision 4): magazine layer vs hitting the
        // depot on every chunk request.  Producer/consumer batches:
        // allocate a ring's worth of whole chunks, then free them all.
        for (const bool magazines : {false, true}) {
            core::DmaCacheConfig cache;
            cache.magazineCapacity = magazines ? 16 : 1;
            net::System sys = makeDamnSystem(ctx, cache);
            net::NicDevice nic(sys, "nic");
            sim::CpuCursor cpu(sys.ctx.machine.core(0), 0);
            constexpr unsigned kBatches = 64;
            std::uint64_t ops = 0;
            std::vector<mem::Pa> batch;
            for (unsigned b = 0; b < kBatches; ++b) {
                batch.clear();
                for (int i = 0; i < 32; ++i) {
                    batch.push_back(sys.damn->damnAlloc(
                        cpu, &nic, core::Rights::Write, 65536));
                }
                for (const mem::Pa pa : batch)
                    sys.damn->damnFree(cpu, pa);
                ops += 64;
            }
            ctx.out.beginRun(damn);
            ctx.out.param("path", "ablation_magazines");
            ctx.out.param("magazines", magazines ? "1" : "0");
            ctx.out.metric("virtual_ns_per_op",
                           double(cpu.time) / double(ops), "ns");
            ctx.out.capture(sys.ctx);
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
