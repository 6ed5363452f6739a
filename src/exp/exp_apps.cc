/**
 * @file
 * The application benchmarks: figure 7 (memcached) and figure 11
 * (fio/NVMe block-size sweep).
 */

#include "exp/experiment.hh"
#include "workloads/fio.hh"
#include "workloads/memcached.hh"

namespace damn::exp {
namespace {

DAMN_EXPERIMENT(fig7_memcached)
{
    Experiment e;
    e.name = "fig7_memcached";
    e.title = "memcached (memslap 50/50 GET/SET, 512 KiB values): "
              "TPS and CPU per scheme";
    e.paper = "Figure 7";
    e.axes = {"scheme"};
    e.run = [](RunCtx &ctx) {
        for (const dma::SchemeKind k : ctx.schemes) {
            work::MemcachedOpts o;
            o.sysParams = ctx.sysParams(k);
            o.runWindow = ctx.window;
            const work::MemcachedResult r = work::runMemcached(o);
            ctx.out.beginRun(dma::schemeKindName(k));
            ctx.out.common(r.common);
        }
    };
    return e;
}

DAMN_EXPERIMENT(fig11_nvme)
{
    Experiment e;
    e.name = "fig11_nvme";
    e.title = "fio direct sequential read, 12 jobs: IOPS and CPU vs "
              "block size (DAMN does not apply to storage)";
    e.paper = "Figure 11";
    e.axes = {"scheme", "block_bytes"};
    e.defaultWindow = {20 * sim::kNsPerMs, 150 * sim::kNsPerMs};
    e.schemes = {dma::SchemeKind::IommuOff, dma::SchemeKind::Deferred,
                 dma::SchemeKind::Strict, dma::SchemeKind::Shadow};
    e.run = [](RunCtx &ctx) {
        for (const std::uint32_t bs :
             {512u, 1024u, 2048u, 4096u, 8192u, 16384u, 65536u,
              131072u}) {
            for (const dma::SchemeKind k : ctx.schemes) {
                work::FioOpts o;
                o.sysParams = ctx.sysParams(k);
                o.blockBytes = bs;
                o.runWindow = ctx.window;
                const work::FioResult r = work::runFio(o);
                ctx.out.beginRun(dma::schemeKindName(k));
                ctx.out.param("block_bytes", std::uint64_t(bs));
                ctx.out.common(r.common);
                ctx.out.metric("gbytes_per_sec", r.throughputGBps,
                               "GB/s");
                ctx.out.metric("failed_ios", double(r.failedIos),
                               "ios");
            }
        }
    };
    return e;
}

} // namespace
} // namespace damn::exp
