/**
 * @file
 * Protection-scheme comparison on a custom workload: runs a short
 * netperf-style experiment of your shape under all five schemes and
 * prints throughput / CPU / memory-bandwidth side by side.
 *
 * Usage:  build/examples/protection_comparison [instances] [segKiB]
 *         [rx|tx|bidi]
 * e.g.    build/examples/protection_comparison 8 64 bidi
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "workloads/netperf.hh"

using namespace damn;

int
main(int argc, char **argv)
{
    unsigned instances = 8;
    unsigned seg_kib = 64;
    work::NetMode mode = work::NetMode::Bidi;
    if (argc > 1)
        instances = unsigned(std::atoi(argv[1]));
    if (argc > 2)
        seg_kib = unsigned(std::atoi(argv[2]));
    if (argc > 3) {
        if (!std::strcmp(argv[3], "rx"))
            mode = work::NetMode::Rx;
        else if (!std::strcmp(argv[3], "tx"))
            mode = work::NetMode::Tx;
    }

    std::printf("netperf TCP-STREAM: %u instances, %u KiB aggregates, "
                "%s\n\n",
                instances, seg_kib,
                mode == work::NetMode::Rx   ? "RX"
                : mode == work::NetMode::Tx ? "TX"
                                            : "bidirectional");
    std::printf("%-10s %10s %10s %10s %12s %14s\n", "scheme", "Gb/s",
                "RX Gb/s", "TX Gb/s", "CPU%", "mem BW GB/s");
    std::printf("%s\n", std::string(70, '-').c_str());

    for (const auto scheme :
         {dma::SchemeKind::IommuOff, dma::SchemeKind::Deferred,
          dma::SchemeKind::Strict, dma::SchemeKind::Shadow,
          dma::SchemeKind::Damn}) {
        work::NetperfOpts o;
        o.sysParams.scheme = scheme;
        o.mode = mode;
        o.instances = instances;
        o.segBytes = seg_kib * 1024;
        o.costFactor = instances >= 16
            ? o.sysParams.cost.multiFlowFactor
            : 1.0 + (o.sysParams.cost.multiFlowFactor - 1.0) *
                  instances / 16.0;
        const auto run = work::runNetperf(o);
        std::printf("%-10s %10.1f %10.1f %10.1f %11.1f%% %14.1f\n",
                    dma::schemeKindName(scheme), run.res.totalGbps,
                    run.res.rxGbps, run.res.txGbps, run.res.cpuPct,
                    run.res.memGBps);
    }

    std::printf("\nShapes to look for (paper, sections 4 & 6):\n"
                " - damn tracks iommu-off within a few percent;\n"
                " - strict pays synchronous IOTLB invalidations "
                "(single-core) and the\n"
                "   invalidation-queue lock (multi-core, capping near "
                "80 Gb/s);\n"
                " - shadow pays a copy per DMAed byte: ~2x CPU, and at "
                "bidirectional\n"
                "   line rate it saturates the ~80 GB/s memory "
                "controllers.\n");
    return 0;
}
