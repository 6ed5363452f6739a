/**
 * @file
 * netperf runner implementation.
 */

#include "workloads/netperf.hh"

namespace damn::work {

NetperfRun
makeNetperfSystem(const NetperfOpts &opts)
{
    NetperfRun run;
    run.sys = std::make_unique<net::System>(opts.sysParams);
    // Throughput experiments skip payload byte movement (timing and
    // translation behaviour are unchanged; see Context::functionalData).
    run.sys->ctx.functionalData = false;
    run.nic = std::make_unique<net::NicDevice>(*run.sys, "mlx5_0");
    run.stack = std::make_unique<net::TcpStack>(*run.sys, *run.nic);
    return run;
}

void
addNetperfFlows(NetperfRun &run, net::StreamEngine &eng,
                const NetperfOpts &opts)
{
    const unsigned ncores = run.sys->ctx.machine.numCores();
    for (unsigned i = 0; i < opts.instances; ++i) {
        net::FlowSpec f;
        if (opts.mode == NetMode::Rx) {
            f.kind = net::Traffic::Rx;
        } else if (opts.mode == NetMode::Tx) {
            f.kind = net::Traffic::Tx;
        } else {
            f.kind = i % 2 == 0 ? net::Traffic::Rx : net::Traffic::Tx;
        }
        f.core = i % (opts.coreLimit > 0 ? opts.coreLimit : ncores);
        f.port = i % 2;
        f.segBytes = opts.segBytes;
        f.window = opts.window;
        eng.addFlow(f);
    }
}

CommonResult
toCommon(const net::StreamResult &res, const RunWindow &window)
{
    CommonResult c;
    c.gbps = res.totalGbps;
    c.cpuPct = res.cpuPct;
    c.memGBps = res.memGBps;
    std::uint64_t segments = 0;
    for (const net::FlowResult &f : res.flows)
        segments += f.segments;
    c.opsPerSec = window.perSecond(segments);
    c.latency = res.latency;
    return c;
}

NetperfRun
runNetperf(const NetperfOpts &opts,
           const std::function<void(NetperfRun &)> &customize)
{
    NetperfRun run = makeNetperfSystem(opts);
    if (customize)
        customize(run);

    net::StreamConfig sc;
    sc.warmupNs = opts.runWindow.warmupNs;
    sc.measureNs = opts.runWindow.measureNs;
    sc.costFactor = opts.costFactor;
    net::StreamEngine eng(*run.sys, *run.nic, *run.stack, sc);
    addNetperfFlows(run, eng, opts);
    run.res = eng.run();

    run.common = toCommon(run.res, opts.runWindow);
    run.common.capture(run.sys->ctx);
    return run;
}

NetperfOpts
singleCoreOpts(dma::SchemeKind scheme, NetMode mode)
{
    NetperfOpts o;
    o.sysParams.scheme = scheme;
    o.mode = mode;
    o.instances = 4;
    o.coreLimit = 1;
    o.segBytes = 64 * 1024;
    o.costFactor = 1.0;
    return o;
}

NetperfOpts
multiCoreOpts(dma::SchemeKind scheme, NetMode mode)
{
    NetperfOpts o;
    o.sysParams.scheme = scheme;
    o.mode = mode;
    o.instances = 28;
    o.segBytes = 16 * 1024;
    o.costFactor = o.sysParams.cost.multiFlowFactor;
    return o;
}

NetperfOpts
bidirectionalOpts(dma::SchemeKind scheme)
{
    NetperfOpts o;
    o.sysParams.scheme = scheme;
    o.mode = NetMode::Bidi;
    o.instances = 56; // 28 receiving + 28 transmitting, one pair/core
    o.segBytes = 16 * 1024;
    o.costFactor = o.sysParams.cost.multiFlowFactor;
    return o;
}

} // namespace damn::work
