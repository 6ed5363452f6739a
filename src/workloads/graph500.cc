/**
 * @file
 * Graph500 DES co-runner.
 */

#include "workloads/graph500.hh"

#include <cassert>

#include "workloads/netperf.hh"

namespace damn::work {

// ---------------------------------------------------------------------
// BfsCorunner
// ---------------------------------------------------------------------

namespace {

constexpr unsigned kTeams = 3;
constexpr unsigned kCoresPerTeam = 8;
/** First core id to use (netperf owns the lower ids). */
constexpr unsigned kFirstCore = 4;
/** Edge traffic per BFS iteration per team (2^20 vertices x degree
 *  256 ~ 268M directed edges streamed with metadata). */
constexpr std::uint64_t kBytesPerIteration = 8ull << 30;
/** Uncontended per-core streaming bandwidth of the BFS kernel
 *  (random-access bound), B/ns. */
constexpr double kPerCoreBytesPerNs = 1.8;
/** Compute overhead as a fraction of memory time. */
constexpr double kComputeFraction = 0.10;
/** Memory-traffic quantum per event, bytes. */
constexpr std::uint64_t kQuantumBytes = 256 * 1024;

} // namespace

void
BfsCorunner::start()
{
    // Stagger the workers: real BFS teams are not phase-locked, and a
    // synchronized start would make every worker sample the memory
    // controllers right after the whole team injected its quanta.
    const auto period =
        sim::TimeNs(double(kQuantumBytes) / kPerCoreBytesPerNs);
    for (unsigned t = 0; t < kTeams; ++t) {
        for (unsigned m = 0; m < kCoresPerTeam; ++m) {
            ctx_.engine.scheduleIn(ctx_.rng.below(period),
                                   [this, t, m] { runQuantum(t, m); });
        }
    }
}

void
BfsCorunner::runQuantum(unsigned team, unsigned member)
{
    const unsigned core_id = kFirstCore + team * kCoresPerTeam + member;
    sim::Core &core = ctx_.machine.core(core_id);
    sim::CpuCursor cpu(core, ctx_.now());

    // Jitter the quantum size (frontier sizes vary wildly across BFS
    // levels); this also keeps workers from re-synchronizing.
    const std::uint64_t chunk =
        kQuantumBytes / 2 + ctx_.rng.below(kQuantumBytes);
    // BFS is memory-bound: the quantum's time is its edge traffic at
    // the kernel's uncontended streaming rate, stretched when the
    // shared memory controllers are congested (processor-sharing
    // approximation, like CPU copies), plus a small compute share.
    const double stall =
        sim::memStallFactor(ctx_.memBw.utilization(cpu.time));
    const double mem_ns = double(chunk) / kPerCoreBytesPerNs * stall;
    cpu.charge(sim::TimeNs(mem_ns * (1.0 + kComputeFraction)));
    ctx_.memBw.occupy(cpu.time, chunk);

    if (cpu.time >= windowStart_) {
        processedBytes_ += chunk;
        ctx_.stats.add(sim::Ctr::BfsQuanta);
        ctx_.stats.add(sim::Ctr::BfsBytes, chunk);
    }

    ctx_.engine.schedule(cpu.time,
                         [this, team, member] { runQuantum(team, member); });
}

double
BfsCorunner::meanIterationSeconds(sim::TimeNs now) const
{
    if (processedBytes_ == 0 || now <= windowStart_)
        return 0.0;
    const double window_s = double(now - windowStart_) / 1e9;
    const double iterations = double(processedBytes_) /
        (double(kBytesPerIteration) * kTeams);
    return window_s / (iterations / 1.0);
}

// ---------------------------------------------------------------------
// runNetGraphCorun
// ---------------------------------------------------------------------

CorunResult
runNetGraphCorun(const CorunOpts &opts)
{
    NetperfOpts o;
    o.sysParams = opts.sysParams;
    o.mode = NetMode::Bidi;
    o.instances = 8; // 4 RX + 4 TX over 4 cores, 2 per CPU
    o.coreLimit = 4;
    // Few flows => LRO aggregates fully, as in the single-core test.
    o.segBytes = 64 * 1024;
    o.costFactor = 1.2;
    o.runWindow = opts.runWindow;

    NetperfRun run = makeNetperfSystem(o);
    std::unique_ptr<BfsCorunner> bfs;
    if (opts.withGraph) {
        bfs = std::make_unique<BfsCorunner>(run.sys->ctx);
        bfs->start();
    }

    CorunResult r;
    if (opts.withNet) {
        net::StreamConfig sc;
        sc.warmupNs = o.runWindow.warmupNs;
        sc.measureNs = o.runWindow.measureNs;
        sc.costFactor = o.costFactor;
        net::StreamEngine eng(*run.sys, *run.nic, *run.stack, sc);
        work::addNetperfFlows(run, eng, o);
        if (bfs) {
            run.sys->ctx.engine.scheduleIn(
                o.runWindow.warmupNs,
                [&] { bfs->resetWindow(o.runWindow.warmupNs); });
        }
        r.net = toCommon(eng.run(), o.runWindow);
    } else {
        assert(bfs && "a co-run needs at least one side");
        opts.runWindow.settle(run.sys->ctx);
        bfs->resetWindow(run.sys->ctx.now());
        opts.runWindow.finish(run.sys->ctx);
    }
    if (bfs)
        r.iterSeconds = bfs->meanIterationSeconds(run.sys->ctx.now());
    r.net.capture(run.sys->ctx);
    return r;
}

} // namespace damn::work
