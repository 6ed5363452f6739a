/**
 * @file
 * Graph500 BFS kernel + DES co-runner.
 */

#include "workloads/graph500.hh"

#include <algorithm>
#include <cassert>
#include <queue>

#include "workloads/netperf.hh"

namespace damn::work {

Graph
Graph::generate(unsigned scale, unsigned edgefactor, std::uint64_t seed)
{
    const std::uint64_t v = 1ull << scale;
    const std::uint64_t e = v * edgefactor;
    sim::Rng rng(seed);

    // Kronecker-flavored generator (R-MAT with Graph500's A/B/C
    // parameters 0.57/0.19/0.19): recursive quadrant descent.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(e);
    for (std::uint64_t i = 0; i < e; ++i) {
        std::uint64_t src = 0, dst = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            const double r = rng.uniform();
            // quadrant probabilities: a=.57, b=.19, c=.19, d=.05
            const int quad = r < 0.57 ? 0 : r < 0.76 ? 1 : r < 0.95 ? 2
                                                                    : 3;
            src = (src << 1) | std::uint64_t(quad >> 1);
            dst = (dst << 1) | std::uint64_t(quad & 1);
        }
        edges.emplace_back(std::uint32_t(src), std::uint32_t(dst));
    }

    // Build a symmetric CSR (undirected; self-loops kept, Graph500
    // drops them only during validation).
    Graph g;
    g.offsets_.assign(v + 1, 0);
    for (const auto &[s, d] : edges) {
        ++g.offsets_[s + 1];
        ++g.offsets_[d + 1];
    }
    for (std::uint64_t i = 1; i <= v; ++i)
        g.offsets_[i] += g.offsets_[i - 1];
    g.targets_.resize(g.offsets_[v]);
    std::vector<std::uint64_t> cursor(g.offsets_.begin(),
                                      g.offsets_.end() - 1);
    for (const auto &[s, d] : edges) {
        g.targets_[cursor[s]++] = d;
        g.targets_[cursor[d]++] = s;
    }
    return g;
}

BfsResult
bfs(const Graph &g, std::uint32_t root)
{
    BfsResult r;
    r.parent.assign(g.numVertices(), -1);
    r.parent[root] = root;
    std::vector<std::uint32_t> frontier{root};
    std::vector<std::uint32_t> next;
    r.verticesVisited = 1;

    while (!frontier.empty()) {
        next.clear();
        for (const std::uint32_t u : frontier) {
            for (const std::uint32_t *p = g.neighborsBegin(u);
                 p != g.neighborsEnd(u); ++p) {
                ++r.edgesTraversed;
                const std::uint32_t w = *p;
                if (r.parent[w] == -1) {
                    r.parent[w] = u;
                    next.push_back(w);
                    ++r.verticesVisited;
                }
            }
        }
        frontier.swap(next);
    }
    return r;
}

bool
validateBfs(const Graph &g, std::uint32_t root, const BfsResult &r)
{
    if (r.parent[root] != std::int64_t(root))
        return false;

    // Compute levels by walking parent chains; detect cycles.
    const std::uint64_t v = g.numVertices();
    std::vector<std::int64_t> level(v, -1);
    level[root] = 0;
    for (std::uint32_t u = 0; u < v; ++u) {
        if (r.parent[u] < 0 || level[u] >= 0)
            continue;
        // Walk up to the root or a known level.
        std::vector<std::uint32_t> chain;
        std::uint32_t w = u;
        while (level[w] < 0) {
            chain.push_back(w);
            w = std::uint32_t(r.parent[w]);
            if (chain.size() > v)
                return false; // cycle
        }
        std::int64_t lvl = level[w];
        for (auto it = chain.rbegin(); it != chain.rend(); ++it)
            level[*it] = ++lvl;
    }

    // Each non-root tree edge must exist and span exactly one level.
    for (std::uint32_t u = 0; u < v; ++u) {
        if (r.parent[u] < 0 || u == root)
            continue;
        const auto p = std::uint32_t(r.parent[u]);
        if (level[u] != level[p] + 1)
            return false;
        const bool edge_exists =
            std::find(g.neighborsBegin(p), g.neighborsEnd(p), u) !=
            g.neighborsEnd(p);
        if (!edge_exists)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// BfsCorunner
// ---------------------------------------------------------------------

BfsCorunner::BfsCorunner(sim::Context &ctx, Config cfg)
    : ctx_(ctx), cfg_(cfg), stats_(ctx.stats, "bfs"),
      quantaCtr_(stats_.counter("quanta")),
      bytesCtr_(stats_.counter("bytes"))
{}

void
BfsCorunner::start()
{
    // Stagger the workers: real BFS teams are not phase-locked, and a
    // synchronized start would make every worker sample the memory
    // controllers right after the whole team injected its quanta.
    const auto period = sim::TimeNs(double(cfg_.quantumBytes) /
                                    cfg_.perCoreBytesPerNs);
    for (unsigned t = 0; t < cfg_.teams; ++t) {
        for (unsigned m = 0; m < cfg_.coresPerTeam; ++m) {
            ctx_.engine.scheduleIn(ctx_.rng.below(period),
                                   [this, t, m] { runQuantum(t, m); });
        }
    }
}

void
BfsCorunner::runQuantum(unsigned team, unsigned member)
{
    const unsigned core_id =
        cfg_.firstCore + team * cfg_.coresPerTeam + member;
    sim::Core &core = ctx_.machine.core(core_id);
    sim::CpuCursor cpu(core, ctx_.now());

    // Jitter the quantum size (frontier sizes vary wildly across BFS
    // levels); this also keeps workers from re-synchronizing.
    const std::uint64_t chunk = cfg_.quantumBytes / 2 +
        ctx_.rng.below(cfg_.quantumBytes);
    // BFS is memory-bound: the quantum's time is its edge traffic at
    // the kernel's uncontended streaming rate, stretched when the
    // shared memory controllers are congested (processor-sharing
    // approximation, like CPU copies), plus a small compute share.
    const double stall =
        sim::memStallFactor(ctx_.memBw.utilization(cpu.time));
    const double mem_ns =
        double(chunk) / cfg_.perCoreBytesPerNs * stall;
    cpu.charge(sim::TimeNs(mem_ns * (1.0 + cfg_.computeFraction)));
    ctx_.memBw.occupy(cpu.time, chunk);

    if (cpu.time >= windowStart_) {
        processedBytes_ += chunk;
        ctx_.stats.add(quantaCtr_);
        ctx_.stats.add(bytesCtr_, chunk);
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
        (double(cfg_.bytesPerIteration) * cfg_.teams);
    return window_s / (iterations / 1.0);
}

// ---------------------------------------------------------------------
// runNetGraphCorun
// ---------------------------------------------------------------------

CorunResult
runNetGraphCorun(const CorunOpts &opts)
{
    NetperfOpts o;
    o.sysParams.scheme = opts.scheme;
    o.sysParams.backend = opts.backend;
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
        bfs = std::make_unique<BfsCorunner>(run.sys->ctx, opts.bfs);
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
    r.net.stats = run.sys->ctx.stats.snapshot();
    return r;
}

} // namespace damn::work
