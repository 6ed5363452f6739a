/**
 * @file
 * Sharded scale-out netperf implementation.
 */

#include "workloads/sharded.hh"

#include <memory>
#include <string>
#include <vector>

namespace damn::work {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
fold(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

void
foldStr(std::uint64_t &h, const std::string &s)
{
    for (const char c : s) {
        h ^= std::uint8_t(c);
        h *= kFnvPrime;
    }
}

/** One machine shard: a full System plus its stream state. */
struct ShardState
{
    NetperfRun run;
    std::unique_ptr<net::StreamEngine> streams;
    std::uint64_t telemetryRx = 0;
    std::uint64_t telemetryHash = 0;
    std::uint64_t segsAtWarmup = 0;
    std::uint64_t bytesAtWarmup = 0;
};

/** Periodic cross-shard heartbeat: one per shard, rescheduling itself
 *  on the source engine and promising silence until the next tick —
 *  the promise, not the wire latency, sets the window width. */
struct Telemetry
{
    sim::ShardedEngine *se = nullptr;
    sim::Engine *srcEng = nullptr;
    sim::Engine *dstEng = nullptr;
    ShardState *dst = nullptr;
    unsigned channel = 0;
    unsigned srcShard = 0;
    sim::TimeNs period = 0;
    std::uint64_t seq = 0;

    void
    tick()
    {
        const sim::TimeNs at = srcEng->now();
        ++seq;
        ShardState *d = dst;
        sim::Engine *de = dstEng;
        const unsigned src = srcShard;
        const std::uint64_t n = seq;
        se->send(channel, [d, de, src, n] {
            ++d->telemetryRx;
            fold(d->telemetryHash, src);
            fold(d->telemetryHash, n);
            fold(d->telemetryHash, de->now());
        });
        se->promiseNoSendBefore(channel, at + period);
        srcEng->scheduleIn(period, [this] { tick(); });
    }
};

} // namespace

ShardedNetperfResult
runShardedNetperf(const ShardedNetperfOpts &opts)
{
    const unsigned k = opts.plan.shards > 0 ? opts.plan.shards : 1;
    const sim::TimeNs link =
        opts.plan.resolvedLinkNs(opts.sysParams.cost);

    std::vector<std::unique_ptr<ShardState>> shards;
    std::vector<std::unique_ptr<Telemetry>> heartbeats;
    sim::ShardedEngine se;

    NetperfOpts base;
    base.scheme = opts.scheme;
    base.mode = opts.mode;
    base.instances = opts.instancesPerShard;
    base.segBytes = opts.segBytes;
    base.window = opts.window;
    base.costFactor = opts.costFactor;
    base.runWindow = opts.runWindow;
    base.sysParams = opts.sysParams;

    for (unsigned s = 0; s < k; ++s) {
        auto st = std::make_unique<ShardState>();
        st->run = makeNetperfSystem(base);
        net::StreamConfig sc;
        sc.warmupNs = opts.runWindow.warmupNs;
        sc.measureNs = opts.runWindow.measureNs;
        sc.costFactor = opts.costFactor;
        st->streams = std::make_unique<net::StreamEngine>(
            *st->run.sys, *st->run.nic, *st->run.stack, sc);
        addNetperfFlows(st->run, *st->streams, base);
        se.addShard("machine" + std::to_string(s),
                    st->run.sys->ctx.engine);
        shards.push_back(std::move(st));
    }

    // Telemetry ring s -> (s+1) % k through the ToR (skipped for a
    // single shard, which has nothing to talk to).
    if (k > 1) {
        for (unsigned s = 0; s < k; ++s) {
            const unsigned d = (s + 1) % k;
            const unsigned ch = se.connect(s, d, link);
            auto hb = std::make_unique<Telemetry>();
            hb->se = &se;
            hb->srcEng = &shards[s]->run.sys->ctx.engine;
            hb->dstEng = &shards[d]->run.sys->ctx.engine;
            hb->dst = shards[d].get();
            hb->channel = ch;
            hb->srcShard = s;
            hb->period = opts.plan.telemetryPeriodNs;
            // Quiet until the first tick: the window opens at the full
            // telemetry period right away.
            se.promiseNoSendBefore(ch, hb->period);
            Telemetry *raw = hb.get();
            raw->srcEng->schedule(raw->period, [raw] { raw->tick(); });
            heartbeats.push_back(std::move(hb));
        }
    }

    for (auto &st : shards)
        st->streams->startAll();

    if (opts.stallBudgetEvents != 0) {
        std::vector<ShardState *> raw;
        for (auto &st : shards)
            raw.push_back(st.get());
        se.armWatchdog(
            opts.stallBudgetEvents,
            [raw](unsigned s) {
                return raw[s]->streams->totalSegments() +
                       raw[s]->telemetryRx;
            });
    }

    ShardedNetperfResult r;

    // Warmup phase, then reset the busy-time/bandwidth accounting on
    // every shard so the measurement window is clean (the sharded
    // analogue of RunWindow::settle).
    r.events += se.run(opts.runWindow.warmupNs, opts.workers);
    r.rounds += se.lastRunStats().rounds;
    r.lockstepRounds += se.lastRunStats().lockstepRounds;
    r.messages += se.lastRunStats().messages;
    for (const sim::ShardStall &st : se.stalls())
        r.stalls.push_back(st);
    for (auto &st : shards) {
        sim::Context &ctx = st->run.sys->ctx;
        ctx.machine.resetAccounting();
        ctx.memBw.resetAccounting();
        ctx.tracer.resetWindow();
        st->segsAtWarmup = st->streams->totalSegments();
        st->bytesAtWarmup = st->streams->totalBytes();
    }

    if (r.stalls.empty()) {
        r.events += se.run(opts.runWindow.endNs(), opts.workers);
        r.rounds += se.lastRunStats().rounds;
        r.lockstepRounds += se.lastRunStats().lockstepRounds;
        r.messages += se.lastRunStats().messages;
        for (const sim::ShardStall &st : se.stalls())
            r.stalls.push_back(st);
    }

    std::uint64_t h = kFnvOffset;
    double cpuSum = 0.0;
    for (unsigned s = 0; s < k; ++s) {
        ShardState &st = *shards[s];
        sim::Context &ctx = st.run.sys->ctx;
        const std::uint64_t segs =
            st.streams->totalSegments() - st.segsAtWarmup;
        const std::uint64_t bytes =
            st.streams->totalBytes() - st.bytesAtWarmup;
        r.segments += segs;
        r.bytes += bytes;
        r.telemetryReceived += st.telemetryRx;
        cpuSum += opts.runWindow.cpuPct(ctx);
        fold(h, ctx.engine.dispatched());
        fold(h, ctx.engine.now());
        fold(h, segs);
        fold(h, bytes);
        fold(h, st.telemetryRx);
        fold(h, st.telemetryHash);
        fold(h, st.streams->totalDrops());
        fold(h, st.streams->totalRetransmits());
        for (const auto &[name, value] : ctx.stats.snapshot()) {
            foldStr(h, name);
            fold(h, value);
        }
    }
    r.digest = h;
    r.cpuPct = k > 0 ? cpuSum / k : 0.0;
    r.gbps = opts.runWindow.measureNs == 0
                 ? 0.0
                 : sim::bytesPerNsToGbps(
                       double(r.bytes) /
                       double(opts.runWindow.measureNs));
    return r;
}

} // namespace damn::work
