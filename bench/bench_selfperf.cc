/**
 * @file
 * Self-benchmark of the simulator itself: how fast does the simulator
 * run, in wall-clock terms?  Every other bench in tree reports
 * *virtual-time* results; this one reports the metrics that bound how
 * long sweeps, soaks and CI take on real hardware:
 *
 *  - raw DES dispatch rate (events/sec) of the production engine,
 *    A/B'd against the seed-state engine (bench/legacy_engine.hh) on
 *    an identical timer-churn workload — the "engine fast path"
 *    speedup, tracked PR over PR;
 *  - wall-ns per simulated-ms of a representative experiment unit
 *    (multi-core netperf RX) per protection scheme, plus its
 *    wall-clock event dispatch rate;
 *  - intra-run shard scaling: the sharded scale-out netperf workload
 *    (4 machine shards under sim::ShardedEngine) at 1/2/4 workers —
 *    events/sec per worker count plus the determinism digest, which
 *    must be identical at every worker count (hard gate).
 *
 * Results go to BENCH_selfperf.json (see EXPERIMENTS.md for the
 * schema).  The numbers are wall-clock and therefore host-dependent —
 * the file records a trajectory, not a deterministic artifact.
 * `--check=PATH` validates a previously written file against the
 * schema (used by the bench-selfperf-smoke ctest).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/driver.hh"
#include "exp/json.hh"
#include "legacy_engine.hh"
#include "sim/engine.hh"
#include "workloads/netperf.hh"
#include "workloads/sharded.hh"

#include <thread>

namespace {

using damn::sim::TimeNs;

const char kUsage[] =
    "usage: bench_selfperf [options]\n"
    "\n"
    "Times the simulator itself (wall clock) and writes the\n"
    "BENCH_selfperf.json perf-tracking artifact.\n"
    "\n"
    "  --out=PATH        output file (default BENCH_selfperf.json)\n"
    "  --events=N        engine microbench dispatch count (2000000)\n"
    "  --warmup-ms=N     experiment-unit warmup window (5)\n"
    "  --measure-ms=N    experiment-unit measure window (20)\n"
    "  --check=PATH      validate an existing artifact against the\n"
    "                    schema and exit (no benchmarking)\n"
    "  --regress-check=PATH\n"
    "                    re-run the engine A/B microbench and fail\n"
    "                    (exit 5) if the measured fast/legacy speedup\n"
    "                    falls more than --tolerance percent below\n"
    "                    PATH's recorded engine.speedup.  The ratio is\n"
    "                    host-independent (both engines run on the\n"
    "                    same machine back to back), unlike the raw\n"
    "                    events/sec numbers.  Then replays the sharded\n"
    "                    netperf workload at 1 and 4 workers: digest or\n"
    "                    event-count divergence always fails (exit 5);\n"
    "                    on hosts with >= 4 hardware threads the\n"
    "                    4-worker speedup must also clear\n"
    "                    max(1.5, baseline * (1 - tolerance)).\n"
    "  --tolerance=PCT   allowed speedup regression (default 15)\n"
    "  --help            this text\n";

double
wallSeconds(std::chrono::steady_clock::time_point t0,
            std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

std::uint64_t
xorshift(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * The engine microbench workload, identical for both engines: a fixed
 * population of self-perpetuating timers with pseudo-random deltas,
 * with one schedule+cancel churn pair every 8th dispatch — the mix
 * (mostly timers, some cancels) the NIC/TCP/NVMe models generate.
 */
template <typename Eng>
struct ChurnTimer
{
    Eng *eng;
    std::uint64_t *dispatched;
    std::uint64_t *rng;
    std::uint64_t target;

    void
    operator()() const
    {
        if (++*dispatched >= target)
            return;
        const std::uint64_t r = *rng = xorshift(*rng);
        const TimeNs delta = 1 + TimeNs(r % 997);
        eng->scheduleIn(delta, *this);
        if ((r & 7) == 0) {
            const auto id = eng->scheduleIn(delta + 13, *this);
            eng->cancel(id);
        }
    }
};

/** Dispatch @p target events through @p Eng; wall events/sec. */
template <typename Eng>
double
engineEventsPerSecOnce(std::uint64_t target)
{
    Eng eng;
    std::uint64_t dispatched = 0;
    std::uint64_t rng = 0x2545F4914F6CDD1Dull;
    const ChurnTimer<Eng> timer{&eng, &dispatched, &rng, target};
    static_assert(sizeof(timer) <= damn::sim::SmallFn::kInlineBytes,
                  "microbench timer must stay allocation-free");
    for (unsigned i = 0; i < 64; ++i)
        eng.schedule(1 + i, timer);
    const auto t0 = std::chrono::steady_clock::now();
    eng.runAll();
    const auto t1 = std::chrono::steady_clock::now();
    return double(eng.dispatched()) / wallSeconds(t0, t1);
}

/**
 * Best-of-K events/sec: scheduler preemption and frequency scaling
 * only ever make a trial *slower*, so the max over trials is the
 * least-noisy estimate of the engine's true rate — what both the
 * artifact and the verify-perf regression gate record.
 */
constexpr unsigned kEngineTrials = 5;

template <typename Eng>
double
engineEventsPerSec(std::uint64_t target)
{
    double best = 0.0;
    for (unsigned i = 0; i < kEngineTrials; ++i)
        best = std::max(best, engineEventsPerSecOnce<Eng>(target));
    return best;
}

struct UnitResult
{
    std::string name;
    std::string scheme;
    double simMs = 0.0;
    double wallMs = 0.0;
    double wallNsPerSimMs = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
};

/** Time one representative experiment unit (netperf multi-core RX). */
UnitResult
runUnit(damn::dma::SchemeKind scheme, TimeNs warmup_ns,
        TimeNs measure_ns)
{
    namespace work = damn::work;
    work::NetperfOpts o =
        work::multiCoreOpts(scheme, work::NetMode::Rx);
    o.runWindow = work::RunWindow{warmup_ns, measure_ns};
    const auto t0 = std::chrono::steady_clock::now();
    const work::NetperfRun run = work::runNetperf(o);
    const auto t1 = std::chrono::steady_clock::now();

    UnitResult u;
    u.name = "netperf_multicore_rx";
    u.scheme = damn::dma::schemeKindName(scheme);
    u.simMs = double(o.runWindow.endNs()) / 1e6;
    const double wall_s = wallSeconds(t0, t1);
    u.wallMs = wall_s * 1e3;
    u.wallNsPerSimMs = wall_s * 1e9 / u.simMs;
    u.events = run.sys->ctx.engine.dispatched();
    u.eventsPerSec = wall_s > 0.0 ? double(u.events) / wall_s : 0.0;
    return u;
}

// ---------------------------------------------------------------------
// Intra-run shard scaling (sim::ShardedEngine)
// ---------------------------------------------------------------------

/** Machine shards of the scaling workload: enough independent engines
 *  that 4 workers all have a shard to advance every round. */
constexpr unsigned kShardCount = 4;

struct ShardTrial
{
    unsigned workers = 0;
    std::uint64_t events = 0;
    double wallMs = 0.0;
    double eventsPerSec = 0.0;
    std::uint64_t digest = 0;
};

/** One sharded scale-out netperf run at @p workers threads. */
ShardTrial
runShardTrial(unsigned workers, TimeNs warmup_ns, TimeNs measure_ns)
{
    namespace work = damn::work;
    work::ShardedNetperfOpts o;
    o.plan.shards = kShardCount;
    o.scheme = damn::dma::SchemeKind::Damn;
    o.runWindow = work::RunWindow{warmup_ns, measure_ns};
    o.workers = workers;

    const auto t0 = std::chrono::steady_clock::now();
    const work::ShardedNetperfResult r = work::runShardedNetperf(o);
    const auto t1 = std::chrono::steady_clock::now();

    ShardTrial t;
    t.workers = workers;
    t.events = r.events;
    const double wall_s = wallSeconds(t0, t1);
    t.wallMs = wall_s * 1e3;
    t.eventsPerSec = wall_s > 0.0 ? double(r.events) / wall_s : 0.0;
    t.digest = r.digest;
    return t;
}

std::string
digestHex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  (unsigned long long)digest);
    return buf;
}

// ---------------------------------------------------------------------
// Schema validation (--check)
// ---------------------------------------------------------------------

bool
checkNumber(const damn::exp::Json *v, const char *key, bool positive,
            std::string *err)
{
    if (!v) {
        *err = std::string("missing key: ") + key;
        return false;
    }
    double d = 0.0;
    try {
        d = v->asDouble();
    } catch (const std::exception &) {
        *err = std::string("not a number: ") + key;
        return false;
    }
    if (positive && !(d > 0.0)) {
        *err = std::string("must be > 0: ") + key;
        return false;
    }
    return true;
}

/** Validate a BENCH_selfperf.json document.  False + *err on error. */
bool
checkSchema(const damn::exp::Json &doc, std::string *err)
{
    using damn::exp::Json;
    if (!doc.isObject()) {
        *err = "top level is not an object";
        return false;
    }
    const Json *ver = doc.find("schema_version");
    if (!checkNumber(ver, "schema_version", true, err))
        return false;
    const Json *gen = doc.find("generator");
    if (!gen || gen->str() != "bench_selfperf") {
        *err = "generator is not \"bench_selfperf\"";
        return false;
    }
    const Json *eng = doc.find("engine");
    if (!eng || !eng->isObject()) {
        *err = "missing object: engine";
        return false;
    }
    for (const char *key :
         {"events", "fast_events_per_sec", "legacy_events_per_sec",
          "speedup"})
        if (!checkNumber(eng->find(key), key, true, err))
            return false;
    const Json *units = doc.find("units");
    if (!units || !units->isArray() || units->items().empty()) {
        *err = "units must be a non-empty array";
        return false;
    }
    for (const Json &u : units->items()) {
        if (!u.isObject()) {
            *err = "unit is not an object";
            return false;
        }
        for (const char *key : {"name", "scheme"}) {
            const Json *s = u.find(key);
            if (!s || s->kind() != Json::Kind::String ||
                s->str().empty()) {
                *err = std::string("unit needs a string: ") + key;
                return false;
            }
        }
        for (const char *key : {"sim_ms", "wall_ms",
                                "wall_ns_per_sim_ms", "events",
                                "events_per_sec"})
            if (!checkNumber(u.find(key), key, true, err))
                return false;
    }
    // v2: the intra-run shard-scaling section (sim::ShardedEngine).
    if (ver->asDouble() >= 2.0) {
        const Json *shard = doc.find("shard");
        if (!shard || !shard->isObject()) {
            *err = "missing object: shard";
            return false;
        }
        for (const char *key : {"shards", "speedup_w4"})
            if (!checkNumber(shard->find(key), key, true, err))
                return false;
        const Json *digest = shard->find("digest");
        if (!digest || digest->kind() != Json::Kind::String ||
            digest->str().empty()) {
            *err = "shard needs a string: digest";
            return false;
        }
        const Json *trials = shard->find("trials");
        if (!trials || !trials->isArray() || trials->items().empty()) {
            *err = "shard.trials must be a non-empty array";
            return false;
        }
        for (const Json &t : trials->items())
            for (const char *key :
                 {"workers", "events", "wall_ms", "events_per_sec"})
                if (!checkNumber(t.find(key), key, true, err))
                    return false;
    }
    return true;
}

/**
 * Perf-regression gate (the opt-in verify-perf target): re-run
 * the engine A/B and compare the measured speedup ratio against the
 * committed baseline, then re-run the intra-run shard scaling A/B
 * (1 worker vs 4) with two gates:
 *
 *  - determinism: the two worker counts must produce identical
 *    digests on every host (byte-identical execution — exit 5);
 *  - speedup: on hosts with >= 4 hardware threads, the 4-worker
 *    speedup must clear both the committed baseline (minus the
 *    tolerance) and an absolute 1.5x floor.  Hosts with fewer
 *    threads cannot exhibit parallel speedup, so only the
 *    determinism gate binds there.
 *
 * Exit 5 — distinct from schema/usage errors — on a regression.
 */
int
regressCheck(const std::string &path, double tolerance_pct,
             std::uint64_t events)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_selfperf: cannot read %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    double baseline = 0.0;
    double shard_baseline = 0.0; // 0 = v1 file, no shard section
    try {
        const damn::exp::Json doc = damn::exp::Json::parse(ss.str());
        std::string err;
        if (!checkSchema(doc, &err)) {
            std::fprintf(stderr,
                         "bench_selfperf: %s: schema violation: %s\n",
                         path.c_str(), err.c_str());
            return 1;
        }
        baseline = doc.find("engine")->find("speedup")->asDouble();
        if (const damn::exp::Json *shard = doc.find("shard"))
            shard_baseline = shard->find("speedup_w4")->asDouble();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_selfperf: %s: parse error: %s\n",
                     path.c_str(), e.what());
        return 1;
    }

    const double legacy =
        engineEventsPerSec<damn::bench::LegacyEngine>(events);
    const double fast = engineEventsPerSec<damn::sim::Engine>(events);
    const double measured = fast / legacy;
    const double floor = baseline * (1.0 - tolerance_pct / 100.0);
    std::printf("engine speedup: measured %.3fx, baseline %.3fx, "
                "floor %.3fx (tolerance %.0f%%)\n",
                measured, baseline, floor, tolerance_pct);
    if (measured < floor) {
        std::fprintf(stderr,
                     "bench_selfperf: engine fast-path REGRESSION: "
                     "%.3fx < %.3fx\n",
                     measured, floor);
        return 5;
    }
    std::printf("engine fast path within tolerance\n");

    // Intra-run shard scaling A/B at a small window (the virtual-time
    // workload is identical at any worker count, so the digest gate is
    // exact even when the wall-clock numbers are noisy).
    const TimeNs warmup = damn::sim::kNsPerMs;
    const TimeNs measure = 3 * damn::sim::kNsPerMs;
    const ShardTrial w1 = runShardTrial(1, warmup, measure);
    const ShardTrial w4 = runShardTrial(4, warmup, measure);
    std::printf("shard scaling: w1 %.3fM ev/s, w4 %.3fM ev/s "
                "(%.2fx), digest %s/%s\n",
                w1.eventsPerSec / 1e6, w4.eventsPerSec / 1e6,
                w1.eventsPerSec > 0.0
                    ? w4.eventsPerSec / w1.eventsPerSec
                    : 0.0,
                digestHex(w1.digest).c_str(),
                digestHex(w4.digest).c_str());
    if (w1.digest != w4.digest || w1.events != w4.events) {
        std::fprintf(stderr,
                     "bench_selfperf: shard DETERMINISM violation: "
                     "workers=1 and workers=4 diverged\n");
        return 5;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw >= 4) {
        const double shard_speedup =
            w1.eventsPerSec > 0.0 ? w4.eventsPerSec / w1.eventsPerSec
                                  : 0.0;
        double shard_floor = 1.5;
        if (shard_baseline > 0.0)
            shard_floor = std::max(
                shard_floor,
                shard_baseline * (1.0 - tolerance_pct / 100.0));
        if (shard_speedup < shard_floor) {
            std::fprintf(stderr,
                         "bench_selfperf: shard scaling REGRESSION: "
                         "%.3fx < %.3fx\n",
                         shard_speedup, shard_floor);
            return 5;
        }
        std::printf("shard scaling within tolerance\n");
    } else {
        std::printf("shard speedup gate skipped: host has %u hardware "
                    "thread(s); determinism gate enforced\n",
                    hw);
    }
    return 0;
}

int
checkFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_selfperf: cannot read %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
        std::string err;
        if (!checkSchema(damn::exp::Json::parse(ss.str()), &err)) {
            std::fprintf(stderr,
                         "bench_selfperf: %s: schema violation: %s\n",
                         path.c_str(), err.c_str());
            return 1;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_selfperf: %s: parse error: %s\n",
                     path.c_str(), e.what());
        return 1;
    }
    std::printf("%s: schema ok\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_selfperf.json";
    std::string check;
    std::string regress;
    double tolerance = 15.0;
    std::uint64_t events = 2'000'000;
    TimeNs warmup_ns = 5 * damn::sim::kNsPerMs;
    TimeNs measure_ns = 20 * damn::sim::kNsPerMs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string key =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--help") {
            std::printf("%s", kUsage);
            return 0;
        } else if (key == "--out" && !value.empty()) {
            out = value;
        } else if (key == "--check" && !value.empty()) {
            check = value;
        } else if (key == "--regress-check" && !value.empty()) {
            regress = value;
        } else if (key == "--tolerance" && !value.empty()) {
            tolerance = std::strtod(value.c_str(), nullptr);
            if (!(tolerance > 0.0 && tolerance < 100.0)) {
                std::fprintf(stderr,
                             "bench_selfperf: --tolerance must be in "
                             "(0, 100)\n");
                return 2;
            }
        } else if (key == "--events" && !value.empty()) {
            events = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--warmup-ms" && !value.empty()) {
            warmup_ns = std::strtoull(value.c_str(), nullptr, 10) *
                damn::sim::kNsPerMs;
        } else if (key == "--measure-ms" && !value.empty()) {
            measure_ns = std::strtoull(value.c_str(), nullptr, 10) *
                damn::sim::kNsPerMs;
        } else {
            std::fprintf(stderr, "bench_selfperf: bad argument: %s\n%s",
                         arg.c_str(), kUsage);
            return 2;
        }
    }
    if (!check.empty())
        return checkFile(check);
    if (!regress.empty()) {
        if (events == 0) {
            std::fprintf(stderr,
                         "bench_selfperf: --events must be positive\n");
            return 2;
        }
        return regressCheck(regress, tolerance, events);
    }
    if (events == 0 || measure_ns == 0) {
        std::fprintf(stderr,
                     "bench_selfperf: --events/--measure-ms must be "
                     "positive\n");
        return 2;
    }

    // Engine A/B: legacy first so its allocator churn cannot warm
    // caches for the production engine's run.
    const double legacy =
        engineEventsPerSec<damn::bench::LegacyEngine>(events);
    const double fast =
        engineEventsPerSec<damn::sim::Engine>(events);
    std::printf("engine dispatch: fast %.3fM ev/s, legacy %.3fM ev/s "
                "(%.2fx)\n",
                fast / 1e6, legacy / 1e6, fast / legacy);

    std::vector<UnitResult> units;
    for (const damn::dma::SchemeKind k : damn::exp::defaultSchemes()) {
        units.push_back(runUnit(k, warmup_ns, measure_ns));
        const UnitResult &u = units.back();
        std::printf("%s/%-9s  %7.1f wall-ms for %.1f sim-ms  "
                    "(%.0f wall-ns/sim-ms, %.3fM ev/s)\n",
                    u.name.c_str(), u.scheme.c_str(), u.wallMs,
                    u.simMs, u.wallNsPerSimMs, u.eventsPerSec / 1e6);
    }

    // Intra-run shard scaling: the same sharded workload at 1/2/4
    // workers.  Identical digests are a hard gate — a divergence means
    // the parallel rounds executed different events than serial.
    std::vector<ShardTrial> shard_trials;
    for (const unsigned w : {1u, 2u, 4u}) {
        shard_trials.push_back(runShardTrial(w, warmup_ns, measure_ns));
        const ShardTrial &t = shard_trials.back();
        std::printf("sharded_netperf/damn w=%u  %7.1f wall-ms  "
                    "(%.3fM ev/s, digest %s)\n",
                    t.workers, t.wallMs, t.eventsPerSec / 1e6,
                    digestHex(t.digest).c_str());
    }
    for (const ShardTrial &t : shard_trials) {
        if (t.digest != shard_trials.front().digest ||
            t.events != shard_trials.front().events) {
            std::fprintf(stderr,
                         "bench_selfperf: shard DETERMINISM "
                         "violation: workers=%u diverged from "
                         "workers=%u\n",
                         t.workers, shard_trials.front().workers);
            return 4;
        }
    }

    using damn::exp::Json;
    Json doc = Json::object();
    doc.set("schema_version", 2);
    doc.set("generator", "bench_selfperf");
    Json eng = Json::object();
    eng.set("events", events);
    eng.set("fast_events_per_sec", fast);
    eng.set("legacy_events_per_sec", legacy);
    eng.set("speedup", fast / legacy);
    doc.set("engine", std::move(eng));
    Json junits = Json::array();
    junits.reserve(units.size());
    for (const UnitResult &u : units) {
        Json ju = Json::object();
        ju.set("name", u.name);
        ju.set("scheme", u.scheme);
        ju.set("sim_ms", u.simMs);
        ju.set("wall_ms", u.wallMs);
        ju.set("wall_ns_per_sim_ms", u.wallNsPerSimMs);
        ju.set("events", u.events);
        ju.set("events_per_sec", u.eventsPerSec);
        junits.push(std::move(ju));
    }
    doc.set("units", std::move(junits));

    Json shard = Json::object();
    shard.set("workload", "sharded_netperf_damn");
    shard.set("shards", std::uint64_t(kShardCount));
    shard.set("digest", digestHex(shard_trials.front().digest));
    Json jtrials = Json::array();
    jtrials.reserve(shard_trials.size());
    for (const ShardTrial &t : shard_trials) {
        Json jt = Json::object();
        jt.set("workers", std::uint64_t(t.workers));
        jt.set("events", t.events);
        jt.set("wall_ms", t.wallMs);
        jt.set("events_per_sec", t.eventsPerSec);
        jtrials.push(std::move(jt));
    }
    shard.set("trials", std::move(jtrials));
    shard.set("speedup_w4",
              shard_trials.front().eventsPerSec > 0.0
                  ? shard_trials.back().eventsPerSec /
                        shard_trials.front().eventsPerSec
                  : 0.0);
    doc.set("shard", std::move(shard));

    const std::string text = doc.dump();
    std::FILE *f = std::fopen(out.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "bench_selfperf: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu bytes)\n", out.c_str(), text.size());
    return 0;
}
