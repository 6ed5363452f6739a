/**
 * @file
 * Host-time benchmark driver: times the DAMN simulator as a program.
 *
 * One invocation runs one workload in closed-loop passes until a time
 * budget is spent, timing a fixed reference kernel between passes, and
 * writes a JSON result file (--out) that perfbench/run.py turns into
 * the benchmark's metrics.
 *
 *   netperf_rx_mtu  28-instance multi-core netperf RX with 1500 B
 *                   segments, every default scheme on VT-d, built with
 *                   work::makeNetperfSystem and run by StreamEngine.
 *   sweep_short     every registered experiment at a 1 ms warmup and
 *                   2 ms measure window through exp::runExperiments on
 *                   2 workers, then exp::reportJson(...).dump().
 *   fuzz_matrix     fuzz::generate + fuzz::runSequence over the four
 *                   protected schemes x both IOMMU backends.
 *
 * Every pass records the simulator's deterministic outputs as entries
 * (key = value unit) and an FNV-1a fingerprint over them; simulated
 * results are checked, never timed.  Only host time is timed.
 *
 * With --trace=1 the driver instead makes one traced pass of every
 * workload (the sweep one experiment at a time), runs direct layer
 * probes, writes the spans of each workload to its own file, and
 * reports per-layer metrics.  Untraced passes record no spans.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "exp/driver.hh"
#include "exp/json.hh"
#include "fuzz/corpus.hh"
#include "fuzz/harness.hh"
#include "workloads/netperf.hh"

namespace {

using namespace damn;
using Clock = std::chrono::steady_clock;
using exp::Json;

// Workload shapes.  Changing any of them changes the fingerprints.
constexpr std::uint32_t kNetperfSegBytes = 1500;
constexpr sim::TimeNs kNetperfWarmupNs = 5 * sim::kNsPerMs;
constexpr sim::TimeNs kNetperfMeasureNs = 50 * sim::kNsPerMs;
constexpr sim::TimeNs kSweepWarmupNs = 1 * sim::kNsPerMs;
constexpr sim::TimeNs kSweepMeasureNs = 2 * sim::kNsPerMs;
constexpr unsigned kSweepJobs = 2;
constexpr unsigned kFuzzOps = 50000;

const char *const kWorkloads[] = {"netperf_rx_mtu", "sweep_short",
                                  "fuzz_matrix"};

const Clock::time_point kEpoch = Clock::now();

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent and workload, kept in memory.
// ---------------------------------------------------------------------

class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    void setWorkload(std::string w) { workload_ = std::move(w); }

    /** Open a span under the innermost open one; -1 when off. */
    int
    open(const std::string &name)
    {
        if (!on_)
            return -1;
        const int id = int(spans_.size());
        spans_.push_back(
            {name, workload_, stack_.empty() ? -1 : stack_.back(), 0, 0});
        stack_.push_back(id);
        return id;
    }

    void
    close(int id, Clock::time_point t0, Clock::time_point t1)
    {
        if (id < 0)
            return;
        spans_[id].startNs = (t0 - kEpoch).count();
        spans_[id].endNs = (t1 - kEpoch).count();
        stack_.pop_back();
    }

    /** Each span's duration minus the durations of its children. */
    std::vector<double>
    selfNs() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = double(spans_[i].endNs - spans_[i].startNs);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[s.parent] -= double(s.endNs - s.startNs);
        return self;
    }

    /** Self time summed per module (the span name up to its first '.'). */
    std::map<std::string, double>
    selfMsByModule() const
    {
        std::map<std::string, double> out;
        const std::vector<double> self = selfNs();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const std::string &n = spans_[i].name;
            out[n.substr(0, n.find('.'))] += self[i] / 1e6;
        }
        return out;
    }

    /** Write the spans of @p workload as JSON; false on I/O error. */
    bool
    write(const std::string &path, const std::string &workload) const
    {
        const std::vector<double> self = selfNs();
        Json arr = Json::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.workload != workload)
                continue;
            Json j = Json::object();
            j.set("id", std::uint64_t(i));
            j.set("name", s.name);
            j.set("parent", std::int64_t(s.parent));
            j.set("workload", s.workload);
            j.set("start_ns", std::int64_t(s.startNs));
            j.set("end_ns", std::int64_t(s.endNs));
            j.set("self_ns", self[i]);
            arr.push(std::move(j));
        }
        Json doc = Json::object();
        doc.set("workload", workload);
        doc.set("spans", std::move(arr));
        std::FILE *f = std::fopen(path.c_str(), "wb");
        if (!f)
            return false;
        const std::string text = doc.dump();
        const bool ok =
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
        return std::fclose(f) == 0 && ok;
    }

  private:
    struct Span
    {
        std::string name;
        std::string workload;
        int parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    bool on_;
    std::string workload_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Run @p f under span @p name; returns its host seconds. */
template <typename F>
double
timed(SpanLog &log, const std::string &name, F &&f)
{
    const int id = log.open(name);
    const Clock::time_point t0 = Clock::now();
    try {
        f();
    } catch (...) {
        log.close(id, t0, Clock::now());
        throw;
    }
    const Clock::time_point t1 = Clock::now();
    log.close(id, t0, t1);
    return seconds(t0, t1);
}

// ---------------------------------------------------------------------
// One pass of a workload
// ---------------------------------------------------------------------

/** Deterministic outputs of a pass: (key, "value unit"), in order. */
using Entries = std::vector<std::pair<std::string, std::string>>;

void
addEntry(Entries &e, std::string key, double v, const std::string &unit)
{
    e.emplace_back(std::move(key), fmtDouble(v) + " " + unit);
}

struct Pass
{
    double wallS = 0.0;   //!< the whole pass
    double setupS = 0.0;  //!< its set-up step
    double workS = 0.0;   //!< the phase that does the workload's work
    double work = 0.0;    //!< units of work done in workS
    double referenceS = 0.0; //!< reference kernel time around the pass
    std::uint64_t attempted = 0;
    std::vector<std::string> failures; //!< one line per failed op
    Entries entries;
    std::map<std::string, double> detail; //!< named host-time figures

    /** FNV-1a over every "key=value\n" entry, in order. */
    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        const auto mix = [&h](const std::string &s) {
            for (const char c : s) {
                h ^= std::uint8_t(c);
                h *= 0x100000001b3ull;
            }
        };
        for (const auto &[k, v] : entries) {
            mix(k);
            mix("=");
            mix(v);
            mix("\n");
        }
        return h;
    }
};

// ---- netperf_rx_mtu --------------------------------------------------

/** Host-side figures of one scheme's netperf run. */
struct SchemeSample
{
    double buildS = 0.0;
    double runS = 0.0;
    double teardownS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t segments = 0;
    std::uint64_t backedFrames = 0;
    std::map<std::string, std::uint64_t> categoryEvents;
    std::map<std::string, std::uint64_t> stats;
};

std::uint64_t
splitmix(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The seed's input to netperf_rx_mtu: the order the schemes run in. */
std::vector<dma::SchemeKind>
schemeOrder(std::uint64_t seed)
{
    std::vector<dma::SchemeKind> order = exp::defaultSchemes();
    std::uint64_t x = seed;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[splitmix(x) % i]);
    return order;
}

Pass
netperfPass(const std::vector<dma::SchemeKind> &order, SpanLog &log,
            std::map<std::string, SchemeSample> *samples)
{
    Pass p;
    std::map<std::string, Entries> perScheme; // emitted in canonical order
    const Clock::time_point t0 = Clock::now();
    for (const dma::SchemeKind k : order) {
        const std::string name = dma::schemeKindName(k);
        work::NetperfOpts o = work::multiCoreOpts(k, work::NetMode::Rx);
        o.segBytes = kNetperfSegBytes;
        o.runWindow = work::RunWindow{kNetperfWarmupNs, kNetperfMeasureNs};
        ++p.attempted;
        SchemeSample s;
        Entries &e = perScheme[name];
        try {
            work::NetperfRun run;
            s.buildS = timed(log, "net.netperf_build." + name,
                             [&] { run = work::makeNetperfSystem(o); });
            net::StreamConfig sc;
            sc.warmupNs = o.runWindow.warmupNs;
            sc.measureNs = o.runWindow.measureNs;
            sc.costFactor = o.costFactor;
            auto eng = std::make_unique<net::StreamEngine>(
                *run.sys, *run.nic, *run.stack, sc);
            work::addNetperfFlows(run, *eng, o);
            s.runS = timed(log, "sim.stream_run." + name,
                           [&] { run.res = eng->run(); });

            sim::Context &ctx = run.sys->ctx;
            s.events = ctx.engine.dispatched();
            s.backedFrames = run.sys->phys.backedFrames();
            s.stats = ctx.stats.snapshot();
            for (const net::FlowResult &f : run.res.flows)
                s.segments += f.segments;
            const sim::TraceBundle tb =
                ctx.tracer.bundle(ctx.machine, ctx.cost.cpuGhz);
            for (const sim::TraceBundle::Category &c : tb.categories)
                s.categoryEvents[c.name] = c.events;

            const work::CommonResult c =
                work::toCommon(run.res, o.runWindow);
            addEntry(e, name + "/gbps", c.gbps, "Gb/s");
            addEntry(e, name + "/cpu_pct", c.cpuPct, "%");
            addEntry(e, name + "/mem_gbps", c.memGBps, "GB/s");
            addEntry(e, name + "/ops_per_sec", c.opsPerSec, "ops/s");
            addEntry(e, name + "/coverage_pct", tb.coveragePct(), "%");
            addEntry(e, name + "/events", double(s.events), "count");
            addEntry(e, name + "/segments", double(s.segments), "count");
            addEntry(e, name + "/drops", double(run.res.drops), "count");
            for (const auto &[key, v] : s.stats)
                addEntry(e, name + "/stats/" + key, double(v), "count");
            if (tb.coveragePct() != 100.0)
                p.failures.push_back(name + ": coverage_pct " +
                                     fmtDouble(tb.coveragePct()));
            else if (run.res.failedFlows != 0 || run.res.drops != 0)
                p.failures.push_back(name + ": dropped segments");

            // Same order as runNetperf: the engine goes first, then the
            // machine in reverse construction order.
            s.teardownS = timed(log, "net.teardown." + name, [&] {
                eng.reset();
                run.stack.reset();
                run.nic.reset();
                run.sys.reset();
            });
        } catch (const std::exception &ex) {
            p.failures.push_back(name + ": threw: " + ex.what());
        }
        p.setupS += s.buildS;
        p.workS += s.runS;
        p.work += double(s.events);
        if (s.runS > 0.0)
            p.detail["events_per_s." + name] = double(s.events) / s.runS;
        if (samples)
            (*samples)[name] = s;
    }
    p.wallS = seconds(t0, Clock::now());
    for (const dma::SchemeKind k : exp::defaultSchemes()) {
        const Entries &e = perScheme[dma::schemeKindName(k)];
        p.entries.insert(p.entries.end(), e.begin(), e.end());
    }
    return p;
}

// ---- sweep_short -----------------------------------------------------

exp::DriverOptions
sweepOptions(std::uint64_t seed)
{
    exp::DriverOptions o;
    o.warmupNs = kSweepWarmupNs;
    o.measureNs = kSweepMeasureNs;
    o.seed = seed;
    o.jobs = kSweepJobs;
    return o;
}

double
metricOf(const exp::Run &r, const std::string &name)
{
    for (const exp::Metric &m : r.metrics)
        if (m.name == name)
            return m.value;
    return 0.0;
}

/** Entries and per-run checks of a finished sweep report. */
void
checkSweep(const exp::Report &rep, Pass &p)
{
    for (const exp::ExperimentResult &er : rep.experiments) {
        const std::string &exp_name = er.exp->name;
        for (std::size_t i = 0; i < er.runs.size(); ++i) {
            const exp::Run &r = er.runs[i];
            ++p.attempted;
            std::string key = exp_name + "#" + std::to_string(i) + "/" +
                r.scheme;
            for (const auto &[pk, pv] : r.params)
                key += "/" + pk + "=" + pv;
            for (const exp::Metric &m : r.metrics)
                addEntry(p.entries, key + "/" + m.name, m.value, m.unit);

            std::string why;
            if (r.trace.hasData() && r.trace.coveragePct() != 100.0)
                why = "coverage_pct " + fmtDouble(r.trace.coveragePct());
            if (exp_name == "chaos_soak" &&
                (metricOf(r, "hangs") != 0.0 ||
                 metricOf(r, "audit_violations") != 0.0))
                why = "hangs or audit violations";
            if (exp_name == "pressure_storm" &&
                metricOf(r, "watchdog_stalls") != 0.0)
                why = "watchdog stalls";
            if (!why.empty())
                p.failures.push_back(key + ": " + why);
        }
    }
    p.work = double(p.attempted);
}

/** Set-up probe of sweep_short: build the machine every cell starts
 *  from, once per default scheme (cells build theirs inside
 *  runExperiments, where they cannot be timed apart). */
double
buildDefaultMachines(SpanLog &log)
{
    double s = 0.0;
    for (const dma::SchemeKind k : exp::defaultSchemes()) {
        work::NetperfRun run;
        s += timed(log,
                   std::string("net.netperf_build.") +
                       dma::schemeKindName(k),
                   [&] {
                       run = work::makeNetperfSystem(
                           work::multiCoreOpts(k, work::NetMode::Rx));
                   });
        run.stack.reset();
        run.nic.reset();
        run.sys.reset();
    }
    return s;
}

Pass
sweepPass(std::uint64_t seed, SpanLog &log)
{
    Pass p;
    p.setupS = buildDefaultMachines(log);
    const Clock::time_point t0 = Clock::now();
    exp::Report rep;
    try {
        p.workS = timed(log, "exp.run_experiments", [&] {
            rep = exp::runExperiments(sweepOptions(seed));
        });
    } catch (const std::exception &ex) {
        ++p.attempted;
        p.failures.push_back(std::string("sweep threw: ") + ex.what());
    }
    std::string text;
    p.detail["report_s"] = timed(
        log, "exp.report", [&] { text = exp::reportJson(rep).dump(); });
    p.wallS = seconds(t0, Clock::now());
    checkSweep(rep, p);
    return p;
}

/** The traced form: one experiment at a time on one worker, so each
 *  gets its own span.  Produces the same runs as sweepPass. */
Pass
sweepSerialPass(std::uint64_t seed, SpanLog &log,
                std::map<std::string, double> *expWallS,
                double *reportS)
{
    Pass p;
    p.setupS = buildDefaultMachines(log);
    const Clock::time_point t0 = Clock::now();
    exp::DriverOptions o = sweepOptions(seed);
    o.jobs = 1;
    exp::Report rep;
    rep.opts = o;
    for (const exp::Experiment *e : exp::allExperiments()) {
        o.only = e->name;
        double s = 0.0;
        try {
            s = timed(log, "exp.run." + e->name, [&] {
                exp::Report one = exp::runExperiments(o);
                for (exp::ExperimentResult &er : one.experiments)
                    rep.experiments.push_back(std::move(er));
            });
        } catch (const std::exception &ex) {
            ++p.attempted;
            p.failures.push_back(e->name + " threw: " + ex.what());
        }
        p.workS += s;
        if (expWallS)
            (*expWallS)[e->name] = s;
    }
    std::string text;
    const double r = timed(
        log, "exp.report", [&] { text = exp::reportJson(rep).dump(); });
    if (reportS)
        *reportS = r;
    p.detail["report_s"] = r;
    p.wallS = seconds(t0, Clock::now());
    checkSweep(rep, p);
    return p;
}

// ---- fuzz_matrix -----------------------------------------------------

struct FuzzTotals
{
    std::map<std::string, double> generateS;
    std::map<std::string, double> runS;
    std::uint64_t ops = 0;
    std::uint64_t faults = 0;
};

Pass
fuzzPass(std::uint64_t seed, SpanLog &log, FuzzTotals *totals)
{
    Pass p;
    const Clock::time_point t0 = Clock::now();
    for (const dma::SchemeKind s : fuzz::fuzzSchemes()) {
        for (const iommu::BackendKind b : fuzz::fuzzBackends()) {
            const std::string cell = std::string(dma::schemeKindName(s)) +
                "." + iommu::backendKindName(b);
            fuzz::FuzzConfig cfg;
            cfg.scheme = s;
            cfg.backend = b;
            cfg.seed = seed;
            cfg.ops = kFuzzOps;
            ++p.attempted;
            try {
                fuzz::Sequence seq;
                const double g = timed(log, "fuzz.generate." + cell,
                                       [&] { seq = fuzz::generate(cfg); });
                fuzz::FuzzResult r;
                const double x = timed(log, "fuzz.run." + cell, [&] {
                    r = fuzz::runSequence(cfg, seq);
                });
                p.setupS += g;
                p.workS += x;
                p.work += double(r.opsExecuted);
                char v[160];
                std::snprintf(v, sizeof v,
                              "digest=%016llx verdict=%s ops=%zu "
                              "faults=%llu stalls=%llu",
                              (unsigned long long)r.digest,
                              fuzz::verdictOf(r).c_str(), r.opsExecuted,
                              (unsigned long long)r.faults,
                              (unsigned long long)r.watchdogStalls);
                p.entries.emplace_back(cell, v);
                if (r.violated)
                    p.failures.push_back(
                        cell + ": " + r.violation.oracle + " at op " +
                        std::to_string(r.violation.opIndex) + ": " +
                        r.violation.detail);
                if (totals) {
                    totals->generateS[cell] = g;
                    totals->runS[cell] = x;
                    totals->ops += r.opsExecuted;
                    totals->faults += r.faults;
                }
            } catch (const std::exception &ex) {
                p.failures.push_back(cell + ": threw: " + ex.what());
            }
        }
    }
    p.wallS = seconds(t0, Clock::now());
    if (p.workS > 0.0)
        p.detail["fuzz_ops_per_s"] = p.work / p.workS;
    return p;
}

// ---------------------------------------------------------------------
// Layer probes (traced run only)
// ---------------------------------------------------------------------

/** Median of @p trials timings of @p f, each in host ns / @p per. */
double
probeNs(unsigned trials, double per, const std::function<void()> &f)
{
    std::vector<double> v;
    for (unsigned i = 0; i < trials; ++i) {
        const Clock::time_point t0 = Clock::now();
        f();
        v.push_back(double((Clock::now() - t0).count()) / per);
    }
    return median(v);
}

/** Self-rescheduling timers: the engine's schedule+dispatch cost. */
struct Tick
{
    sim::Engine *eng;
    std::uint64_t *left;
    std::uint64_t *rng;

    void
    operator()() const
    {
        if (*left == 0)
            return;
        --*left;
        eng->scheduleIn(1 + sim::TimeNs(splitmix(*rng) % 997), *this);
    }
};

double
engineDispatchNs()
{
    constexpr std::uint64_t kEvents = 500000;
    std::vector<double> v;
    for (unsigned trial = 0; trial < 5; ++trial) {
        sim::Engine eng;
        std::uint64_t left = kEvents;
        std::uint64_t rng = 0x2545F4914F6CDD1Dull;
        for (unsigned i = 0; i < 64; ++i)
            eng.schedule(1 + i, Tick{&eng, &left, &rng});
        const Clock::time_point t0 = Clock::now();
        eng.runAll();
        v.push_back(double((Clock::now() - t0).count()) /
                    double(eng.dispatched()));
    }
    return median(v);
}

net::SystemParams
probeParams(dma::SchemeKind k, iommu::BackendKind b)
{
    net::SystemParams p;
    p.scheme = k;
    p.backend = b;
    return p;
}

/** DmaApi::map + unmap of one 1500 B RX buffer, ns per pair. */
double
mapUnmapNs(dma::SchemeKind k, iommu::BackendKind b,
           std::vector<std::string> *failures)
{
    constexpr unsigned kPairs = 20000;
    net::System sys(probeParams(k, b));
    dma::Device dev(sys.ctx, "probe0", sys.mmu, sys.phys);
    sim::CpuCursor cpu(sys.ctx.machine.core(0), sys.ctx.now());
    const mem::Pa buf = sys.damnMode()
        ? sys.damn->damnAlloc(cpu, &dev, core::Rights::Write,
                              kNetperfSegBytes)
        : sys.heap.kmalloc(kNetperfSegBytes);
    bool failed = buf == 0;
    const double ns = probeNs(5, kPairs, [&] {
        for (unsigned i = 0; i < kPairs && !failed; ++i) {
            const iommu::Iova a = sys.dmaApi->map(
                cpu, dev, buf, kNetperfSegBytes, dma::Dir::FromDevice);
            if (a == dma::kMapFailed) {
                failed = true;
                return;
            }
            sys.dmaApi->unmap(cpu, dev, a, kNetperfSegBytes,
                              dma::Dir::FromDevice);
        }
    });
    if (failed)
        failures->push_back(std::string("probe map failed: ") +
                            dma::schemeKindName(k) + "." +
                            iommu::backendKindName(b));
    return ns;
}

/** Device::dmaWrite of 1500 B through a live strict mapping. */
double
translateNs(iommu::BackendKind b, std::vector<std::string> *failures)
{
    constexpr unsigned kWrites = 20000;
    net::System sys(probeParams(dma::SchemeKind::Strict, b));
    dma::Device dev(sys.ctx, "probe0", sys.mmu, sys.phys);
    sim::CpuCursor cpu(sys.ctx.machine.core(0), sys.ctx.now());
    const mem::Pa buf = sys.heap.kmalloc(kNetperfSegBytes);
    const iommu::Iova a = buf == 0
        ? dma::kMapFailed
        : sys.dmaApi->map(cpu, dev, buf, kNetperfSegBytes,
                          dma::Dir::FromDevice);
    std::vector<std::uint8_t> wire(kNetperfSegBytes, 0x5a);
    bool ok = a != dma::kMapFailed;
    const double ns = probeNs(5, kWrites, [&] {
        for (unsigned i = 0; i < kWrites && ok; ++i)
            ok = dev.dmaWrite(cpu.time, a, wire.data(), wire.size()).ok;
    });
    if (!ok)
        failures->push_back(std::string("probe dmaWrite failed: ") +
                            iommu::backendKindName(b));
    return ns;
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

Json
passJson(const Pass &p)
{
    Json j = Json::object();
    j.set("wall_s", p.wallS);
    j.set("setup_s", p.setupS);
    j.set("work_s", p.workS);
    j.set("work", p.work);
    j.set("reference_s", p.referenceS);
    j.set("attempted", p.attempted);
    Json f = Json::array();
    for (const std::string &s : p.failures)
        f.push(s);
    j.set("failures", std::move(f));
    j.set("fingerprint", hex64(p.fingerprint()));
    Json d = Json::object();
    for (const auto &[k, v] : p.detail)
        d.set(k, v);
    j.set("detail", std::move(d));
    return j;
}

/** Passes of one workload plus the entries of its first pass. */
Json
workloadJson(const std::vector<Pass> &passes)
{
    Json j = Json::object();
    Json arr = Json::array();
    for (const Pass &p : passes)
        arr.push(passJson(p));
    j.set("passes", std::move(arr));
    Json e = Json::object();
    if (!passes.empty())
        for (const auto &[k, v] : passes.front().entries)
            e.set(k, v);
    j.set("entries", std::move(e));
    return j;
}

void
processUsage(Json &doc)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cpu = double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    doc.set("peak_rss_mb", double(ru.ru_maxrss) / 1024.0);
    doc.set("cpu_s", cpu);
    doc.set("elapsed_s", seconds(kEpoch, Clock::now()));
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string spanDir = ".";
};

using PassFn = std::function<Pass(SpanLog &)>;

/**
 * Machine-speed reference: a fixed kernel of the simulator's kind of
 * host work (a timer heap and random read-modify-writes of a 4 MiB
 * table) that shares no code with the simulator and allocates nothing
 * while timed, so the process's heap state cannot move it.  On a shared
 * host the speed of the machine drifts by tens of percent over minutes;
 * timing this next to every pass lets run.py state each pass at a fixed
 * reference speed, which cancels most of that drift.
 */
double
referenceKernelS()
{
    using Timer = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<>> heap;
    for (std::uint32_t i = 0; i < 64; ++i)
        heap.push({i, i});
    std::vector<std::uint64_t> table(1u << 19);
    std::uint64_t x = 1;
    std::uint64_t acc = 0;
    const Clock::time_point t0 = Clock::now();
    for (unsigned i = 0; i < 400000; ++i) {
        const Timer t = heap.top();
        heap.pop();
        const std::uint64_t r = splitmix(x);
        heap.push({t.first + 1 + r % 997, t.second});
        table[r & (table.size() - 1)] += t.first;
        acc += table[(r >> 24) & (table.size() - 1)];
    }
    const double s = seconds(t0, Clock::now());
    static std::atomic<std::uint64_t> sink; // keeps the loop observable
    sink.store(acc, std::memory_order_relaxed);
    return s;
}

/** The reference kernel on @p threads threads at once (as many as the
 *  workload keeps busy); their mean time. */
double
referenceS(unsigned threads)
{
    std::vector<double> s(threads);
    std::vector<std::thread> pool;
    for (unsigned i = 1; i < threads; ++i)
        pool.emplace_back([&s, i] { s[i] = referenceKernelS(); });
    s[0] = referenceKernelS();
    for (std::thread &t : pool)
        t.join();
    double sum = 0.0;
    for (const double v : s)
        sum += v;
    return sum / threads;
}

/** Closed-loop passes until @p budget host seconds are spent, with the
 *  reference kernel run between passes; each pass's reference is the
 *  mean of the runs just before and just after it. */
std::vector<Pass>
runPasses(const PassFn &pass, double budget, unsigned threads)
{
    SpanLog off(false);
    std::vector<Pass> passes;
    const Clock::time_point t0 = Clock::now();
    double before = referenceS(threads);
    do {
        passes.push_back(pass(off));
        const double after = referenceS(threads);
        passes.back().referenceS = 0.5 * (before + after);
        before = after;
    } while (seconds(t0, Clock::now()) < budget);
    return passes;
}

PassFn
untracedPass(const Options &opt)
{
    if (opt.workload == "netperf_rx_mtu") {
        const std::vector<dma::SchemeKind> order = schemeOrder(opt.seed);
        return [order](SpanLog &log) {
            return netperfPass(order, log, nullptr);
        };
    }
    if (opt.workload == "sweep_short")
        return [seed = opt.seed](SpanLog &log) {
            return sweepPass(seed, log);
        };
    return [seed = opt.seed](SpanLog &log) {
        return fuzzPass(seed, log, nullptr);
    };
}

/**
 * The traced run: probes, then one traced pass of every workload, then
 * the named workload's traced form again with spans off, whose wall
 * time against the traced pass is the tracing overhead.
 */
Json
tracedRun(const Options &opt, Json &workloads)
{
    SpanLog log(true);
    std::map<std::string, double> m;
    std::vector<std::string> probeFailures;
    const std::vector<dma::SchemeKind> schemes = exp::defaultSchemes();

    log.setWorkload("probes");
    timed(log, "bench.probes", [&] {
        timed(log, "sim.engine_dispatch",
              [&] { m["sim.engine_dispatch_ns"] = engineDispatchNs(); });
        timed(log, "mem.physmem_build", [&] {
            m["mem.physmem_build_ms"] = probeNs(5, 1e6, [] {
                mem::PhysicalMemory pm(net::SystemParams{}.physBytes);
            });
        });
        for (const dma::SchemeKind k : schemes) {
            const std::string n = dma::schemeKindName(k);
            timed(log, "net.system_build." + n, [&] {
                m["net.system_build_ms." + n] = probeNs(3, 1e6, [&] {
                    net::System sys(probeParams(k, iommu::BackendKind::Vtd));
                });
            });
        }
        for (const dma::SchemeKind k : schemes)
            for (const iommu::BackendKind b : fuzz::fuzzBackends()) {
                const std::string n = std::string(dma::schemeKindName(k)) +
                    "." + iommu::backendKindName(b);
                timed(log, "dma.map_unmap." + n, [&] {
                    m["dma.map_unmap_ns." + n] =
                        mapUnmapNs(k, b, &probeFailures);
                });
            }
        for (const iommu::BackendKind b : fuzz::fuzzBackends()) {
            const std::string n = iommu::backendKindName(b);
            timed(log, "iommu.translate." + n, [&] {
                m["iommu.translate_ns." + n] = translateNs(b, &probeFailures);
            });
        }
    });

    const std::vector<dma::SchemeKind> order = schemeOrder(opt.seed);
    std::map<std::string, SchemeSample> np;
    std::map<std::string, double> expWall;
    double reportS = 0.0;
    FuzzTotals fz;
    // The traced form of workload @p w; @p collect keeps its per-layer
    // figures (only the traced pass does).
    const auto form = [&](const std::string &w, SpanLog &l, bool collect) {
        if (w == "netperf_rx_mtu")
            return netperfPass(order, l, collect ? &np : nullptr);
        if (w == "sweep_short")
            return sweepSerialPass(opt.seed, l,
                                   collect ? &expWall : nullptr,
                                   collect ? &reportS : nullptr);
        return fuzzPass(opt.seed, l, collect ? &fz : nullptr);
    };

    std::map<std::string, std::vector<Pass>> passes;
    double tracedWall = 0.0;
    for (const char *w : kWorkloads) {
        log.setWorkload(w);
        Pass p;
        const double s = timed(log, std::string("bench.") + w,
                               [&] { p = form(w, log, true); });
        if (opt.workload == w)
            tracedWall = s;
        passes[w].push_back(std::move(p));
    }
    SpanLog off(false);
    const Clock::time_point u0 = Clock::now();
    passes[opt.workload].push_back(form(opt.workload, off, false));
    const double untracedWall = seconds(u0, Clock::now());
    m["trace.overhead_pct"] =
        100.0 * (tracedWall - untracedWall) / untracedWall;

    for (const dma::SchemeKind k : schemes) {
        const std::string n = dma::schemeKindName(k);
        const SchemeSample &s = np[n];
        const auto cat = [&s](const char *c) {
            const auto it = s.categoryEvents.find(c);
            return it == s.categoryEvents.end() ? 0.0 : double(it->second);
        };
        m["sim.events." + n] = double(s.events);
        m["sim.host_ns_per_event." + n] =
            s.events ? s.runS * 1e9 / double(s.events) : 0.0;
        m["mem.backed_frames." + n] = double(s.backedFrames);
        m["net.netperf_build_ms." + n] = s.buildS * 1e3;
        m["net.teardown_ms." + n] = s.teardownS * 1e3;
        m["net.segments." + n] = double(s.segments);
        m["dma.map." + n] = cat("dma.map");
        m["dma.unmap." + n] = cat("dma.unmap");
        m["iommu.inval." + n] = cat("iommu.inval");
        m["iommu.iotlb_lookups." + n] = cat("iommu.iotlb");
    }
    const auto stat = [&np](const char *k) {
        const std::map<std::string, std::uint64_t> &st = np["damn"].stats;
        const auto it = st.find(k);
        return it == st.end() ? 0.0 : double(it->second);
    };
    m["core.damn_allocs"] = stat("damn.allocs");
    m["core.damn_map_hit_ratio"] = stat("damn.allocs") > 0.0
        ? stat("damn.map_hits") / stat("damn.allocs")
        : 0.0;
    m["core.damn_chunks_recycled"] = stat("damn.chunks_recycled");
    for (const auto &[e, s] : expWall)
        m["exp." + e + ".wall_s"] = s;
    m["exp.report_ms"] = reportS * 1e3;
    for (const auto &[cell, s] : fz.generateS)
        m["fuzz.generate_ms." + cell] = s * 1e3;
    for (const auto &[cell, s] : fz.runS)
        m["fuzz.run_ms." + cell] = s * 1e3;
    m["fuzz.ops_executed"] = double(fz.ops);
    m["fuzz.faults"] = double(fz.faults);
    for (const auto &[mod, ms] : log.selfMsByModule())
        m[mod + ".self_ms"] = ms;

    for (const char *w : {"probes", "netperf_rx_mtu", "sweep_short",
                          "fuzz_matrix"})
        if (!log.write(opt.spanDir + "/spans-" + w + ".json", w))
            probeFailures.push_back(std::string("cannot write spans of ") +
                                    w);
    for (const char *w : kWorkloads)
        workloads.set(w, workloadJson(passes[w]));
    Json pl = Json::object();
    for (const auto &[k, v] : m)
        pl.set(k, v);
    if (!probeFailures.empty()) {
        Pass fail;
        fail.attempted = probeFailures.size();
        fail.failures = probeFailures;
        workloads.set("probes", workloadJson({fail}));
    }
    return pl;
}

const char kUsage[] =
    "usage: perfbench_driver --workload=NAME --out=PATH [--seed=N]\n"
    "                        [--seconds=S] [--trace=0|1] [--span-dir=DIR]\n"
    "workloads: netperf_rx_mtu sweep_short fuzz_matrix\n";

bool
parseArgs(int argc, char **argv, Options *o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const std::size_t eq = a.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string k = a.substr(0, eq);
        const std::string v = a.substr(eq + 1);
        char *end = nullptr;
        if (k == "--workload") {
            o->workload = v;
        } else if (k == "--out") {
            o->out = v;
        } else if (k == "--span-dir") {
            o->spanDir = v;
        } else if (k == "--seed") {
            o->seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                return false;
        } else if (k == "--seconds") {
            o->seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o->seconds >= 0.0))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o->trace = v == "1";
        } else {
            return false;
        }
    }
    const bool known = std::any_of(
        std::begin(kWorkloads), std::end(kWorkloads),
        [o](const char *w) { return o->workload == w; });
    return known && !o->out.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    Json doc = Json::object();
    doc.set("workload", opt.workload);
    doc.set("seed", opt.seed);
    doc.set("trace", opt.trace);
    Json workloads = Json::object();
    if (opt.trace) {
        doc.set("per_layer", tracedRun(opt, workloads));
    } else {
        // The sweep keeps its worker pool busy; the others one thread.
        const unsigned threads =
            opt.workload == "sweep_short" ? kSweepJobs : 1;
        workloads.set(opt.workload,
                      workloadJson(runPasses(untracedPass(opt),
                                             opt.seconds, threads)));
    }
    doc.set("workloads", std::move(workloads));
    processUsage(doc);

    std::FILE *f = std::fopen(opt.out.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     opt.out.c_str());
        return 1;
    }
    const std::string text = doc.dump();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "perfbench_driver: short write to %s\n",
                     opt.out.c_str());
        return 1;
    }
    return 0;
}
