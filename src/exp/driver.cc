/**
 * @file
 * damn_bench driver implementation.
 */

#include "exp/driver.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>
#include <thread>

#include "sim/parallel.hh"

namespace damn::exp {

namespace {

const char kUsage[] =
    "usage: damn_bench [options]\n"
    "\n"
    "Runs the paper's evaluation experiments through one driver and\n"
    "reports every metric through a uniform schema.\n"
    "\n"
    "  --list             list registered experiments and exit\n"
    "  --only=GLOB        run only experiments whose name matches GLOB\n"
    "                     (shell-style * and ?, e.g. --only='fig4*')\n"
    "  --schemes=a,b,...  restrict the scheme axis (names as printed:\n"
    "                     iommu-off, deferred, strict, shadow, damn);\n"
    "                     each experiment runs the selected schemes it\n"
    "                     supports, in its own order\n"
    "  --backend=a,b,...  set the IOMMU backend axis (vtd, smmuv3);\n"
    "                     default: each experiment's native axis\n"
    "  --jobs=N           run (experiment, rep) units on N worker\n"
    "                     threads (default: one per hardware thread;\n"
    "                     results are byte-identical for any N)\n"
    "  --repeat=N         run each experiment N times, varying the seed\n"
    "                     (rows gain a rep=<i> parameter)\n"
    "  --warmup-ms=N      override every experiment's warmup window\n"
    "  --measure-ms=N     override every experiment's measure window\n"
    "  --seed=N           base seed for stochastic experiments (42)\n"
    "  --json=PATH        also write results as JSON (schema v2,\n"
    "                     documented in EXPERIMENTS.md; deterministic)\n"
    "  --trace=PATH       record trace events and write a Chrome\n"
    "                     trace-event JSON (chrome://tracing /\n"
    "                     Perfetto; deterministic per seed)\n"
    "  --help             this text\n";

bool
parseU64(const std::string &text, std::uint64_t *out)
{
    if (text.empty())
        return false;
    const auto res = std::from_chars(text.data(),
                                     text.data() + text.size(), *out);
    return res.ec == std::errc() &&
        res.ptr == text.data() + text.size();
}

/** parseU64 that also rejects values outside [@p lo, @p hi]. */
bool
parseU64In(const std::string &text, std::uint64_t lo, std::uint64_t hi,
           std::uint64_t *out)
{
    return parseU64(text, out) && *out >= lo && *out <= hi;
}

/** Largest --jobs / --repeat value: they are held as unsigned. */
constexpr std::uint64_t kMaxCount = std::numeric_limits<unsigned>::max();

/** Largest --warmup-ms / --measure-ms value: both windows in ns must
 *  fit one TimeNs together. */
constexpr std::uint64_t kMaxWindowMs =
    std::numeric_limits<sim::TimeNs>::max() / 2 / sim::kNsPerMs;

/** Split "--key=value" arguments; value empty for bare flags. */
bool
splitArg(const std::string &arg, std::string *key, std::string *value)
{
    if (arg.rfind("--", 0) != 0)
        return false;
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
        *key = arg.substr(2);
        value->clear();
    } else {
        *key = arg.substr(2, eq - 2);
        *value = arg.substr(eq + 1);
    }
    return true;
}

std::string
paramsLabel(const Run &run)
{
    std::string out;
    for (const auto &[k, v] : run.params) {
        if (!out.empty())
            out += ' ';
        out += k + "=" + v;
    }
    return out;
}

} // namespace

bool
parseArgs(int argc, const char *const *argv, DriverOptions *opts,
          std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string key, value;
        if (!splitArg(arg, &key, &value)) {
            *err = "unrecognized argument: " + arg;
            return false;
        }
        std::uint64_t n = 0;
        if (key == "list") {
            opts->list = true;
        } else if (key == "help") {
            opts->help = true;
        } else if (key == "only") {
            opts->only = value;
        } else if (key == "schemes") {
            std::vector<dma::SchemeKind> selected;
            for (const std::string &name : dma::splitNameList(value)) {
                dma::SchemeKind k;
                if (!dma::schemeFromName(name, &k)) {
                    *err = "unknown scheme: '" + name + "'";
                    return false;
                }
                if (std::ranges::find(selected, k) != selected.end()) {
                    *err = "scheme given twice: '" + name + "'";
                    return false;
                }
                selected.push_back(k);
            }
            opts->schemes = std::move(selected);
        } else if (key == "backend") {
            std::vector<iommu::BackendKind> selected;
            for (const std::string &name : dma::splitNameList(value)) {
                iommu::BackendKind k;
                if (!iommu::backendFromName(name, &k)) {
                    *err = "unknown backend: '" + name + "'";
                    return false;
                }
                if (std::ranges::find(selected, k) != selected.end()) {
                    *err = "backend given twice: '" + name + "'";
                    return false;
                }
                selected.push_back(k);
            }
            opts->backends = std::move(selected);
        } else if (key == "jobs") {
            if (!parseU64In(value, 1, kMaxCount, &n)) {
                *err = "--jobs needs an integer in [1, " +
                    std::to_string(kMaxCount) + "]";
                return false;
            }
            opts->jobs = unsigned(n);
        } else if (key == "repeat") {
            if (!parseU64In(value, 1, kMaxCount, &n)) {
                *err = "--repeat needs an integer in [1, " +
                    std::to_string(kMaxCount) + "]";
                return false;
            }
            opts->repeat = unsigned(n);
        } else if (key == "warmup-ms") {
            if (!parseU64In(value, 0, kMaxWindowMs, &n)) {
                *err = "--warmup-ms needs an integer in [0, " +
                    std::to_string(kMaxWindowMs) + "]";
                return false;
            }
            opts->warmupNs = n * sim::kNsPerMs;
        } else if (key == "measure-ms") {
            if (!parseU64In(value, 1, kMaxWindowMs, &n)) {
                *err = "--measure-ms needs an integer in [1, " +
                    std::to_string(kMaxWindowMs) + "]";
                return false;
            }
            opts->measureNs = n * sim::kNsPerMs;
        } else if (key == "seed") {
            if (!parseU64(value, &n)) {
                *err = "--seed needs an integer";
                return false;
            }
            opts->seed = n;
        } else if (key == "json") {
            if (value.empty()) {
                *err = "--json needs a path";
                return false;
            }
            opts->jsonPath = value;
        } else if (key == "trace") {
            if (value.empty()) {
                *err = "--trace needs a path";
                return false;
            }
            opts->tracePath = value;
        } else {
            *err = "unknown option: --" + key;
            return false;
        }
    }
    return true;
}

std::vector<const Experiment *>
selectExperiments(const DriverOptions &opts)
{
    std::vector<const Experiment *> out;
    for (const Experiment *e : allExperiments())
        if (opts.only.empty() || globMatch(opts.only, e->name))
            out.push_back(e);
    return out;
}

namespace {

/**
 * True when @p axis is the baseline {vtd}.  Output stays
 * byte-compatible with pre-backend versions: runs carry a "backend"
 * param, and the report header a "backends" key, only when their axis
 * is anything else.
 */
bool
isVtdOnly(const std::vector<iommu::BackendKind> &axis)
{
    return axis.size() == 1 && axis[0] == iommu::BackendKind::Vtd;
}

/**
 * Execute one (experiment, rep) unit on a private simulated machine:
 * the run function once per backend of the effective axis (--backend,
 * else the experiment's native list), over the experiment's native
 * schemes that --schemes selects (none: no call).  Thread-confined by
 * construction: every piece of mutable simulation state (Engine,
 * Machine, Stats, Tracer, FaultInjector, RNG streams) lives in
 * Contexts the experiment's run function creates itself; the only
 * cross-thread data are the read-only registry/options and this
 * unit's own result vector.
 */
std::vector<Run>
runUnit(const DriverOptions &opts, const Experiment &e, unsigned rep)
{
    std::vector<dma::SchemeKind> schemes;
    for (const dma::SchemeKind k : e.schemes)
        if (std::ranges::find(opts.schemes, k) != opts.schemes.end())
            schemes.push_back(k);
    if (schemes.empty())
        return {};
    const std::vector<iommu::BackendKind> &axis =
        opts.backends.empty() ? e.backends : opts.backends;
    const bool label_backend = !isVtdOnly(axis);
    const work::RunWindow window{
        opts.warmupNs ? opts.warmupNs : e.defaultWindow.warmupNs,
        opts.measureNs ? opts.measureNs : e.defaultWindow.measureNs,
    };
    Collector out;
    std::vector<Run> runs;
    for (const iommu::BackendKind bk : axis) {
        RunCtx ctx{e, window, schemes, opts.seed + rep, out,
                   {.backend = bk, .recordTrace = !opts.tracePath.empty()}};
        e.run(ctx);
        for (Run &run : out.take()) {
            if (label_backend)
                run.params.insert(run.params.begin(),
                                  {"backend", iommu::backendKindName(bk)});
            if (opts.repeat > 1)
                run.params.insert(run.params.begin(),
                                  {"rep", std::to_string(rep)});
            runs.push_back(std::move(run));
        }
    }
    return runs;
}

} // namespace

unsigned
effectiveJobs(const DriverOptions &opts)
{
    if (opts.jobs != 0)
        return opts.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

Report
runExperiments(const DriverOptions &opts)
{
    Report report;
    report.opts = opts;
    const std::vector<const Experiment *> selected =
        selectExperiments(opts);

    // The work queue: every (experiment, rep) pair, experiment-major
    // in registration order.  Results land in a slot per unit, so the
    // merge below reads them back in exactly the serial order no
    // matter which worker finished which unit when.
    struct Unit
    {
        const Experiment *exp;
        unsigned rep;
    };
    std::vector<Unit> units;
    units.reserve(selected.size() * opts.repeat);
    for (const Experiment *e : selected)
        for (unsigned rep = 0; rep < opts.repeat; ++rep)
            units.push_back({e, rep});

    std::vector<std::vector<Run>> results(units.size());
    sim::parallelFor(units.size(), effectiveJobs(opts), [&](std::size_t i) {
        results[i] = runUnit(opts, *units[i].exp, units[i].rep);
    });

    report.experiments.reserve(selected.size());
    std::size_t unit = 0;
    for (const Experiment *e : selected) {
        ExperimentResult res;
        res.exp = e;
        std::size_t total = 0;
        for (unsigned rep = 0; rep < opts.repeat; ++rep)
            total += results[unit + rep].size();
        res.runs.reserve(total);
        for (unsigned rep = 0; rep < opts.repeat; ++rep, ++unit)
            for (Run &run : results[unit])
                res.runs.push_back(std::move(run));
        report.experiments.push_back(std::move(res));
    }
    return report;
}

Json
reportJson(const Report &report)
{
    Json doc = Json::object();
    doc.set("schema_version", kJsonSchemaVersion);
    doc.set("generator", "damn_bench");
    doc.set("seed", report.opts.seed);
    doc.set("repeat", std::uint64_t(report.opts.repeat));
    Json schemes = Json::array();
    for (const dma::SchemeKind k : report.opts.schemes)
        schemes.push(dma::schemeKindName(k));
    doc.set("schemes", std::move(schemes));
    // Backward-compatible v2 extension: an explicit --backend axis
    // appears in the header unless it is the baseline {vtd}.
    if (!report.opts.backends.empty() &&
        !isVtdOnly(report.opts.backends)) {
        Json backends = Json::array();
        for (const iommu::BackendKind k : report.opts.backends)
            backends.push(iommu::backendKindName(k));
        doc.set("backends", std::move(backends));
    }
    doc.set("warmup_ms_override",
            std::uint64_t(report.opts.warmupNs / sim::kNsPerMs));
    doc.set("measure_ms_override",
            std::uint64_t(report.opts.measureNs / sim::kNsPerMs));

    Json experiments = Json::array();
    experiments.reserve(report.experiments.size());
    for (const ExperimentResult &er : report.experiments) {
        Json exp = Json::object();
        exp.set("name", er.exp->name);
        exp.set("title", er.exp->title);
        exp.set("paper", er.exp->paper);
        Json axes = Json::array();
        axes.reserve(er.exp->axes.size());
        for (const std::string &a : er.exp->axes)
            axes.push(a);
        exp.set("axes", std::move(axes));

        Json runs = Json::array();
        runs.reserve(er.runs.size());
        for (const Run &run : er.runs) {
            Json jr = Json::object();
            jr.set("scheme", run.scheme);
            Json params = Json::object();
            params.reserve(run.params.size());
            for (const auto &[k, v] : run.params)
                params.set(k, v);
            jr.set("params", std::move(params));
            Json metrics = Json::object();
            metrics.reserve(run.metrics.size());
            for (const Metric &m : run.metrics) {
                Json jm = Json::object();
                jm.set("value", m.value);
                jm.set("unit", m.unit);
                metrics.set(m.name, std::move(jm));
            }
            jr.set("metrics", std::move(metrics));
            Json stats = Json::object();
            stats.reserve(run.stats.size());
            for (const auto &[k, v] : run.stats)
                stats.set(k, v);
            jr.set("stats", std::move(stats));
            if (run.trace.hasData()) {
                const sim::TraceBundle &tb = run.trace;
                Json attr = Json::object();
                attr.set("total_busy_ns", tb.totalBusyNs);
                attr.set("total_cycles", tb.totalCycles);
                attr.set("attributed_ns", tb.attributedNs);
                attr.set("coverage_pct", tb.coveragePct());
                attr.set("dropped_events", tb.droppedEvents);
                Json cats = Json::object();
                cats.reserve(tb.categories.size());
                for (const sim::TraceBundle::Category &c :
                     tb.categories) {
                    Json jc = Json::object();
                    jc.set("ns", c.ns);
                    jc.set("cycles", c.cycles);
                    jc.set("bytes", c.bytes);
                    jc.set("events", c.events);
                    cats.set(c.name, std::move(jc));
                }
                attr.set("categories", std::move(cats));
                jr.set("attribution", std::move(attr));
            }
            runs.push(std::move(jr));
        }
        exp.set("runs", std::move(runs));
        experiments.push(std::move(exp));
    }
    doc.set("experiments", std::move(experiments));
    return doc;
}

std::string
chromeTraceForReport(const Report &report)
{
    std::vector<sim::TraceProcess> procs;
    for (const ExperimentResult &er : report.experiments) {
        for (const Run &run : er.runs) {
            if (run.trace.events.empty())
                continue;
            sim::TraceProcess p;
            p.name = er.exp->name + "/" + run.scheme;
            const std::string params = paramsLabel(run);
            if (!params.empty())
                p.name += " " + params;
            p.bundle = &run.trace;
            procs.push_back(std::move(p));
        }
    }
    return sim::chromeTraceJson(procs);
}

void
printReport(const Report &report, std::FILE *out)
{
    for (const ExperimentResult &er : report.experiments) {
        std::fprintf(out, "\n==== %s (%s) ====\n%s\n",
                     er.exp->name.c_str(), er.exp->paper.c_str(),
                     er.exp->title.c_str());
        std::fprintf(out, "%-12s %-28s %-20s %14s %s\n", "scheme",
                     "params", "metric", "value", "unit");
        std::fprintf(out, "%s\n", std::string(86, '-').c_str());
        for (const Run &run : er.runs) {
            const std::string params = paramsLabel(run);
            for (const Metric &m : run.metrics) {
                std::fprintf(out, "%-12s %-28s %-20s %14.3f %s\n",
                             run.scheme.c_str(), params.c_str(),
                             m.name.c_str(), m.value, m.unit.c_str());
            }
        }
    }
}

void
printList(const DriverOptions &opts, std::FILE *out)
{
    std::fprintf(out, "%-20s %-12s %s\n", "experiment", "paper",
                 "title");
    std::fprintf(out, "%s\n", std::string(76, '-').c_str());
    for (const Experiment *e : selectExperiments(opts))
        std::fprintf(out, "%-20s %-12s %s\n", e->name.c_str(),
                     e->paper.c_str(), e->title.c_str());
}

int
runDriver(int argc, const char *const *argv)
{
    DriverOptions opts;
    std::string err;
    if (!parseArgs(argc, argv, &opts, &err)) {
        std::fprintf(stderr, "damn_bench: %s\n%s", err.c_str(), kUsage);
        return 2;
    }
    if (opts.help) {
        std::fprintf(stdout, "%s", kUsage);
        return 0;
    }
    if (opts.list) {
        printList(opts, stdout);
        return 0;
    }
    const auto selected = selectExperiments(opts);
    if (selected.empty()) {
        std::fprintf(stderr,
                     "damn_bench: no experiment matches '%s' "
                     "(try --list)\n",
                     opts.only.c_str());
        return 1;
    }

    const Report report = runExperiments(opts);
    printReport(report, stdout);

    if (!opts.jsonPath.empty()) {
        const std::string text = reportJson(report).dump();
        std::FILE *f = std::fopen(opts.jsonPath.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "damn_bench: cannot write %s: %s\n",
                         opts.jsonPath.c_str(), std::strerror(errno));
            return 1;
        }
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::fprintf(stdout, "\nwrote %s (%zu bytes)\n",
                     opts.jsonPath.c_str(), text.size());
    }

    if (!opts.tracePath.empty()) {
        const std::string text = chromeTraceForReport(report);
        std::FILE *f = std::fopen(opts.tracePath.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "damn_bench: cannot write %s: %s\n",
                         opts.tracePath.c_str(), std::strerror(errno));
            return 1;
        }
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::fprintf(stdout, "wrote %s (%zu bytes)\n",
                     opts.tracePath.c_str(), text.size());
    }
    return 0;
}

} // namespace damn::exp
