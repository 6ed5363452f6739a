/**
 * @file
 * Declarative experiment registry.
 *
 * Every figure/table of the paper's evaluation (plus our extension
 * benches) is one registered Experiment: a descriptor naming it, a
 * default warmup/measure window, and a run function that sweeps its
 * parameter axes and reports rows through a Collector.  One driver
 * (`damn_bench`) lists, filters, runs, prints, and serializes them all
 * through a single machine-readable schema — no experiment owns a
 * main() or a printf table of its own.
 *
 * Results are uniform: each run (one scheme/configuration point) holds
 * an ordered set of metrics (name, value, unit), the parameter values
 * that produced it, and a snapshot of the System's sim::Stats
 * counters.
 */

#ifndef DAMN_EXP_EXPERIMENT_HH
#define DAMN_EXP_EXPERIMENT_HH

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dma/schemes.hh"
#include "iommu/backend.hh"
#include "workloads/run_window.hh"

namespace damn::exp {

/** The default scheme axis: the five configurations every figure
 *  compares (the one authoritative list). */
const std::vector<dma::SchemeKind> &defaultSchemes();

/** One metric of one run. */
struct Metric
{
    std::string name;  //!< e.g. "rx.gbps"
    double value = 0.0;
    std::string unit;  //!< e.g. "Gb/s", "%", "ops/s"
};

/**
 * One configuration point of an experiment: a scheme (or config
 * label), the parameter axis values that produced it, its metrics,
 * and the stats snapshot of the System(s) that ran it.
 */
struct Run
{
    std::string scheme;
    std::vector<std::pair<std::string, std::string>> params;
    std::vector<Metric> metrics;
    std::map<std::string, std::uint64_t> stats;
    /** Cost attribution (+ events when recording); empty when the
     *  workload does not report one. */
    sim::TraceBundle trace;
};

/** Collects the runs of one experiment while it executes. */
class Collector
{
  public:
    /** Open a new run; subsequent param()/metric() calls fill it. */
    Run &
    beginRun(std::string scheme)
    {
        runs_.emplace_back();
        runs_.back().scheme = std::move(scheme);
        return runs_.back();
    }

    /** Record a parameter axis value of the current run. */
    void
    param(const std::string &key, std::string value)
    {
        runs_.back().params.emplace_back(key, std::move(value));
    }

    void
    param(const std::string &key, std::uint64_t value)
    {
        param(key, std::to_string(value));
    }

    /** Record one metric of the current run. */
    void
    metric(std::string name, double value, std::string unit)
    {
        runs_.back().metrics.push_back(
            {std::move(name), value, std::move(unit)});
    }

    /** Attach a stats snapshot (optionally namespaced by @p prefix)
     *  to the current run; repeated calls merge. */
    void snapshotStats(const sim::Stats &stats,
                       const std::string &prefix = "");

    /** Record the common workload fields as metrics and absorb the
     *  run's stats snapshot.  Zero-valued fields are skipped (the
     *  workload reported no such quantity). */
    void common(const work::CommonResult &c, bool with_latency = false);

    /** Hand over the collected runs, leaving the collector empty. */
    std::vector<Run> take() { return std::exchange(runs_, {}); }

  private:
    std::vector<Run> runs_;
};

struct Experiment;

/** Resolved inputs of one experiment invocation. */
struct RunCtx
{
    const Experiment &exp;
    /** The run window: the experiment's defaults, or the driver's
     *  --warmup-ms/--measure-ms overrides. */
    work::RunWindow window;
    /** The default scheme axis after --schemes filtering. */
    std::vector<dma::SchemeKind> schemes;
    /** Base seed for anything stochastic (fault injection, graph
     *  generation).  Varies per --repeat repetition. */
    std::uint64_t seed = 42;
    Collector &out;
    /** True when the driver wants trace-event recording (--trace):
     *  workloads should enable their tracer rings. */
    bool traceEvents = false;
    /** The IOMMU backend of this invocation.  The driver calls the
     *  run function once per backend of the axis and labels the runs
     *  itself. */
    iommu::BackendKind backend = iommu::BackendKind::Vtd;

    /** An experiment with a native scheme subset intersects it with
     *  the user's --schemes selection (native order preserved). */
    std::vector<dma::SchemeKind>
    schemesAmong(const std::vector<dma::SchemeKind> &native) const
    {
        std::vector<dma::SchemeKind> out_v;
        for (const dma::SchemeKind k : native)
            for (const dma::SchemeKind want : schemes)
                if (k == want) {
                    out_v.push_back(k);
                    break;
                }
        return out_v;
    }
};

/** One registered experiment. */
struct Experiment
{
    std::string name;   //!< registry key, e.g. "fig4_singlecore"
    std::string title;  //!< one-line human description
    std::string paper;  //!< paper anchor, e.g. "Figure 4" / "extension"
    /** Parameter axes the run function sweeps (documentation). */
    std::vector<std::string> axes;
    work::RunWindow defaultWindow{};
    /** The native backend axis, swept when --backend is not given. */
    std::vector<iommu::BackendKind> backends{iommu::BackendKind::Vtd};
    std::function<void(RunCtx &)> run;
};

/** Register an experiment; returns true (for static-init use). */
bool registerExperiment(Experiment e);

/** All registered experiments, sorted by name. */
std::vector<const Experiment *> allExperiments();

/** Look up one experiment by exact name (nullptr if absent). */
const Experiment *findExperiment(const std::string &name);

/** Shell-style glob match (`*` and `?`) used by --only. */
bool globMatch(const std::string &pattern, const std::string &text);

/**
 * Defines and self-registers an experiment:
 *
 *   DAMN_EXPERIMENT(fig4_singlecore)
 *   {
 *       Experiment e;
 *       e.name = "fig4_singlecore";
 *       ...
 *       return e;
 *   }
 */
#define DAMN_EXPERIMENT(ident)                                         \
    static ::damn::exp::Experiment damnExpMake_##ident();              \
    static const bool damnExpReg_##ident [[maybe_unused]] =            \
        ::damn::exp::registerExperiment(damnExpMake_##ident());        \
    static ::damn::exp::Experiment damnExpMake_##ident()

} // namespace damn::exp

#endif // DAMN_EXP_EXPERIMENT_HH
