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
 * that produced it, and the sim::RunRecord of the System that ran it
 * (stats snapshot and trace bundle).
 *
 * The driver owns the scheme, backend and trace axes: it intersects
 * the experiment's native scheme list with --schemes, calls the run
 * function once per backend, and hands out each machine's
 * net::SystemParams through RunCtx::sysParams.
 */

#ifndef DAMN_EXP_EXPERIMENT_HH
#define DAMN_EXP_EXPERIMENT_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/system.hh"
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
 * and the stats snapshot and trace bundle of the System that ran it
 * (both empty when the run captured none).
 */
struct Run : sim::RunRecord
{
    std::string scheme;
    std::vector<std::pair<std::string, std::string>> params;
    std::vector<Metric> metrics;
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

    /** Capture @p ctx's stats snapshot and trace bundle into the
     *  current run, at the end of its simulation. */
    void capture(const sim::Context &ctx) { runs_.back().capture(ctx); }

    /** Record the common workload fields as metrics and take the
     *  workload's captured stats and trace.  Zero-valued fields are
     *  skipped (the workload reported no such quantity). */
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
    /** The experiment's native scheme list filtered by --schemes, in
     *  native order; never empty. */
    std::vector<dma::SchemeKind> schemes;
    /** Base seed for anything stochastic (fault injection).  Varies
     *  per --repeat repetition. */
    std::uint64_t seed = 42;
    Collector &out;
    /** The invocation's machine: the backend of this call (the driver
     *  calls the run function once per backend of the axis and labels
     *  the runs itself) and the --trace recording setting. */
    net::SystemParams machine;

    /** The machine description for a run under scheme @p k. */
    net::SystemParams
    sysParams(dma::SchemeKind k) const
    {
        net::SystemParams p = machine;
        p.scheme = k;
        return p;
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
    /** The native scheme axis, in run order.  The driver passes the
     *  schemes of it that --schemes selects as RunCtx::schemes, and
     *  does not call run when it selects none. */
    std::vector<dma::SchemeKind> schemes = defaultSchemes();
    /** The native backend axis, swept when --backend is not given. */
    std::vector<iommu::BackendKind> backends{iommu::BackendKind::Vtd};
    std::function<void(RunCtx &)> run;
};

/** Register an experiment; returns true (for static-init use). */
bool registerExperiment(Experiment e);

/** All registered experiments, sorted by name. */
std::vector<const Experiment *> allExperiments();

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
