/**
 * @file
 * The `damn_bench` driver: experiment selection, execution, text
 * report, and the machine-readable JSON schema.
 *
 * Split from main() so tests can exercise every stage — argument
 * parsing, selection, runs, and serialization — in-process.
 */

#ifndef DAMN_EXP_DRIVER_HH
#define DAMN_EXP_DRIVER_HH

#include <cstdio>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/json.hh"

namespace damn::exp {

/** Schema version of the --json output (bump on breaking change).
 *  v2: runs gained an "attribution" cost-attribution block. */
constexpr int kJsonSchemaVersion = 2;

/** Parsed command line of one damn_bench invocation. */
struct DriverOptions
{
    bool list = false;
    bool help = false;
    std::string only;  //!< glob over experiment names; empty = all
    std::vector<dma::SchemeKind> schemes = defaultSchemes();
    /** The --backend selection; empty keeps each experiment's native
     *  backend axis (Experiment::backends). */
    std::vector<iommu::BackendKind> backends;
    /** Worker threads for (experiment, rep) units; 0 = one per
     *  hardware thread.  Output is byte-identical for every value. */
    unsigned jobs = 0;
    unsigned repeat = 1;
    sim::TimeNs warmupNs = 0;   //!< 0 = per-experiment default
    sim::TimeNs measureNs = 0;  //!< 0 = per-experiment default
    std::uint64_t seed = 42;
    std::string jsonPath;  //!< empty = no JSON output
    std::string tracePath; //!< empty = no Chrome trace output
};

/** Parse argv (argv[0] ignored).  False + *err on bad usage. */
bool parseArgs(int argc, const char *const *argv, DriverOptions *opts,
               std::string *err);

/** One experiment's collected runs. */
struct ExperimentResult
{
    const Experiment *exp = nullptr;
    std::vector<Run> runs;
};

/** Everything one driver invocation measured. */
struct Report
{
    DriverOptions opts;
    std::vector<ExperimentResult> experiments;
};

/** Experiments matching --only, sorted by name. */
std::vector<const Experiment *>
selectExperiments(const DriverOptions &opts);

/** Resolve DriverOptions::jobs: 0 becomes hardware_concurrency
 *  (minimum 1). */
unsigned effectiveJobs(const DriverOptions &opts);

/**
 * Run every selected experiment (repeat times each).
 *
 * Units of work are (experiment, rep) pairs, each running the
 * experiment once per backend of its axis; with jobs > 1 they
 * execute on the sim::parallelFor worker pool, each on a private
 * deterministic simulated machine, and merge back in registration
 * order — the Report (and everything serialized from it) is
 * byte-identical to a serial run.  A unit that throws fails the
 * whole call with the first failing unit's exception.
 */
Report runExperiments(const DriverOptions &opts);

/** Build the documented JSON document for a report. */
Json reportJson(const Report &report);

/** Chrome trace-event JSON over every run that recorded events
 *  (one trace "process" per run, labeled experiment/scheme/params). */
std::string chromeTraceForReport(const Report &report);

/** Human-readable table of every run (uniform across experiments). */
void printReport(const Report &report, std::FILE *out);

/** The `damn_bench --list` listing. */
void printList(const DriverOptions &opts, std::FILE *out);

/** Full CLI entry point (damn_bench's main). */
int runDriver(int argc, const char *const *argv);

} // namespace damn::exp

#endif // DAMN_EXP_DRIVER_HH
