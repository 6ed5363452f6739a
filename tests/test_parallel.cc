/**
 * @file
 * Parallel-determinism suite (ctest label `par`): the --jobs worker
 * pool must be invisible in every output byte.  Runs the driver
 * in-process at --jobs=1 and --jobs=8 over two seeds and asserts the
 * serialized JSON report and the Chrome trace are byte-identical; also
 * covers the unit decomposition/merge corners (repeat reps, glob
 * subsets, worker-pool exception propagation), the pool itself
 * (sim::parallelFor) and the numeric option bounds.
 *
 * Built into the verify-tsan tree as well: under -fsanitize=thread the
 * jobs=8 cases double as a data-race audit of the whole
 * experiment/workload/sim stack.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/driver.hh"
#include "sim/parallel.hh"

using namespace damn;

namespace {

exp::DriverOptions
smallOpts(const std::string &only, std::uint64_t seed, unsigned jobs,
          unsigned repeat = 1)
{
    exp::DriverOptions o;
    o.only = only;
    o.seed = seed;
    o.jobs = jobs;
    o.repeat = repeat;
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 2 * sim::kNsPerMs;
    // Non-empty trace path => experiments record trace events, so the
    // comparison covers the event rings and the Chrome exporter too.
    o.tracePath = "unused-in-process";
    return o;
}

struct Serialized
{
    std::string json;
    std::string trace;
};

Serialized
serialize(const exp::DriverOptions &o)
{
    const exp::Report r = exp::runExperiments(o);
    return {exp::reportJson(r).dump(), exp::chromeTraceForReport(r)};
}

} // namespace

TEST(Parallel, JobsProduceByteIdenticalOutputAcrossSeeds)
{
    // netperf_stream attaches full trace bundles (fig4 reports only
    // stats snapshots), so the trace comparison is non-vacuous.
    for (const std::uint64_t seed : {42ull, 1234ull}) {
        const Serialized serial =
            serialize(smallOpts("netperf_stream", seed, 1));
        const Serialized parallel =
            serialize(smallOpts("netperf_stream", seed, 8));
        EXPECT_EQ(serial.json, parallel.json) << "seed " << seed;
        EXPECT_EQ(serial.trace, parallel.trace) << "seed " << seed;
        EXPECT_GT(serial.trace.size(), 1000u)
            << "trace suspiciously small; comparison would be vacuous";
    }
}

TEST(Parallel, RepeatRepsMergeInOrder)
{
    const Serialized serial = serialize(smallOpts("fig4*", 42, 1, 3));
    const Serialized parallel =
        serialize(smallOpts("fig4*", 42, 8, 3));
    EXPECT_EQ(serial.json, parallel.json);
    EXPECT_EQ(serial.trace, parallel.trace);
    // Reps really are distinct units: rep=0/1/2 all present.
    for (const char *tag : {"\"rep\": \"0\"", "\"rep\": \"1\"",
                            "\"rep\": \"2\""})
        EXPECT_NE(serial.json.find(tag), std::string::npos) << tag;
}

TEST(Parallel, MultiExperimentSelectionKeepsRegistrationOrder)
{
    // A glob spanning several experiments; order in the report must be
    // the sorted registry order regardless of which worker finishes
    // first.
    const Serialized serial = serialize(smallOpts("fig*", 7, 1));
    const Serialized parallel = serialize(smallOpts("fig*", 7, 8));
    EXPECT_EQ(serial.json, parallel.json);
    EXPECT_EQ(serial.trace, parallel.trace);
}

TEST(Parallel, EffectiveJobsDefaultsToHardware)
{
    exp::DriverOptions o;
    EXPECT_GE(exp::effectiveJobs(o), 1u);
    o.jobs = 5;
    EXPECT_EQ(exp::effectiveJobs(o), 5u);
}

TEST(Parallel, JobsFlagParses)
{
    exp::DriverOptions o;
    std::string err;
    const char *argv[] = {"damn_bench", "--jobs=8"};
    ASSERT_TRUE(exp::parseArgs(2, argv, &o, &err)) << err;
    EXPECT_EQ(o.jobs, 8u);

    const char *argvMax[] = {"damn_bench", "--jobs=4294967295"};
    ASSERT_TRUE(exp::parseArgs(2, argvMax, &o, &err)) << err;
    EXPECT_EQ(o.jobs, 4294967295u);

    // Zero, junk, and values that do not fit the option's type (the
    // count options are unsigned; the windows are multiplied to ns)
    // are usage errors, never silently truncated.
    for (const char *arg :
         {"--jobs=0", "--jobs=x", "--jobs=4294967296", "--repeat=0",
          "--repeat=4294967296", "--measure-ms=0",
          "--measure-ms=18446744073709552", "--warmup-ms=18446744073709552",
          "--measure-ms=18446744073709551615"}) {
        exp::DriverOptions bad;
        const char *argv1[] = {"damn_bench", arg};
        EXPECT_FALSE(exp::parseArgs(2, argv1, &bad, &err)) << arg;
        EXPECT_EQ(exp::runDriver(2, argv1), 2) << arg;
    }
}

TEST(Parallel, IntraJobsFlagIsRejected)
{
    // The only execution model is the --jobs pool; the retired
    // --intra-jobs option is an unknown option like any other.
    exp::DriverOptions o;
    std::string err;
    const char *argv[] = {"damn_bench", "--intra-jobs=4"};
    EXPECT_FALSE(exp::parseArgs(2, argv, &o, &err));
    EXPECT_EQ(err, "unknown option: --intra-jobs");
    EXPECT_EQ(exp::runDriver(2, argv), 2);
}

TEST(Parallel, PoolRunsEveryItemAndRethrowsFirstFailureInIndexOrder)
{
    for (const unsigned workers : {1u, 4u}) {
        std::vector<std::atomic<unsigned>> runs(16);
        try {
            sim::parallelFor(runs.size(), workers, [&](std::size_t i) {
                ++runs[i];
                if (i == 5)
                    throw std::runtime_error("first failure");
                if (i == 9)
                    throw std::logic_error("second failure");
            });
            FAIL() << "expected a throw, workers=" << workers;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "first failure");
        }
        // A failing item must not stop its siblings, and no item runs
        // twice.
        for (std::size_t i = 0; i < runs.size(); ++i)
            EXPECT_EQ(runs[i].load(), 1u)
                << "item " << i << ", workers=" << workers;
    }
    // No items: nothing runs, nothing throws.
    sim::parallelFor(0, 4, [](std::size_t) { FAIL(); });
}

TEST(Parallel, WorkerExceptionPropagates)
{
    // Register a throwing experiment on the fly; the pool must join
    // cleanly and rethrow on the caller's thread.
    static const bool reg [[maybe_unused]] =
        exp::registerExperiment([] {
            exp::Experiment e;
            e.name = "zz_test_parallel_throws";
            e.title = "always throws (test fixture)";
            e.paper = "test";
            e.run = [](exp::RunCtx &) {
                throw std::runtime_error("unit failure");
            };
            return e;
        }());
    exp::DriverOptions o = smallOpts("zz_test_parallel_throws", 42, 4);
    o.repeat = 4; // several units so the pool actually spins up
    EXPECT_THROW(exp::runExperiments(o), std::runtime_error);
}
