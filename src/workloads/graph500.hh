/**
 * @file
 * Graph500 BFS workload (paper sections 4.2, 6.4 / figure 2).
 *
 * A DES co-runner (`BfsCorunner`) reproduces the benchmark's *resource
 * footprint* on the simulated machine: each BFS iteration streams the
 * edge array through the memory controllers from a team of cores, so
 * its iteration time stretches when something else (shadow buffers'
 * extra copies) cannibalizes memory bandwidth.
 */

#ifndef DAMN_WORK_GRAPH500_HH
#define DAMN_WORK_GRAPH500_HH

#include <cstdint>

#include "net/system.hh"
#include "sim/context.hh"
#include "workloads/run_window.hh"

namespace damn::work {

/**
 * The figure-2 co-runner: @p teams teams of @p cores_per_team cores
 * each repeatedly run one BFS iteration whose edge traffic streams
 * through the shared memory-bandwidth server.
 */
class BfsCorunner
{
  public:
    struct Config
    {
        unsigned teams = 3;
        unsigned coresPerTeam = 8;
        /** First core id to use (netperf owns the lower ids). */
        unsigned firstCore = 4;
        /**
         * Edge traffic per BFS iteration per team (2^20 vertices x
         * degree 256 ~ 268M directed edges streamed with metadata).
         */
        std::uint64_t bytesPerIteration = 8ull << 30;
        /** Uncontended per-core streaming bandwidth of the BFS kernel
         *  (random-access bound), B/ns. */
        double perCoreBytesPerNs = 1.8;
        /** Compute overhead as a fraction of memory time. */
        double computeFraction = 0.10;
        /** Memory-traffic quantum per event, bytes. */
        std::uint64_t quantumBytes = 256 * 1024;
    };

    BfsCorunner(sim::Context &ctx, Config cfg);

    /** Start all teams iterating (runs until the engine stops). */
    void start();

    /** Mean seconds per BFS iteration, from the fractional progress
     *  made between resetWindow() and @p now. */
    double meanIterationSeconds(sim::TimeNs now) const;

    void
    resetWindow(sim::TimeNs now)
    {
        windowStart_ = now;
        processedBytes_ = 0;
    }

  private:
    void runQuantum(unsigned team, unsigned member);

    sim::Context &ctx_;
    Config cfg_;
    sim::ScopedStats stats_;
    sim::Stats::Counter quantaCtr_;
    sim::Stats::Counter bytesCtr_;
    std::uint64_t processedBytes_ = 0;
    sim::TimeNs windowStart_ = 0;
};

/**
 * The figure-2 experiment: bidirectional netperf on the first 4 cores
 * beside 3 x 8-core Graph500 BFS teams, under one protection scheme.
 * Either side can be disabled to obtain the solo baselines.
 */
struct CorunOpts
{
    net::SystemParams sysParams{};  //!< scheme, backend, trace, shape
    bool withNet = true;
    bool withGraph = true;
    RunWindow runWindow{30 * sim::kNsPerMs, 300 * sim::kNsPerMs};
    BfsCorunner::Config bfs{};
};

/** Co-run result: netperf reports uniformly; the BFS side reports its
 *  mean iteration time (the paper's figure-2 metric). */
struct CorunResult
{
    CommonResult net;          //!< zeros when withNet is false
    double iterSeconds = 0.0;  //!< 0 when withGraph is false
};

CorunResult runNetGraphCorun(const CorunOpts &opts);

} // namespace damn::work

#endif // DAMN_WORK_GRAPH500_HH
