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
 * The figure-2 co-runner: 3 teams of 8 cores (ids 4..27; netperf owns
 * the lower ids) each repeatedly run one BFS iteration whose edge
 * traffic streams through the shared memory-bandwidth server.
 */
class BfsCorunner
{
  public:
    explicit BfsCorunner(sim::Context &ctx) : ctx_(ctx) {}

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
