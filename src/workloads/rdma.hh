/**
 * @file
 * Faulting RDMA workload: one-sided transfers into pageable memory.
 *
 * Models an RNIC doing virtual-address RDMA (the Crete-thesis shape):
 * payloads land in an SVA domain where IOVA = process VA and nothing
 * is pinned, so the device faults pages in through ATS/PRI as the
 * access pattern walks the registered footprint.  A bounded resident
 * set forces steady-state eviction, so the fault rate tracks the
 * footprint — the sweep axis of the rdma_pagefault experiment.
 *
 * The per-message *control* path (work-request descriptor) still goes
 * through the DMA API, so the protection scheme keeps its usual cost
 * axis; the payload path prices the ATS/PRI machinery of the chosen
 * backend.
 */

#ifndef DAMN_WORK_RDMA_HH
#define DAMN_WORK_RDMA_HH

#include "net/system.hh"
#include "workloads/run_window.hh"

namespace damn::work {

struct RdmaOpts
{
    /** Registered (touchable) memory footprint, bytes. */
    std::uint64_t footprintBytes = 4ull << 20;
    std::uint64_t seed = 42;
    RunWindow runWindow{};
    net::SystemParams sysParams{};  //!< scheme, backend, trace, shape
};

struct RdmaResult
{
    CommonResult common;
    std::uint64_t messages = 0;
    // PRI counters over the measurement window:
    std::uint64_t faultsServiced = 0;
    std::uint64_t autoResponses = 0;
    std::uint64_t prqMaxDepth = 0;  //!< whole-run high-water mark
    double devTlbHitRate = 0.0;
    double avgFaultServiceNs = 0.0; //!< post-to-resume mean
};

RdmaResult runRdma(const RdmaOpts &opts);

} // namespace damn::work

#endif // DAMN_WORK_RDMA_HH
