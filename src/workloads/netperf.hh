/**
 * @file
 * netperf TCP_STREAM experiment runner (paper sections 4, 6.1).
 *
 * Provides pre-parameterized configurations matching each figure's
 * methodology: single-core (4 instances pinned to core 0, both ports,
 * 64 KiB TSO/LRO aggregates), multi-core (28 instances, one per core),
 * and bidirectional (28 RX + 28 TX).
 */

#ifndef DAMN_WORK_NETPERF_HH
#define DAMN_WORK_NETPERF_HH

#include <memory>

#include "net/stream.hh"
#include "workloads/run_window.hh"

namespace damn::work {

/** Traffic mix of a netperf run. */
enum class NetMode
{
    Rx,     //!< evaluation machine receives
    Tx,     //!< evaluation machine transmits
    Bidi,   //!< half the instances each way
};

/** Full configuration of one netperf experiment. */
struct NetperfOpts
{
    NetMode mode = NetMode::Rx;
    unsigned instances = 28;
    unsigned coreLimit = 0;         //!< >0: round-robin over first N cores
    std::uint32_t segBytes = 16 * 1024;
    unsigned window = 32;
    double costFactor = 1.0;
    RunWindow runWindow{};
    net::SystemParams sysParams{};  //!< scheme, backend, trace, shape
};

/** A completed run: results plus the machine for post-inspection. */
struct NetperfRun
{
    std::unique_ptr<net::System> sys;
    std::unique_ptr<net::NicDevice> nic;
    std::unique_ptr<net::TcpStack> stack;
    net::StreamResult res;
    /** The uniform workload-result view of @ref res. */
    CommonResult common;
};

/** Build the System/NIC/stack for @p opts without running traffic. */
NetperfRun makeNetperfSystem(const NetperfOpts &opts);

/** Uniform view of a stream measurement (opsPerSec == segments/s). */
CommonResult toCommon(const net::StreamResult &res,
                      const RunWindow &window);

/**
 * Run one netperf experiment.  @p customize, when given, can add
 * netfilter hooks or tweak the stack before traffic starts.
 */
NetperfRun runNetperf(
    const NetperfOpts &opts,
    const std::function<void(NetperfRun &)> &customize = {});

/** Figure 4 methodology: 4 instances on one core, 64 KiB aggregates. */
NetperfOpts singleCoreOpts(dma::SchemeKind scheme, NetMode mode);

/** Figure 5 methodology: 28 instances, one per core. */
NetperfOpts multiCoreOpts(dma::SchemeKind scheme, NetMode mode);

/** Figures 1/6 methodology: bidirectional multi-core streams. */
NetperfOpts bidirectionalOpts(dma::SchemeKind scheme);

/** Flow list construction shared with other workloads. */
void addNetperfFlows(NetperfRun &run, net::StreamEngine &eng,
                     const NetperfOpts &opts);

} // namespace damn::work

#endif // DAMN_WORK_NETPERF_HH
