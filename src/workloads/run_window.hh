/**
 * @file
 * The shared measurement vocabulary of every workload runner.
 *
 * Each workload (netperf, memcached, fio, graph500 co-runs) used to
 * hand-roll its own warmup/measure bookkeeping and result fields; the
 * experiment layer needs them uniform so one driver can sweep schemes
 * and emit one machine-readable schema.  Two pieces:
 *
 *  - RunWindow: the warmup + steady-state measurement window, with the
 *    settle/finish helpers that advance virtual time and reset the
 *    accounting between the two phases;
 *  - CommonResult: the fields every workload reports — throughput,
 *    machine-wide CPU, operation rate, memory bandwidth, and the
 *    per-operation latency distribution.
 */

#ifndef DAMN_WORK_RUN_WINDOW_HH
#define DAMN_WORK_RUN_WINDOW_HH

#include "sim/context.hh"
#include "sim/histogram.hh"

namespace damn::work {

/** Warmup + measurement window of one workload run. */
struct RunWindow
{
    sim::TimeNs warmupNs = 30 * sim::kNsPerMs;
    sim::TimeNs measureNs = 200 * sim::kNsPerMs;

    /** Virtual time at which the measurement window closes. */
    sim::TimeNs endNs() const { return warmupNs + measureNs; }

    /** Length of the measurement window in seconds. */
    double seconds() const { return double(measureNs) / 1e9; }

    /** Convert an in-window event count to a per-second rate. */
    double
    perSecond(std::uint64_t count) const
    {
        return measureNs == 0 ? 0.0 : double(count) / seconds();
    }

    /**
     * Run @p ctx to the end of warmup and open the measurement window
     * (Context::resetAccounting), so that everything booked afterwards
     * belongs to it.
     */
    void
    settle(sim::Context &ctx) const
    {
        ctx.engine.run(warmupNs);
        ctx.resetAccounting();
    }

    /** Run @p ctx to the end of the measurement window. */
    void
    finish(sim::Context &ctx) const
    {
        ctx.engine.run(endNs());
    }

    /** Machine-wide CPU% over the measurement window. */
    double
    cpuPct(const sim::Context &ctx) const
    {
        return ctx.machine.utilizationPct(measureNs);
    }
};

/**
 * The result fields every workload has in common.  A workload that has
 * no meaningful value for a field leaves it at zero (e.g. fio has no
 * network Gb/s; the co-runner baselines have no ops rate).  The stats
 * snapshot and trace bundle come from RunRecord::capture at the end of
 * the run.
 */
struct CommonResult : sim::RunRecord
{
    double gbps = 0.0;      //!< network throughput moved
    double cpuPct = 0.0;    //!< machine-wide (100% == all cores busy)
    double opsPerSec = 0.0; //!< workload-defined operations per second
    double memGBps = 0.0;   //!< achieved memory-controller bandwidth
    /** Per-operation latency distribution (empty when not tracked). */
    sim::LatencyHistogram latency;
};

} // namespace damn::work

#endif // DAMN_WORK_RUN_WINDOW_HH
