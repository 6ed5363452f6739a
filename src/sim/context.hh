/**
 * @file
 * Bundle of the simulation singletons one experiment run owns.
 *
 * Passed by reference throughout; there are no global singletons, so
 * tests and benches can run many independent simulated machines in one
 * process.
 */

#ifndef DAMN_SIM_CONTEXT_HH
#define DAMN_SIM_CONTEXT_HH

#include "sim/cost_model.hh"
#include "sim/engine.hh"
#include "sim/fault_injector.hh"
#include "sim/machine.hh"
#include "sim/mem_bw.hh"
#include "sim/pressure.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"

namespace damn::sim {

/** Everything a simulated-machine experiment needs, in one object. */
struct Context
{
    explicit Context(CostModel cm = {}, unsigned sockets = 2,
                     unsigned cores_per_socket = 14)
        : cost(cm),
          machine(sockets, cores_per_socket),
          memBw(cm.memBwGBps)
    {
        tracer.attach(machine);
    }

    Engine engine;
    CostModel cost;
    Machine machine;
    MemBwServer memBw;
    Stats stats;
    Rng rng;
    /** Deterministic fault injection; disabled (zero-cost) by default. */
    FaultInjector faults;
    /** Virtual-time tracing + cost attribution (sim/tracer.hh). */
    Tracer tracer;
    /** Resource-pressure watermarks + forced reclaim (sim/pressure.hh).
     *  Inert until a System registers resources and reclaimers. */
    PressureController pressure{stats};

    /**
     * When true (default), all data paths move real bytes through the
     * simulated physical memory, so tests can assert byte-exact
     * outcomes.  Throughput benches set this to false: timing and
     * translation behaviour are identical, but large payload memcpys
     * on the host are skipped.
     */
    bool functionalData = true;

    TimeNs now() const { return engine.now(); }

    /**
     * CPU time of a copy of @p bytes at @p bytes_per_ns, including the
     * memory-controller contention stall: copies slow down once the
     * controllers run past ~80% utilization (processor-sharing
     * approximation; CPU copies do not queue FIFO behind device DMA).
     * Also books the copy's controller occupancy (@p mem_bytes).
     */
    TimeNs
    copyCost(TimeNs at, std::uint64_t bytes, double bytes_per_ns,
             std::uint64_t mem_bytes)
    {
        const double mult = memStallFactor(memBw.utilization(at));
        memBw.occupy(at, mem_bytes);
        return cost.copyCallNs +
            TimeNs(double(bytes) / bytes_per_ns * mult);
    }

    /**
     * Open a new measurement window: busy time, memory-bandwidth bytes
     * and cost attribution restart together, so the attribution window
     * always equals the busy-time window.  Stats counters keep counting:
     * they describe the whole run.
     */
    void
    resetAccounting()
    {
        machine.resetAccounting();
        memBw.resetAccounting();
        tracer.resetWindow();
    }
};

/**
 * What a finished run reads off its machine: the stats snapshot and
 * the trace bundle (attribution, plus the event log when recording).
 * Workload results and report runs both carry one.
 */
struct RunRecord
{
    std::map<std::string, std::uint64_t> stats;
    TraceBundle trace;

    /** Take both from @p ctx at the end of the run. */
    void
    capture(const Context &ctx)
    {
        stats = ctx.stats.snapshot();
        trace = ctx.tracer.bundle(ctx.machine, ctx.cost.cpuGhz);
    }
};

} // namespace damn::sim

#endif // DAMN_SIM_CONTEXT_HH
