/**
 * @file
 * Simulated machine topology: cores, NUMA domains, busy-time accounting.
 *
 * Mirrors the paper's evaluation server: a dual-socket 28-core
 * (2 x 14) Xeon E5-2660 v4 at 2 GHz (Turbo Boost and hyperthreading
 * disabled), 4 DDR4-2400 DIMMs per socket.
 */

#ifndef DAMN_SIM_MACHINE_HH
#define DAMN_SIM_MACHINE_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace damn::sim {

/**
 * Observer of per-core busy-time bookings.  The Tracer implements
 * this to attribute every charged nanosecond to a cost category; the
 * hook sits inside Core::occupy so no charge site can bypass it.
 */
class BusyObserver
{
  public:
    virtual void onBusy(CoreId core, TimeNs booked) = 0;

  protected:
    ~BusyObserver() = default;
};

/**
 * One simulated CPU core.  Tracks the time up to which the core is
 * committed to already-charged work, plus cumulative busy time for
 * utilization reporting.
 */
class Core
{
  public:
    Core(CoreId id, NumaId numa) : id_(id), numa_(numa) {}

    CoreId id() const { return id_; }
    NumaId numa() const { return numa_; }

    /** Virtual time at which the core becomes free. */
    TimeNs freeAt() const { return freeAt_; }

    /**
     * Charge @p duration ns of work starting no earlier than @p start.
     * Work on one core serializes: if the core is still busy at
     * @p start, the new work begins when the previous work ends.
     *
     * @return the virtual time at which the charged work completes.
     */
    TimeNs
    charge(TimeNs start, TimeNs duration)
    {
        return book(start, duration, duration);
    }

    /**
     * Occupy the core for @p duration wall nanoseconds but book only
     * @p busy_fraction of it as busy time.  Models pause-loop waits
     * (spin-wait with cpu_relax) that OS accounting attributes only
     * partially to CPU consumption.
     */
    TimeNs
    occupy(TimeNs start, TimeNs duration, double busy_fraction)
    {
        return book(start, duration,
                    TimeNs(double(duration) * busy_fraction));
    }

    /** Install the busy-time observer (nullptr detaches). */
    void setBusyObserver(BusyObserver *obs) { observer_ = obs; }

    /** Cumulative busy nanoseconds since construction (or last reset). */
    TimeNs busyNs() const { return busyNs_; }

    /** Reset busy-time accounting (used between measurement windows). */
    void resetAccounting() { busyNs_ = 0; }

  private:
    /** Occupy the core for @p duration from @p start on, booking
     *  @p booked ns of it as busy time. */
    TimeNs
    book(TimeNs start, TimeNs duration, TimeNs booked)
    {
        const TimeNs begin = start > freeAt_ ? start : freeAt_;
        freeAt_ = begin + duration;
        busyNs_ += booked;
        if (observer_ != nullptr)
            observer_->onBusy(id_, booked);
        return freeAt_;
    }

    CoreId id_;
    NumaId numa_;
    TimeNs freeAt_ = 0;
    TimeNs busyNs_ = 0;
    BusyObserver *observer_ = nullptr;
};

/**
 * Machine topology: @p sockets NUMA domains with @p cores_per_socket
 * cores each.  Core ids interleave across sockets the way Linux
 * enumerates them on this platform (even ids socket 0, odd ids socket 1),
 * which matters when experiments pin work "divided equally between the
 * two CPUs".
 */
class Machine
{
  public:
    Machine(unsigned sockets = 2, unsigned cores_per_socket = 14)
        : sockets_(sockets)
    {
        const unsigned n = sockets * cores_per_socket;
        cores_.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            cores_.emplace_back(CoreId{i}, NumaId{i % sockets});
    }

    unsigned numCores() const { return unsigned(cores_.size()); }
    unsigned numSockets() const { return sockets_; }

    Core &core(CoreId id) { assert(id < cores_.size()); return cores_[id]; }
    const Core &
    core(CoreId id) const
    {
        assert(id < cores_.size());
        return cores_[id];
    }

    /** NUMA domain of a core. */
    NumaId numaOf(CoreId id) const { return core(id).numa(); }

    /** Sum of busy time across all cores. */
    TimeNs
    totalBusyNs() const
    {
        TimeNs t = 0;
        for (const auto &c : cores_)
            t += c.busyNs();
        return t;
    }

    /**
     * Machine-wide CPU utilization over a window of @p window ns,
     * in percent; 100% means all cores fully busy (paper convention:
     * one fully-busy core out of 28 reports as 3.57%).
     */
    double
    utilizationPct(TimeNs window) const
    {
        if (window == 0)
            return 0.0;
        return 100.0 * double(totalBusyNs()) /
            (double(window) * numCores());
    }

    /** Utilization of a single core over @p window ns, in percent. */
    double
    coreUtilizationPct(CoreId id, TimeNs window) const
    {
        if (window == 0)
            return 0.0;
        return 100.0 * double(core(id).busyNs()) / double(window);
    }

    void
    resetAccounting()
    {
        for (auto &c : cores_)
            c.resetAccounting();
    }

    /** Install @p obs as every core's busy-time observer. */
    void
    setBusyObserver(BusyObserver *obs)
    {
        for (auto &c : cores_)
            c.setBusyObserver(obs);
    }

  private:
    unsigned sockets_;
    std::vector<Core> cores_;
};

} // namespace damn::sim

#endif // DAMN_SIM_MACHINE_HH
