/**
 * @file
 * Virtual-time lock and serial-resource models.
 *
 * SimMutex models a spinlock in virtual time: an acquirer at time t is
 * granted the lock at max(t, time the previous holder releases), and the
 * wait is charged to the acquiring core as spin (busy) time.  This is
 * how the contended IOTLB invalidation-queue lock of the *strict*
 * protection scheme is reproduced (paper section 4.1 / figure 5).
 */

#ifndef DAMN_SIM_SIM_MUTEX_HH
#define DAMN_SIM_SIM_MUTEX_HH

#include <cstdint>

#include "sim/machine.hh"
#include "sim/types.hh"

namespace damn::sim {

/**
 * A lock that serializes critical sections in virtual time.
 *
 * Usage: @c acquireAndHold(core, now, hold) models "spin until granted,
 * then hold the lock for @p hold ns doing work"; both the spin and the
 * hold are charged to the core, and the function returns the release
 * time.
 */
class SimMutex
{
  public:
    /** Sentinel: derive the queue position from @p now. */
    static constexpr TimeNs kArrivalIsNow = ~TimeNs{0};

    /**
     * Acquire at virtual time @p now, hold for @p hold_ns, release.
     *
     * @param core   core doing the acquiring; spin + hold time are
     *               charged to it.
     * @param now    virtual time of the acquisition attempt.
     * @param hold_ns critical-section length.
     * @param spin_busy_fraction  share of the spin booked as busy
     *               time (see Core::occupy).
     * @param arrival  position in the lock's FIFO.  Callers inside a
     * discrete event should pass the *event* time here when @p now is
     * a core-cursor time that may run ahead of the engine clock —
     * otherwise one backlogged core drags the lock's free time into
     * the future and every other acquirer spins on phantom contention.
     * @return time the lock is released (== caller's completion time).
     */
    TimeNs
    acquireAndHold(Core &core, TimeNs now, TimeNs hold_ns,
                   double spin_busy_fraction = 1.0,
                   TimeNs arrival = kArrivalIsNow)
    {
        if (arrival == kArrivalIsNow)
            arrival = now;
        const TimeNs grant = arrival > freeAt_ ? arrival : freeAt_;
        freeAt_ = grant + hold_ns;
        // The requester starts no earlier than its own 'now'.
        const TimeNs start = grant > now ? grant : now;
        const TimeNs spin = start - now;
        core.occupy(now, spin, spin_busy_fraction);
        const TimeNs done = core.charge(now + spin, hold_ns);
        totalSpinNs_ += spin;
        maxSpinNs_ = spin > maxSpinNs_ ? spin : maxSpinNs_;
        ++acquisitions_;
        return done;
    }

    /** Cumulative spin time burned by all acquirers. */
    TimeNs totalSpinNs() const { return totalSpinNs_; }
    /** Longest single spin. */
    TimeNs maxSpinNs() const { return maxSpinNs_; }
    /** Number of acquisitions. */
    std::uint64_t acquisitions() const { return acquisitions_; }
    /** Time the lock becomes free. */
    TimeNs freeAt() const { return freeAt_; }

    void
    resetAccounting()
    {
        totalSpinNs_ = 0;
        maxSpinNs_ = 0;
        acquisitions_ = 0;
    }

  private:
    TimeNs freeAt_ = 0;
    TimeNs totalSpinNs_ = 0;
    TimeNs maxSpinNs_ = 0;
    std::uint64_t acquisitions_ = 0;
};

/**
 * A serial hardware resource (e.g., the IOMMU invalidation engine):
 * requests queue FIFO and are serviced one at a time, but the requester
 * does not necessarily spin (asynchronous submissions just take a slot).
 */
class SerialResource
{
  public:
    /**
     * Enqueue a request of @p service_ns at time @p now.
     * @return completion time of this request.
     */
    TimeNs
    submit(TimeNs now, TimeNs service_ns)
    {
        const TimeNs begin = now > freeAt_ ? now : freeAt_;
        freeAt_ = begin + service_ns;
        busyNs_ += service_ns;
        ++requests_;
        return freeAt_;
    }

    TimeNs freeAt() const { return freeAt_; }
    TimeNs busyNs() const { return busyNs_; }
    std::uint64_t requests() const { return requests_; }

    void
    resetAccounting()
    {
        busyNs_ = 0;
        requests_ = 0;
    }

  private:
    TimeNs freeAt_ = 0;
    TimeNs busyNs_ = 0;
    std::uint64_t requests_ = 0;
};

} // namespace damn::sim

#endif // DAMN_SIM_SIM_MUTEX_HH
