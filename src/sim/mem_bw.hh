/**
 * @file
 * Shared memory-bandwidth server.
 *
 * Every byte that crosses the memory controllers — CPU copy traffic and
 * device DMA alike — is accounted here.  The server is a FIFO rate
 * limiter at the platform's sustainable bandwidth; when aggregate demand
 * exceeds it, transfers stretch.  This is the mechanism by which shadow
 * buffers throttle the NIC in the paper's figure 6: their extra copy
 * pushes total traffic to the ~80 GB/s controller limit, the NIC's DMA
 * completions slide, rings back up, and the OS throttles I/O.
 */

#ifndef DAMN_SIM_MEM_BW_HH
#define DAMN_SIM_MEM_BW_HH

#include <array>
#include <cmath>
#include <cstdint>

#include "sim/types.hh"

namespace damn::sim {

/**
 * Contention stall multiplier for bandwidth consumers that share the
 * controllers (CPU copies, BFS streaming) rather than queueing FIFO.
 * Below ~80% utilization the controllers absorb the load; past that,
 * latency grows queueing-theoretically.  Capped: real memory systems
 * retain forward progress under total saturation.
 */
inline double
memStallFactor(double rho)
{
    if (rho <= 0.8)
        return 1.0;
    const double r = rho < 0.96 ? rho : 0.96;
    const double stall = 0.2 / (1.0 - r);
    return stall < 5.0 ? stall : 5.0;
}

/**
 * FIFO bandwidth server.  transfer() returns the time the last byte of
 * the request leaves the memory system.
 */
class MemBwServer
{
  public:
    /**
     * @param bytes_per_ns sustainable aggregate bandwidth.  The paper
     * measures ~80 GB/s as the advertised limit of the evaluation
     * server's memory controllers (section 6.1, "Beyond 100 Gb/s").
     */
    explicit MemBwServer(double bytes_per_ns = 80.0)
        : bytesPerNs_(bytes_per_ns)
    {}

    /**
     * Request a transfer of @p bytes starting at @p now.
     * @return completion time of the transfer.
     */
    TimeNs
    transfer(TimeNs now, std::uint64_t bytes)
    {
        const TimeNs begin = now > freeAt_ ? now : freeAt_;
        const double dur = double(bytes) / bytesPerNs_;
        freeAt_ = begin + TimeNs(dur);
        totalBytes_ += bytes;
        noteLoad(now, dur);
        return freeAt_;
    }

    /**
     * Account controller occupancy for CPU-side copy traffic.  Unlike
     * device DMA, a CPU copy shares the controllers with everything
     * else rather than queueing FIFO; the *stall* it experiences is
     * modeled by the caller via utilization() (see Context::copyCost).
     * The occupancy still counts against the ceiling, so heavy copy
     * traffic (shadow buffers) pushes device DMA completions out.
     */
    void
    occupy(TimeNs now, std::uint64_t bytes)
    {
        const TimeNs begin = now > freeAt_ ? now : freeAt_;
        const double dur = double(bytes) / bytesPerNs_;
        freeAt_ = begin + TimeNs(dur);
        totalBytes_ += bytes;
        noteLoad(now, dur);
    }

    /**
     * Smoothed controller utilization in [0, ~1.2]: injected service
     * time per wall time, averaged over the trailing window.  Uses
     * time-bucketed accumulation so out-of-order virtual timestamps
     * (cursor times on backlogged cores run ahead of the engine clock)
     * are attributed to the right interval.
     */
    double
    utilization(TimeNs now) const
    {
        const std::uint64_t idx = now / kBucketNs;
        // Hot-path memo: per-packet copy costing asks for utilization
        // many times between load changes; the answer depends only on
        // the bucket index and the load table, so replay it until
        // either moves.  Pure caching — identical values, and thereby
        // identical simulated output, with or without the memo.
        if (idx == memoIdx_ && !memoStale_)
            return memoUtil_;
        const std::uint64_t lo = idx >= kWindowBuckets
            ? idx - kWindowBuckets : 0;
        double sum = 0.0;
        for (std::uint64_t i = lo; i < idx; ++i) {
            const auto slot = i % kBuckets;
            if (bucketEpoch_[slot] == i)
                sum += loadNs_[slot];
        }
        memoIdx_ = idx;
        memoUtil_ = sum / (double(kWindowBuckets) * kBucketNs);
        memoStale_ = false;
        return memoUtil_;
    }

    /** True when the server is backlogged at time @p now. */
    bool congested(TimeNs now) const { return freeAt_ > now; }

    double bytesPerNs() const { return bytesPerNs_; }
    std::uint64_t totalBytes() const { return totalBytes_; }

    /** Achieved bandwidth over a window, in GB/s (1e9 bytes/s). */
    double
    achievedGBps(TimeNs window) const
    {
        if (window == 0)
            return 0.0;
        return double(totalBytes_) / double(window);
    }

    void resetAccounting() { totalBytes_ = 0; }

  private:
    static constexpr TimeNs kBucketNs = 50'000;  //!< 50 us buckets
    static constexpr unsigned kBuckets = 64;     //!< ring capacity
    static constexpr unsigned kWindowBuckets = 4;//!< 200 us window

    void
    noteLoad(TimeNs at, double service_ns)
    {
        const std::uint64_t idx = at / kBucketNs;
        const auto slot = idx % kBuckets;
        if (bucketEpoch_[slot] != idx) {
            // Recycling drops the slot's old bucket from the sums.
            if (inMemoWindow(bucketEpoch_[slot]))
                memoStale_ = true;
            bucketEpoch_[slot] = idx;
            loadNs_[slot] = 0.0;
        }
        loadNs_[slot] += service_ns;
        // utilization() sums only the buckets before its own, so load
        // landing in any other bucket leaves the memo exact.
        if (inMemoWindow(idx))
            memoStale_ = true;
    }

    /** Is bucket @p i one of those the memoised utilization summed? */
    bool
    inMemoWindow(std::uint64_t i) const
    {
        const std::uint64_t lo = memoIdx_ >= kWindowBuckets
            ? memoIdx_ - kWindowBuckets : 0;
        return i >= lo && i < memoIdx_;
    }

    double bytesPerNs_;
    TimeNs freeAt_ = 0;
    std::uint64_t totalBytes_ = 0;
    std::array<double, kBuckets> loadNs_{};
    std::array<std::uint64_t, kBuckets> bucketEpoch_{};
    mutable std::uint64_t memoIdx_ = ~std::uint64_t{0};
    mutable double memoUtil_ = 0.0;
    mutable bool memoStale_ = true;
};

} // namespace damn::sim

#endif // DAMN_SIM_MEM_BW_HH
