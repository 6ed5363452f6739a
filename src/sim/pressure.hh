/**
 * @file
 * Watermark-based resource-pressure controller.
 *
 * Allocation-heavy subsystems (page allocator, kmalloc heap, IOVA
 * space, DAMN caches, shadow pools) register a usage probe; reclaim
 * providers (deferred-flush queues, magazine shrinkers, pool releasers)
 * register a callback, cheapest first.  When an allocation fails — or
 * a producer polls and finds a resource past the critical watermark —
 * reclaim() runs the callbacks in registration order until overall
 * pressure drops below the low watermark or every provider has run.
 *
 * This is the simulated analog of Linux's vmpressure / shrinker /
 * fq_ring-flush machinery: the point is that exhaustion becomes a
 * *recoverable, observable* degradation path instead of an assert.
 * Everything is deterministic — reclaim follows registration order,
 * and all accounting goes through the run's sim::Stats counters.
 */

#ifndef DAMN_SIM_PRESSURE_HH
#define DAMN_SIM_PRESSURE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/cpu_cursor.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace damn::sim {

/** Pressure level of one resource (or of the whole machine). */
enum class PressureLevel : std::uint8_t
{
    Ok = 0,       //!< below the low watermark
    Low = 1,      //!< between low and critical: reclaim opportunistically
    Critical = 2, //!< past critical: allocations are about to fail
};

/** A watched resource; each owns its pressure.<name>.to_<level> rows. */
enum class PressureResource : std::uint8_t
{
    Pages,   //!< page allocator
    Kmalloc, //!< kmalloc heap
    Iova,    //!< DMA-API IOVA space
    Damn,    //!< DAMN caches
    Shadow,  //!< shadow pools
};

/** A reclaim provider; each owns its pressure.reclaimed.<name> row. */
enum class PressureReclaimer : std::uint8_t
{
    FlushPending, //!< force out batched invalidations
    DamnShrink,   //!< shrink DAMN magazines
    ShadowShrink, //!< release idle shadow pools
};

/**
 * Tracks watermark levels across registered resources and drives
 * ordered reclaim.  One instance per sim::Context.
 */
class PressureController
{
  public:
    /** Usage probe: current utilization of the resource in [0, 1]. */
    using UsageFn = std::function<double()>;
    /** Reclaimer: release what it can, charging CPU time to @p cpu.
     *  Returns the units (bytes, pages, IOVA pages — provider-defined)
     *  it reclaimed; 0 means it had nothing to give back. */
    using ReclaimFn = std::function<std::uint64_t(CpuCursor &)>;

    explicit PressureController(Stats &stats) : stats_(stats) {}

    PressureController(const PressureController &) = delete;
    PressureController &operator=(const PressureController &) = delete;

    /** Utilization fractions at which a resource turns Low and
     *  Critical. */
    static constexpr double kLowWatermark = 0.75;
    static constexpr double kCriticalWatermark = 0.90;

    /** Register a watched resource. */
    void
    registerResource(PressureResource id, UsageFn usage)
    {
        resources_.push_back(
            Resource{id, std::move(usage), PressureLevel::Ok});
    }

    /**
     * Register a reclaim provider.  Providers run in registration
     * order, so register the cheapest first (flush a queue before
     * tearing down caches).
     */
    void
    registerReclaimer(PressureReclaimer id, ReclaimFn fn)
    {
        reclaimers_.push_back(ReclaimerEntry{id, std::move(fn)});
    }

    /** Current level of one resource (Ok when not registered). */
    PressureLevel
    level(PressureResource id) const
    {
        for (const Resource &r : resources_)
            if (r.id == id)
                return levelOf(r);
        return PressureLevel::Ok;
    }

    /**
     * Sample every resource, record level-transition counters, and
     * return the overall level.  Producers on throttle-capable paths
     * (RX refill, TX submit, NVMe submit) call this to decide whether
     * to back off before allocating.
     */
    PressureLevel
    poll()
    {
        PressureLevel worst = PressureLevel::Ok;
        for (Resource &r : resources_) {
            const PressureLevel l = levelOf(r);
            if (l != r.lastLevel) {
                stats_.add(kToLevel[unsigned(r.id)][unsigned(l)]);
                r.lastLevel = l;
            }
            worst = std::max(worst, l);
        }
        return worst;
    }

    /**
     * Forced reclaim: run providers in order until overall
     * pressure drops below Low or every provider has run.  Called from
     * allocation-failure paths (the feedback loop) and from throttle
     * sites that found poll() == Critical.
     * @return total units reclaimed across the providers that ran.
     */
    std::uint64_t
    reclaim(CpuCursor &cpu)
    {
        if (reclaiming_)
            return 0; // a reclaimer's own allocation failed: don't recurse
        reclaiming_ = true;
        stats_.add(Ctr::PressureReclaims);
        const TimeNs t0 = cpu.time;
        std::uint64_t total = 0;
        for (ReclaimerEntry &rec : reclaimers_) {
            const std::uint64_t got = rec.fn(cpu);
            if (got > 0) {
                total += got;
                stats_.add(kReclaimed[unsigned(rec.id)], got);
            }
            if (poll() < PressureLevel::Low)
                break;
        }
        stats_.add(Ctr::PressureReclaimNs, std::uint64_t(cpu.time - t0));
        if (total == 0)
            stats_.add(Ctr::PressureReclaimFutile);
        reclaiming_ = false;
        return total;
    }

    std::uint64_t
    reclaimEvents() const
    {
        return stats_.get(Ctr::PressureReclaims);
    }
    std::uint64_t
    reclaimedUnits() const
    {
        std::uint64_t n = 0;
        for (const Ctr c : kReclaimed)
            n += stats_.get(c);
        return n;
    }
    std::size_t numResources() const { return resources_.size(); }
    std::size_t numReclaimers() const { return reclaimers_.size(); }

  private:
    struct Resource
    {
        PressureResource id;
        UsageFn usage;
        PressureLevel lastLevel;
    };

    struct ReclaimerEntry
    {
        PressureReclaimer id;
        ReclaimFn fn;
    };

    /** Level-transition counters, by PressureResource then level. */
    static constexpr Ctr kToLevel[][3] = {
        {Ctr::PressurePagesToOk, Ctr::PressurePagesToLow,
         Ctr::PressurePagesToCritical},
        {Ctr::PressureKmallocToOk, Ctr::PressureKmallocToLow,
         Ctr::PressureKmallocToCritical},
        {Ctr::PressureIovaToOk, Ctr::PressureIovaToLow,
         Ctr::PressureIovaToCritical},
        {Ctr::PressureDamnToOk, Ctr::PressureDamnToLow,
         Ctr::PressureDamnToCritical},
        {Ctr::PressureShadowToOk, Ctr::PressureShadowToLow,
         Ctr::PressureShadowToCritical},
    };
    /** Units-reclaimed counters, by PressureReclaimer. */
    static constexpr Ctr kReclaimed[] = {
        Ctr::PressureReclaimedFlushPending,
        Ctr::PressureReclaimedDamnShrink,
        Ctr::PressureReclaimedShadowShrink,
    };

    static PressureLevel
    levelOf(const Resource &r)
    {
        const double u = r.usage();
        if (u >= kCriticalWatermark)
            return PressureLevel::Critical;
        if (u >= kLowWatermark)
            return PressureLevel::Low;
        return PressureLevel::Ok;
    }

    Stats &stats_;
    std::vector<Resource> resources_;
    std::vector<ReclaimerEntry> reclaimers_;
    bool reclaiming_ = false;
};

} // namespace damn::sim

#endif // DAMN_SIM_PRESSURE_HH
