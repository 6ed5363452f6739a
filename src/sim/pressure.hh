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
 * and all accounting goes through the run's sim::Stats registry.
 */

#ifndef DAMN_SIM_PRESSURE_HH
#define DAMN_SIM_PRESSURE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
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

constexpr const char *
pressureLevelName(PressureLevel l)
{
    switch (l) {
      case PressureLevel::Ok:
        return "ok";
      case PressureLevel::Low:
        return "low";
      case PressureLevel::Critical:
        return "critical";
    }
    return "?";
}

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

    explicit PressureController(Stats &stats)
        : stats_(stats),
          reclaimsCtr_(stats.counter("pressure.reclaims")),
          reclaimNsCtr_(stats.counter("pressure.reclaim_ns")),
          reclaimFutileCtr_(stats.counter("pressure.reclaim_futile"))
    {}

    PressureController(const PressureController &) = delete;
    PressureController &operator=(const PressureController &) = delete;

    /** Utilization fractions at which a resource turns Low and
     *  Critical. */
    static constexpr double kLowWatermark = 0.75;
    static constexpr double kCriticalWatermark = 0.90;

    /** Register a watched resource. */
    void
    registerResource(std::string name, UsageFn usage)
    {
        Resource r{name, std::move(usage), PressureLevel::Ok, {}};
        for (const PressureLevel l : {PressureLevel::Ok, PressureLevel::Low,
                                      PressureLevel::Critical})
            r.toLevel[unsigned(l)] = stats_.counter(
                "pressure." + name + ".to_" + pressureLevelName(l));
        resources_.push_back(std::move(r));
    }

    /**
     * Register a reclaim provider.  Providers run in registration
     * order, so register the cheapest first (flush a queue before
     * tearing down caches).
     */
    void
    registerReclaimer(std::string name, ReclaimFn fn)
    {
        const Stats::Counter reclaimed =
            stats_.counter("pressure.reclaimed." + name);
        reclaimers_.push_back(
            Reclaimer{std::move(name), std::move(fn), reclaimed});
    }

    /** Current level of one resource (Ok when unknown). */
    PressureLevel
    level(const std::string &resource) const
    {
        for (const Resource &r : resources_)
            if (r.name == resource)
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
                stats_.add(r.toLevel[unsigned(l)]);
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
        ++reclaimEvents_;
        stats_.add(reclaimsCtr_);
        const TimeNs t0 = cpu.time;
        std::uint64_t total = 0;
        for (Reclaimer &rec : reclaimers_) {
            const std::uint64_t got = rec.fn(cpu);
            if (got > 0) {
                total += got;
                stats_.add(rec.reclaimed, got);
            }
            if (poll() < PressureLevel::Low)
                break;
        }
        reclaimedUnits_ += total;
        stats_.add(reclaimNsCtr_, std::uint64_t(cpu.time - t0));
        if (total == 0)
            stats_.add(reclaimFutileCtr_);
        reclaiming_ = false;
        return total;
    }

    std::uint64_t reclaimEvents() const { return reclaimEvents_; }
    std::uint64_t reclaimedUnits() const { return reclaimedUnits_; }
    std::size_t numResources() const { return resources_.size(); }
    std::size_t numReclaimers() const { return reclaimers_.size(); }

  private:
    struct Resource
    {
        std::string name;
        UsageFn usage;
        PressureLevel lastLevel;
        Stats::Counter toLevel[3]; //!< pressure.<name>.to_<level>
    };

    struct Reclaimer
    {
        std::string name;
        ReclaimFn fn;
        Stats::Counter reclaimed; //!< pressure.reclaimed.<name>
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
    Stats::Counter reclaimsCtr_;
    Stats::Counter reclaimNsCtr_;
    Stats::Counter reclaimFutileCtr_;
    std::vector<Resource> resources_;
    std::vector<Reclaimer> reclaimers_;
    bool reclaiming_ = false;
    std::uint64_t reclaimEvents_ = 0;
    std::uint64_t reclaimedUnits_ = 0;
};

} // namespace damn::sim

#endif // DAMN_SIM_PRESSURE_HH
