/**
 * @file
 * Lightweight named-counter statistics registry.
 *
 * Modules intern each counter name once — normally in their
 * constructor — and bump it through the returned handle: an index into
 * a flat array, so a per-packet bump is one add and one store with no
 * string built and no map walked.  Benches and tests read the counters
 * out through snapshot(), the only place the ordered name -> value map
 * is materialized.  Deliberately simple: a stats object is plumbed
 * explicitly (no globals), keeping experiments independent and
 * deterministic.
 */

#ifndef DAMN_SIM_STATS_HH
#define DAMN_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace damn::sim {

/** Registry of named 64-bit counters with accumulate semantics. */
class Stats
{
  public:
    /** Interned counter handle; valid for the lifetime of its Stats. */
    struct Counter
    {
        std::uint32_t index = 0;
    };

    /**
     * Handle for counter @p name, interning it on first use.  Calling
     * it twice with one name returns aliasing handles.  Interning does
     * not *touch* the counter: only add/set/max make it appear in
     * snapshot(), so declaring a counter never changes output.
     */
    Counter
    counter(const std::string &name)
    {
        const auto [it, fresh] =
            index_.try_emplace(name, std::uint32_t(slots_.size()));
        if (fresh) {
            slots_.emplace_back();
            names_.push_back(name);
        }
        return Counter{it->second};
    }

    /** Add @p delta to counter @p c (touching it even when 0). */
    void
    add(Counter c, std::uint64_t delta = 1)
    {
        Slot &s = slots_[c.index];
        s.value += delta;
        s.touched = true;
    }

    /** Set counter @p c to @p value. */
    void
    set(Counter c, std::uint64_t value)
    {
        Slot &s = slots_[c.index];
        s.value = value;
        s.touched = true;
    }

    /** Track a maximum. */
    void
    max(Counter c, std::uint64_t value)
    {
        Slot &s = slots_[c.index];
        if (value > s.value)
            s.value = value;
        s.touched = true;
    }

    /** Read counter @p c (0 until touched). */
    std::uint64_t get(Counter c) const { return slots_[c.index].value; }

    /** Read counter @p name (0 if absent); a cold-path lookup. */
    std::uint64_t
    get(const std::string &name) const
    {
        const auto it = index_.find(name);
        return it == index_.end() ? 0 : slots_[it->second].value;
    }

    /** True once counter @p name has been touched. */
    bool
    has(const std::string &name) const
    {
        const auto it = index_.find(name);
        return it != index_.end() && slots_[it->second].touched;
    }

    /**
     * Immutable copy of every touched counter, for attaching to
     * experiment results after a run.  The map is ordered, so
     * serializing a snapshot is deterministic.
     */
    std::map<std::string, std::uint64_t>
    snapshot() const
    {
        std::map<std::string, std::uint64_t> out;
        for (std::size_t i = 0; i < slots_.size(); ++i)
            if (slots_[i].touched)
                out.emplace(names_[i], slots_[i].value);
        return out;
    }

  private:
    struct Slot
    {
        std::uint64_t value = 0;
        bool touched = false;
    };

    std::vector<Slot> slots_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> index_;
};

/**
 * Interning view of a Stats object that prefixes every counter name
 * with "<prefix>.".  Lets a reusable component (a co-runner, a churn
 * task) publish counters under its own namespace without knowing who
 * else shares the registry.
 */
class ScopedStats
{
  public:
    ScopedStats(Stats &stats, std::string prefix)
        : stats_(stats), prefix_(std::move(prefix))
    {}

    /** Handle for "<prefix>.<name>" in the underlying registry. */
    Stats::Counter
    counter(const std::string &name)
    {
        return stats_.counter(prefix_ + "." + name);
    }

    const std::string &prefix() const { return prefix_; }

  private:
    Stats &stats_;
    std::string prefix_;
};

} // namespace damn::sim

#endif // DAMN_SIM_STATS_HH
