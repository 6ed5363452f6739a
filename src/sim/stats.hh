/**
 * @file
 * The run's counters: one 64-bit slot per row of the counter table
 * (sim/counters.hh).
 *
 * Modules bump a counter by its Ctr id, so a per-packet bump is one
 * add and one store with no string built and no map walked.  Benches
 * and tests read the counters out through snapshot(), the only place
 * the ordered name -> value map is materialized.  Deliberately simple:
 * a stats object is plumbed explicitly (no globals), keeping
 * experiments independent and deterministic.
 */

#ifndef DAMN_SIM_STATS_HH
#define DAMN_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "sim/counters.hh"

namespace damn::sim {

/** Table-indexed 64-bit counters with accumulate semantics. */
class Stats
{
  public:
    /** Add @p delta to counter @p c (touching it even when 0). */
    void
    add(Ctr c, std::uint64_t delta = 1)
    {
        Slot &s = slots_[std::size_t(c)];
        s.value += delta;
        s.touched = true;
    }

    /** Read counter @p c (0 until touched). */
    std::uint64_t get(Ctr c) const { return slots_[std::size_t(c)].value; }

    /**
     * Immutable copy of every touched counter, for attaching to
     * experiment results after a run.  The map is ordered by name, so
     * serializing a snapshot is deterministic; untouched counters are
     * absent.
     */
    std::map<std::string, std::uint64_t>
    snapshot() const
    {
        std::map<std::string, std::uint64_t> out;
        for (std::size_t i = 0; i < kNumCounters; ++i)
            if (slots_[i].touched)
                out.emplace_hint(out.end(), kCounters[i].name,
                                 slots_[i].value);
        return out;
    }

  private:
    struct Slot
    {
        std::uint64_t value = 0;
        bool touched = false;
    };

    std::array<Slot, kNumCounters> slots_{};
};

} // namespace damn::sim

#endif // DAMN_SIM_STATS_HH
