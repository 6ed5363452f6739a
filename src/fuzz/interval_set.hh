/**
 * @file
 * The fuzz harness's IOVA range set: the representation for the
 * per-domain pending / must-not-translate tracking (see harness.hh).
 */

#ifndef DAMN_FUZZ_INTERVAL_SET_HH
#define DAMN_FUZZ_INTERVAL_SET_HH

#include <algorithm>
#include <iterator>
#include <cstdint>
#include <vector>

namespace damn::fuzz {

/**
 * Ordered set of disjoint [lo, hi) byte ranges with coalescing insert,
 * splitting erase, and O(log n) overlap query.  The ranges live sorted
 * in one vector and never touch (an insert that meets a neighbour
 * merges with it), so both their starts and their ends ascend.
 * growth() counts the inserts, so an oracle can tell whether the set
 * may have gained coverage since it last looked.
 */
class IntervalSet
{
  public:
    void
    insert(std::uint64_t lo, std::uint64_t hi)
    {
        if (lo >= hi)
            return;
        ++growth_;
        // Every range that overlaps or touches [lo, hi) folds into it.
        const auto first = std::partition_point(
            r_.begin(), r_.end(), [lo](const Range &r) { return r.hi < lo; });
        const auto last = std::partition_point(
            first, r_.end(), [hi](const Range &r) { return r.lo <= hi; });
        if (first == last) {
            r_.insert(first, Range{lo, hi});
            return;
        }
        first->lo = std::min(lo, first->lo);
        first->hi = std::max(hi, std::prev(last)->hi);
        r_.erase(std::next(first), last);
    }

    void
    erase(std::uint64_t lo, std::uint64_t hi)
    {
        if (lo >= hi)
            return;
        // The ranges [first, last) overlap [lo, hi); what they hold
        // outside it survives as at most two pieces.
        const auto first = std::partition_point(
            r_.begin(), r_.end(), [lo](const Range &r) { return r.hi <= lo; });
        const auto last = std::partition_point(
            first, r_.end(), [hi](const Range &r) { return r.lo < hi; });
        if (first == last)
            return;
        const Range left{first->lo, lo};
        const Range right{hi, std::prev(last)->hi};
        auto out = first;
        if (left.lo < left.hi)
            *out++ = left;
        if (right.lo < right.hi) {
            if (out == last) { // one range split in two
                r_.insert(out, right);
                return;
            }
            *out++ = right;
        }
        r_.erase(out, last);
    }

    /** Does any range overlap [lo, hi)?  (@p lo <= @p hi.) */
    bool
    overlaps(std::uint64_t lo, std::uint64_t hi) const
    {
        const auto it = std::partition_point(
            r_.begin(), r_.end(), [lo](const Range &r) { return r.hi <= lo; });
        return it != r_.end() && it->lo < hi;
    }

    /** Move every range of @p o into this set (promotion). */
    void
    absorb(IntervalSet &o)
    {
        for (const Range &r : o.r_)
            insert(r.lo, r.hi);
        o.r_.clear();
    }

    bool empty() const { return r_.empty(); }
    void clear() { r_.clear(); }

    /** Monotone count of inserts (erase/clear never move it). */
    std::uint64_t growth() const { return growth_; }

  private:
    struct Range
    {
        std::uint64_t lo, hi;
    };

    std::vector<Range> r_; //!< sorted, disjoint, never adjacent
    std::uint64_t growth_ = 0;
};

} // namespace damn::fuzz

#endif // DAMN_FUZZ_INTERVAL_SET_HH
