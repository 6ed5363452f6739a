/**
 * @file
 * The worker pool behind `damn_bench --jobs` and `damn_fuzz --jobs`.
 *
 * Each item is an independent simulated machine, so the pool needs no
 * synchronization beyond handing out indices; callers write results
 * into a slot per index and read them back in index order, which keeps
 * output byte-identical for any worker count.
 */

#ifndef DAMN_SIM_PARALLEL_HH
#define DAMN_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace damn::sim {

/**
 * Run @p fn(0) .. @p fn(n-1) on up to @p workers threads (workers <= 1
 * runs them in a plain loop on the calling thread).  Workers claim
 * indices atomically, so every item runs exactly once, and a throwing
 * item does not stop the others.  Once all items are done, the
 * exception of the lowest failing index is rethrown.
 */
void parallelFor(std::size_t n, unsigned workers,
                 const std::function<void(std::size_t)> &fn);

} // namespace damn::sim

#endif // DAMN_SIM_PARALLEL_HH
