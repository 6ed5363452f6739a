/**
 * @file
 * Kernel-compile-like allocator churn (paper figure 9).
 *
 * Figure 9 runs netperf alongside an iterative kernel compile "which
 * stresses the kernel allocator": the churn keeps claiming and
 * releasing pages with varied lifetimes, so the page allocator keeps
 * handing *different* physical pages to the NIC driver for receive
 * buffers.  Under stock DMA-API protection the set of pages that have
 * *ever* been IOMMU-mapped therefore grows without bound, while the
 * *currently* mapped set stays small — the paper's argument for why
 * partial protection's exposure compounds over time.
 */

#ifndef DAMN_WORK_KBUILD_HH
#define DAMN_WORK_KBUILD_HH

#include <memory>
#include <vector>

#include "mem/page_alloc.hh"
#include "sim/context.hh"

namespace damn::work {

/** Background allocator churn task. */
class KbuildChurn
{
  public:
    KbuildChurn(sim::Context &ctx, mem::PageAllocator &pa)
        : ctx_(ctx), pageAlloc_(pa)
    {}

    /** Begin churning (runs until the engine stops). */
    void
    start()
    {
        tick();
    }

    std::uint64_t bursts() const { return bursts_; }

  private:
    static constexpr sim::TimeNs kIntervalNs = 20 * sim::kNsPerUs;
    static constexpr unsigned kPagesPerBurst = 24;
    /** Uniform random hold time of each burst. */
    static constexpr sim::TimeNs kMinHoldNs = 200 * sim::kNsPerUs;
    static constexpr sim::TimeNs kMaxHoldNs = 20 * sim::kNsPerMs;

    struct Burst
    {
        std::vector<std::pair<mem::Pfn, unsigned>> blocks;
    };

    void
    tick()
    {
        // Claim a burst of mixed-order blocks (object files, dentries,
        // page cache, short-lived task stacks).  Mixed orders make the
        // churn compete with the NIC driver's receive-buffer blocks in
        // the buddy free lists.
        auto burst = std::make_shared<Burst>();
        unsigned pages = 0;
        while (pages < kPagesPerBurst) {
            const auto order = unsigned(ctx_.rng.below(5));
            const mem::Pfn pfn = pageAlloc_.allocPages(order, 0);
            if (pfn != mem::kInvalidPfn)
                burst->blocks.push_back({pfn, order});
            pages += 1u << order;
        }
        ++bursts_;
        ctx_.stats.add(sim::Ctr::KbuildBursts);
        ctx_.stats.add(sim::Ctr::KbuildPages, pages);

        const sim::TimeNs hold = ctx_.rng.between(kMinHoldNs, kMaxHoldNs);
        ctx_.engine.scheduleIn(hold, [this, burst] {
            for (const auto &[pfn, order] : burst->blocks)
                pageAlloc_.freePages(pfn, order);
        });
        ctx_.engine.scheduleIn(kIntervalNs, [this] { tick(); });
    }

    sim::Context &ctx_;
    mem::PageAllocator &pageAlloc_;
    std::uint64_t bursts_ = 0;
};

} // namespace damn::work

#endif // DAMN_WORK_KBUILD_HH
