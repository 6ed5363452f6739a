/**
 * @file
 * IOVA range allocator for the DMA-API half of the address space.
 *
 * DAMN partitions the 48-bit IOVA space by the MSB (paper section 5.4):
 * bit 47 == 0 is managed here for DMA-API mappings, bit 47 == 1 belongs
 * to DAMN's encoded IOVAs (core/iova_encoding.hh).  Functionally this is
 * a recycling free-list allocator with Linux-4.7-style per-CPU caching
 * semantics; timing costs are charged by the protection schemes using
 * CostModel::iovaAllocNs / iovaAllocSlowNs.
 */

#ifndef DAMN_IOMMU_IOVA_ALLOC_HH
#define DAMN_IOMMU_IOVA_ALLOC_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

#include "iommu/io_pgtable.hh"
#include "mem/phys.hh"

namespace damn::iommu {

/** First allocatable IOVA (skip the null page). */
constexpr Iova kIovaBase = 0x10000;
/** DAMN's half of the address space starts here (bit 47 set). */
constexpr Iova kDamnIovaBit = 1ull << 47;
/** Returned by IovaAllocator::alloc when the space is exhausted. */
constexpr Iova kInvalidIova = ~Iova{0};

/**
 * Page-granular IOVA range allocator with size-bucketed recycling.
 * Single instance per IOMMU domain, as in Linux.
 *
 * Exhaustion is a *recoverable* condition: alloc() returns
 * kInvalidIova, and the caller (the protection scheme) is expected to
 * reclaim — force a deferred flush, shrink a pool — and retry, the way
 * Linux falls back to flushing the fq_ring when the rbtree is full.
 */
class IovaAllocator
{
  public:
    IovaAllocator() = default;

    /**
     * Allocate a range of @p pages IOVA pages.
     * @return page-aligned IOVA below the DAMN bit, or kInvalidIova
     *         when the (possibly setSpaceBytes()-shrunk) space has no
     *         fresh range left and no recycled range of this size.
     */
    Iova
    alloc(unsigned pages)
    {
        assert(pages > 0);
        auto &bucket = freeLists_[pages];
        if (!bucket.empty()) {
            const Iova iova = bucket.back();
            bucket.pop_back();
            ++recycled_;
            outstanding_ += pages;
            return iova;
        }
        const std::uint64_t bytes = std::uint64_t(pages) * mem::kPageSize;
        if (next_ + bytes > limit_) {
            // Fresh space exhausted: split the smallest recycled range
            // that still fits (Linux's rbtree allocator reuses any
            // free range; a strict size-bucket miss here would turn
            // harmless fragmentation into permanent exhaustion).
            for (auto it = freeLists_.upper_bound(pages);
                 it != freeLists_.end(); ++it) {
                if (it->second.empty())
                    continue;
                const Iova iova = it->second.back();
                it->second.pop_back();
                const unsigned rest = it->first - pages;
                freeLists_[rest].push_back(iova + bytes);
                ++recycled_;
                ++splits_;
                outstanding_ += pages;
                return iova;
            }
            ++failures_;
            return kInvalidIova;
        }
        const Iova iova = next_;
        next_ += bytes;
        ++fresh_;
        outstanding_ += pages;
        return iova;
    }

    /**
     * Constrain the allocatable space to @p bytes past kIovaBase
     * (experiments use small spaces to reach the exhaustion wall
     * quickly).  Defaults to the full DMA-API half.  Shrinking below
     * the high-water mark only affects future fresh allocations.
     */
    void
    setSpaceBytes(std::uint64_t bytes)
    {
        limit_ = std::min(kDamnIovaBit, kIovaBase + bytes);
    }

    /** Current ceiling of the allocatable space, bytes past base. */
    std::uint64_t spaceBytes() const { return limit_ - kIovaBase; }

    /** Utilization of the configured space in [0, 1], counting the
     *  high-water mark (recycled ranges still occupy address space). */
    double
    utilization() const
    {
        return double(next_ - kIovaBase) / double(limit_ - kIovaBase);
    }

    /** Return a range for reuse. */
    void
    free(Iova iova, unsigned pages)
    {
        assert(outstanding_ >= pages && "double free of IOVA range");
        outstanding_ -= pages;
        freeLists_[pages].push_back(iova);
    }

    std::uint64_t recycled() const { return recycled_; }
    std::uint64_t fresh() const { return fresh_; }
    /** Failed alloc() calls (space exhausted). */
    std::uint64_t failures() const { return failures_; }
    /** Recycled ranges split to satisfy a smaller request. */
    std::uint64_t splits() const { return splits_; }
    /** High-water mark of the IOVA space, bytes. */
    std::uint64_t spaceUsed() const { return next_ - kIovaBase; }
    /** Pages currently allocated and not yet freed (leak detector). */
    std::uint64_t outstanding() const { return outstanding_; }

  private:
    Iova next_ = kIovaBase;
    Iova limit_ = kDamnIovaBit;
    std::map<unsigned, std::vector<Iova>> freeLists_;
    std::uint64_t recycled_ = 0;
    std::uint64_t fresh_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t splits_ = 0;
    std::uint64_t outstanding_ = 0;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_IOVA_ALLOC_HH
