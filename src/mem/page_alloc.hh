/**
 * @file
 * Buddy page allocator with NUMA zones.
 *
 * The functional analog of Linux's zoned buddy allocator: physically
 * contiguous order-k blocks, split/merge on demand, one zone per NUMA
 * node with fallback to remote nodes on exhaustion.  DAMN's depot layer
 * sits directly on top of this (paper section 5.4), as does the kmalloc
 * slab layer.
 */

#ifndef DAMN_MEM_PAGE_ALLOC_HH
#define DAMN_MEM_PAGE_ALLOC_HH

#include <cstdint>
#include <set>
#include <vector>

#include "mem/phys.hh"
#include "sim/types.hh"

namespace damn::mem {

/** Returned when an allocation cannot be satisfied. */
constexpr Pfn kInvalidPfn = ~Pfn{0};

/** Zoned buddy allocator over a PhysicalMemory. */
class PageAllocator
{
  public:
    static constexpr unsigned kMaxOrder = 10; //!< up to 4 MiB blocks

    /**
     * @param pm     backing physical memory; frame 0 is reserved so
     *               Pa 0 can serve as a null pointer.
     * @param zones  number of NUMA zones; the frame space is split
     *               equally among them.
     */
    PageAllocator(PhysicalMemory &pm, unsigned zones = 2);

    PageAllocator(const PageAllocator &) = delete;
    PageAllocator &operator=(const PageAllocator &) = delete;

    /**
     * Allocate 2^order physically contiguous pages, preferring
     * @p node, falling back to other zones.
     *
     * @param zero  scrub the block before returning it.
     * @return head pfn, or kInvalidPfn if memory is exhausted.
     */
    Pfn allocPages(unsigned order, sim::NumaId node = 0, bool zero = false);

    /** Free a block previously returned by allocPages. */
    void freePages(Pfn pfn, unsigned order);

    /** NUMA node owning a frame. */
    sim::NumaId nodeOf(Pfn pfn) const;

    /** Frames currently allocated (any order). */
    std::uint64_t allocatedFrames() const { return allocatedFrames_; }
    /** Free frames in a zone. */
    std::uint64_t freeFramesInZone(unsigned zone) const;
    /** Total free frames. */
    std::uint64_t freeFrames() const;
    /** Lifetime allocation count (calls, not frames). */
    std::uint64_t allocCalls() const { return allocCalls_; }

    PhysicalMemory &phys() { return pm_; }

  private:
    /**
     * One NUMA zone.  Max-order blocks at or above the high-water mark
     * `untouched` are free and have never been handed out: they are in
     * no free list and their Page structs are still all-zero, so a
     * zone costs nothing to build.  Invariant: every entry of
     * free[kMaxOrder] lies below `untouched`, so the lowest free
     * max-order block is free[kMaxOrder].begin() when that list is
     * non-empty and the block at the mark otherwise.
     */
    struct Zone
    {
        Pfn base;
        Pfn frames;
        // Free blocks per order; ordered sets make splits/merges
        // deterministic and allow O(log n) removal of a specific buddy.
        std::vector<std::set<Pfn>> free;
        std::uint64_t freeFrames = 0;
        Pfn untouched = 0; //!< first never-allocated max-order block
    };

    Pfn allocFromZone(Zone &z, unsigned order, bool zero);
    void freeToZone(Zone &z, Pfn pfn, unsigned order);
    Zone &zoneOf(Pfn pfn);

    PhysicalMemory &pm_;
    std::vector<Zone> zones_;
    std::uint64_t allocatedFrames_ = 0;
    std::uint64_t allocCalls_ = 0;
};

} // namespace damn::mem

#endif // DAMN_MEM_PAGE_ALLOC_HH
