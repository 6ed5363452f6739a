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

#include <cstddef>
#include <cstdint>
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
     * @throws std::invalid_argument unless a zone is a whole, non-zero
     *         number of max-order blocks (so buddies share a zone).
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
     * The free blocks of one (zone, order) in bitmaps_: bit i of
     * `words` is block i (pfn = zone base + (i << order)), bit w of
     * `summary` says words[w] is non-zero.
     */
    struct FreeList
    {
        std::uint64_t *words = nullptr;
        std::uint64_t *summary = nullptr;
        std::uint64_t count = 0; //!< set bits
        std::size_t first = 0;   //!< no summary word below it is set

        bool empty() const { return count == 0; }
        /** Test-and-set (@p free) or test-and-clear block @p i, so a
         *  double free cannot make `count` drift; false if unchanged. */
        bool mark(std::uint64_t i, bool free);
        std::uint64_t popLowest(); //!< take the lowest free block
    };

    /** One NUMA zone.  Max-order blocks from `untouched` up are free,
     *  in no list and never written, so a zone costs nothing to build;
     *  every block on free[kMaxOrder] lies below the mark. */
    struct Zone
    {
        Pfn base;
        Pfn frames;
        FreeList free[kMaxOrder + 1]; //!< lowest block first, per order
        std::uint64_t freeFrames = 0;
        Pfn untouched = 0; //!< first never-allocated max-order block
    };

    Pfn allocFromZone(Zone &z, unsigned order, bool zero);
    void freeToZone(Zone &z, Pfn pfn, unsigned order);

    PhysicalMemory &pm_;
    ZeroFilledArray<std::uint64_t> bitmaps_; //!< every FreeList's bits
    std::vector<Zone> zones_;
    std::uint64_t allocatedFrames_ = 0;
    std::uint64_t allocCalls_ = 0;
};

} // namespace damn::mem

#endif // DAMN_MEM_PAGE_ALLOC_HH
