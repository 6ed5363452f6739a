/**
 * @file
 * The DMA cache: DAMN's per-(device, rights, NUMA) allocator
 * (paper section 5.4).
 *
 * Two-level hierarchy:
 *  - bottom: magazines + depot caching *chunks* (C = 16 physically
 *    contiguous pages = 64 KiB), each permanently IOMMU-mapped for the
 *    owning device with the cache's access rights;
 *  - top: per-core bump-pointer allocators that carve a chunk to
 *    satisfy requests, with a per-chunk reference count held in the
 *    head page struct (the kernel "page frag" pattern).
 *
 * Two bump allocators per core — one for byte allocations (damn_alloc)
 * and one for page-aligned allocations (damn_alloc_pages) — and the
 * whole per-core structure is physically duplicated per execution
 * context (standard vs interrupt) so no interrupt disabling is needed
 * on the fast path.
 */

#ifndef DAMN_CORE_DMA_CACHE_HH
#define DAMN_CORE_DMA_CACHE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/iova_encoding.hh"
#include "core/magazine.hh"
#include "iommu/iommu.hh"
#include "mem/page_alloc.hh"
#include "sim/context.hh"
#include "sim/cpu_cursor.hh"

namespace damn::core {

/** Execution context of an allocation (paper: two physical copies). */
enum class AllocCtx : std::uint8_t
{
    Standard = 0,   //!< process/syscall context (TX path)
    Interrupt = 1,  //!< irq/softirq context (RX path)
};

/** C: pages per chunk (paper section 5.4), a power of two. */
constexpr unsigned kChunkOrder = 4;
constexpr unsigned kChunkPages = 1u << kChunkOrder; //!< 64 KiB chunks
constexpr std::uint64_t kChunkBytes = kChunkPages * mem::kPageSize;
static_assert(kChunkPages >= 4,
              "compound metadata needs the third page struct");

/** Tunables, including the Table-3 analysis variants. */
struct DmaCacheConfig
{
    unsigned magazineCapacity = 16; //!< M
    bool mapInIommu = true;         //!< false: "damn without iommu"
    /** Dense IOVAs (no metadata encoding) mapped with 2 MiB IOVA
     *  pages. */
    bool hugeIovaPages = false;
};

/**
 * One DMA cache.  Thread-safety is by construction: per-core state is
 * indexed by the cursor's core, and depot access is modeled through a
 * virtual-time lock.
 */
class DmaCache : public ChunkSource
{
  public:
    DmaCache(sim::Context &ctx, mem::PageAllocator &pa,
             iommu::Iommu &mmu, iommu::DomainId domain,
             std::uint32_t cache_id, std::uint32_t dev_idx,
             Rights rights, sim::NumaId numa,
             const DmaCacheConfig &config);

    ~DmaCache() override = default;
    DmaCache(const DmaCache &) = delete;
    DmaCache &operator=(const DmaCache &) = delete;

    /**
     * Allocate @p size bytes (<= chunk size) from the calling core's
     * bump allocator for context @p actx.
     *
     * @param align  required alignment (8 for damn_alloc, the natural
     *               block size for damn_alloc_pages).
     * @return kernel address of the buffer, or 0 on OOM.
     */
    mem::Pa alloc(sim::CpuCursor &cpu, std::uint32_t size,
                  std::uint32_t align, AllocCtx actx);

    /**
     * A chunk's refcount dropped to zero (all buffers freed): recycle
     * it into the freeing core's magazine layer.
     */
    void recycleChunk(sim::CpuCursor &cpu, const Chunk &chunk,
                      AllocCtx actx);

    /** IOVA of a buffer inside one of this cache's chunks. */
    iommu::Iova iovaOf(mem::Pa pa) const;

    // ChunkSource interface (used by the depot).
    Chunk allocChunk(sim::CpuCursor &cpu) override;
    void releaseChunk(sim::CpuCursor &cpu, const Chunk &c) override;

    /**
     * Memory-pressure shrinker (paper section 5.4): drop every chunk
     * cached in magazines and the depot back to the OS.  Chunks with
     * live allocations are untouched.  The caller must follow with an
     * IOTLB flush before the freed pages are reused.
     * @return chunks released.
     */
    std::uint64_t shrink(sim::CpuCursor &cpu);

    /**
     * Teardown drain: retire every per-core bump chunk (dropping the
     * allocator's bias reference, so idle chunks become reclaimable)
     * and then shrink().  After a drain, ownedChunks() counts only
     * chunks with buffers the workload still holds.
     * @return chunks released to the OS.
     */
    std::uint64_t drain(sim::CpuCursor &cpu);

    /**
     * IOVA slots handed out and not yet recycled.  Equals ownedChunks()
     * after a complete drain; the audit flags any excess as a leak.
     */
    std::uint64_t outstandingIovaSlots() const;

    /** Total chunks currently owned (live + cached). */
    std::uint64_t ownedChunks() const { return ownedChunks_; }
    /** Bytes of memory owned by this cache. */
    std::uint64_t
    ownedBytes() const
    {
        return ownedChunks_ * kChunkBytes;
    }

    std::uint32_t cacheId() const { return cacheId_; }
    Rights rights() const { return rights_; }
    sim::NumaId numa() const { return numa_; }
    std::uint32_t devIdx() const { return devIdx_; }
    iommu::DomainId domain() const { return domain_; }
    const DmaCacheConfig &config() const { return config_; }
    const Depot &depot() const { return depot_; }

  private:
    /** Bump-pointer state over the current chunk. */
    struct BumpState
    {
        Chunk chunk;            //!< invalid when no chunk installed
        std::uint32_t offset = 0;
    };

    /** Per-core, per-context allocator state. */
    struct PerCore
    {
        Magazine loaded;
        Magazine prev;
        BumpState bump;         //!< damn_alloc carving
        BumpState pageBump;     //!< damn_alloc_pages carving
    };

    PerCore &
    state(sim::CoreId core, AllocCtx actx)
    {
        return perCore_[core][unsigned(actx)];
    }

    /** Magazine-protocol chunk acquisition. */
    Chunk getChunk(sim::CpuCursor &cpu, PerCore &pc);
    /** Magazine-protocol chunk return. */
    void putChunk(sim::CpuCursor &cpu, PerCore &pc, const Chunk &c);

    /** Drop the allocator's bias reference on a retiring bump chunk. */
    void retireBumpChunk(sim::CpuCursor &cpu, PerCore &pc, BumpState &bs);

    /** Set up compound-page metadata on a fresh chunk. */
    void initCompound(const Chunk &c);
    /** Tear down compound-page metadata (release path). */
    void clearCompound(const Chunk &c);

    /** Allocate the chunk's IOVA per the configured encoding. */
    iommu::Iova allocChunkIova(sim::CoreId creating_core);

    /** Huge-page mode: round the dense cursor up to 2 MiB. */
    std::uint64_t alignUp32MiB();

    sim::Context &ctx_;
    mem::PageAllocator &pageAlloc_;
    iommu::Iommu &iommu_;
    iommu::DomainId domain_;
    std::uint32_t cacheId_;
    std::uint32_t devIdx_;
    Rights rights_;
    sim::NumaId numa_;
    DmaCacheConfig config_;

    Depot depot_;
    std::vector<std::array<PerCore, 2>> perCore_;

    // IOVA slot management (metadata encoding mode).
    std::vector<std::uint64_t> freeSlots_;
    std::uint64_t nextSlot_ = 0;
    // Dense mode: simple bump inside this cache's private dense region.
    std::uint64_t denseNext_ = 0;
    // Huge-page mode: carved-but-unused chunks of the current 2 MiB
    // physical block.
    std::vector<Chunk> hugeCarved_;

    std::uint64_t ownedChunks_ = 0;
};

} // namespace damn::core

#endif // DAMN_CORE_DMA_CACHE_HH
