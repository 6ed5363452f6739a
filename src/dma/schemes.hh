/**
 * @file
 * Concrete DMA-API protection schemes evaluated by the paper.
 */

#ifndef DAMN_DMA_SCHEMES_HH
#define DAMN_DMA_SCHEMES_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dma/dma_api.hh"
#include "iommu/iommu.hh"
#include "iommu/iova_alloc.hh"
#include "mem/page_alloc.hh"
#include "sim/flat_map.hh"

namespace damn::dma {

/** Scheme selector matching the paper's figure legends. */
enum class SchemeKind
{
    IommuOff,
    Strict,
    Deferred,
    Shadow,
    Damn,       //!< constructed by core/, listed here for experiments
};

const char *schemeKindName(SchemeKind k);

/** Parse a scheme name as printed by schemeKindName(); false when
 *  @p name is unknown. */
bool schemeFromName(const std::string &name, SchemeKind *out);

/** Split a command-line name list ("strict,damn") at its commas.
 *  Empty names are kept, so "" and "a,,b" fail the name parser. */
std::vector<std::string> splitNameList(const std::string &list);

/**
 * iommu-off: no protection at all; DMA address == physical address.
 * The paper's unprotected performance baseline.
 */
class PassthroughDmaApi : public DmaApi
{
  public:
    /** Needs nothing from the context; parameter kept so makeScheme
     *  constructs every scheme uniformly. */
    explicit PassthroughDmaApi(sim::Context &) {}

    iommu::Iova
    map(sim::CpuCursor &, Device &, mem::Pa pa, std::uint32_t,
        Dir) override
    {
        return pa;
    }

    void
    unmap(sim::CpuCursor &, Device &, iommu::Iova, std::uint32_t,
          Dir) override
    {}
};

/**
 * Shared machinery for the map side of strict and deferred: allocate an
 * IOVA range, write PTEs for the covering pages.  Page granularity —
 * data co-located on the buffer's pages becomes device-accessible,
 * hence only *partial* protection (paper section 4.1).
 */
class MappedDmaApi : public DmaApi
{
  public:
    MappedDmaApi(sim::Context &ctx, iommu::Iommu &mmu)
        : ctx_(ctx), iommu_(mmu)
    {}

    iommu::Iova map(sim::CpuCursor &cpu, Device &dev, mem::Pa pa,
                    std::uint32_t len, Dir dir) override;

    iommu::IovaAllocator *iovaAllocator() override { return &iovaAlloc_; }

  protected:
    /** Covering page count of a (pa, len) buffer. */
    static unsigned
    coveringPages(mem::Pa pa, std::uint32_t len)
    {
        const mem::Pa start = pa & ~(mem::kPageSize - 1);
        const mem::Pa end = pa + len;
        return unsigned((end - start + mem::kPageSize - 1) >>
                        mem::kPageShift);
    }

    /** Clear the PTEs of a mapping (both schemes do this eagerly). */
    void clearPtes(sim::CpuCursor &cpu, Device &dev, iommu::Iova dma_addr,
                   std::uint32_t len, iommu::Iova *iova_base,
                   unsigned *pages);

    /**
     * IOVA allocation with the kernel's fq_ring-style fallback: on
     * exhaustion, force the scheme's batched invalidations out (which
     * recycles pinned ranges under the deferred scheme), then fall
     * back to generic pressure reclaim, retrying after each step.
     * @return the range, or iommu::kInvalidIova when still exhausted.
     */
    iommu::Iova allocIovaWithReclaim(sim::CpuCursor &cpu,
                                     unsigned pages);

    sim::Context &ctx_;
    iommu::Iommu &iommu_;
    iommu::IovaAllocator iovaAlloc_;
};

/**
 * strict: dma_unmap synchronously invalidates the IOTLB before
 * returning.  Secure at page granularity, but every unmap takes the
 * global invalidation-queue lock for the full hardware round trip.
 */
class StrictDmaApi : public MappedDmaApi
{
  public:
    using MappedDmaApi::MappedDmaApi;

    void unmap(sim::CpuCursor &cpu, Device &dev, iommu::Iova dma_addr,
               std::uint32_t len, Dir dir) override;

    /** dma_unmap_sg: one synchronous invalidation for the whole list. */
    void unmapBatch(sim::CpuCursor &cpu, Device &dev,
                    std::span<const UnmapReq> reqs) override;

  private:
    /** unmapBatch's invalidation list, reused across calls. */
    std::vector<iommu::IommuBackend::InvalRange> ranges_;
};

/**
 * deferred (Linux default): dma_unmap clears PTEs but batches IOTLB
 * invalidation until ~250 requests accumulate or 10 ms pass.  Until the
 * flush, a device with a warm IOTLB entry can still access the buffer —
 * the TOCTTOU / data-theft window the paper demonstrates.
 */
class DeferredDmaApi : public MappedDmaApi
{
  public:
    using MappedDmaApi::MappedDmaApi;

    void unmap(sim::CpuCursor &cpu, Device &dev, iommu::Iova dma_addr,
               std::uint32_t len, Dir dir) override;

    void flushPending(sim::CpuCursor &cpu) override;

    unsigned pendingFlushes() const { return unsigned(flushQueue_.size()); }

  private:
    void armTimer(sim::CoreId core);

    struct PendingUnmap
    {
        iommu::DomainId domain;
        iommu::Iova iova;
        unsigned pages;
    };

    std::vector<PendingUnmap> flushQueue_;
    /** flushPending's domain list, reused across flushes. */
    std::vector<iommu::DomainId> flushDomains_;
    bool timerArmed_ = false;
};

/**
 * shadow buffers (Markuze et al., ASPLOS'16): DMA is restricted to a
 * pool of permanently-mapped shadow pages; map/unmap copy data between
 * the driver's buffer and a shadow buffer.  Full byte-granularity
 * protection, no invalidations — but one extra copy per DMAed byte.
 */
class ShadowDmaApi : public DmaApi
{
  public:
    ShadowDmaApi(sim::Context &ctx, iommu::Iommu &mmu,
                 mem::PageAllocator &pa);

    iommu::Iova map(sim::CpuCursor &cpu, Device &dev, mem::Pa pa,
                    std::uint32_t len, Dir dir) override;
    void unmap(sim::CpuCursor &cpu, Device &dev, iommu::Iova dma_addr,
               std::uint32_t len, Dir dir) override;

    /** Frames pinned by shadow pools (all devices). */
    std::uint64_t poolFrames() const { return poolFrames_; }

    iommu::IovaAllocator *iovaAllocator() override { return &iovaAlloc_; }

    /**
     * Pressure shrinker: release the pool blocks of every domain with
     * no in-flight shadow map (blocks cannot be released piecemeal —
     * live shadow buffers are scattered across them).  Registered with
     * the PressureController; also safe to call directly.
     * @return 4 KiB pages released.
     */
    std::uint64_t shrinkIdle(sim::CpuCursor &cpu);

    /**
     * Teardown: abort in-flight shadow maps for @p dev's domain, unmap
     * and free every pool block, and release the IOVAs.  The pool is
     * rebuilt lazily on the next map() after a replug.
     */
    std::uint64_t drainDomain(sim::CpuCursor &cpu, Device &dev) override;

  private:
    struct ShadowBuf
    {
        mem::Pa pa;
        iommu::Iova iova;
        unsigned bucket;
    };

    struct ActiveMap
    {
        ShadowBuf buf;
        mem::Pa origPa;
        std::uint32_t len;
        Dir dir;
        iommu::DomainId domain;
    };

    /** Shadow buckets: powers of two from 512 B to 128 KiB. */
    static constexpr unsigned kNumBuckets = 9;

    /** Per-device shadow pool: permanently-mapped, bucketed free lists. */
    struct Pool
    {
        std::array<std::vector<ShadowBuf>, kNumBuckets> buckets;
        /** Backing order-5 blocks: (first frame, base IOVA). */
        std::vector<std::pair<mem::Pfn, iommu::Iova>> blocks;
        /** Entries of active_ in this pool's domain. */
        std::uint64_t inFlight = 0;
    };

    static unsigned bucketFor(std::uint32_t len);
    mem::PhysicalMemory &pm() { return pageAlloc_.phys(); }
    /** Returns a buf with pa == 0 when pool growth fails (pressure). */
    ShadowBuf poolAlloc(sim::CpuCursor &cpu, Device &dev,
                        std::uint32_t len);
    void poolFree(Device &dev, const ShadowBuf &buf);
    Pool &poolOf(Device &dev);
    /** Unmap + free every backing block of @p pool (domain @p d). */
    std::uint64_t releasePool(sim::CpuCursor &cpu, iommu::DomainId d,
                              Pool &pool);

    sim::Context &ctx_;
    iommu::Iommu &iommu_;
    mem::PageAllocator &pageAlloc_;
    iommu::IovaAllocator iovaAlloc_;
    /** Indexed by DomainId (domains are numbered densely from 0). */
    std::vector<Pool> pools_;
    /** In-flight shadow maps by the shadow IOVA handed to the driver. */
    sim::FlatMap<ActiveMap> active_;
    std::uint64_t poolFrames_ = 0;
};

/**
 * Construct a DMA-API-based scheme.  SchemeKind::Damn is built by
 * core/damn_dma.hh (it needs the DAMN allocator).
 */
std::unique_ptr<DmaApi> makeScheme(SchemeKind kind, sim::Context &ctx,
                                   iommu::Iommu &mmu,
                                   mem::PageAllocator &pa);

} // namespace damn::dma

#endif // DAMN_DMA_SCHEMES_HH
