/**
 * @file
 * The DMA API: the layer at which all *prior* IOMMU protection schemes
 * enforce their boundary (paper sections 3-4).
 *
 * Drivers dma_map a buffer before programming a device with its DMA
 * address and dma_unmap it on completion.  The pluggable protection
 * scheme decides what those operations cost and what security they buy:
 *
 *  - passthrough  (iommu-off): DMA address == physical address.
 *  - strict:      unmap synchronously invalidates the IOTLB.
 *  - deferred:    unmap batches invalidations (vulnerability window).
 *  - shadow:      per-DMA copy through permanently-mapped shadow pages.
 *
 * DAMN's interposition layer (core/damn_dma.hh) wraps any of these as
 * the fallback path for non-DAMN buffers (paper section 5.3).
 */

#ifndef DAMN_DMA_DMA_API_HH
#define DAMN_DMA_DMA_API_HH

#include <cstdint>
#include <span>

#include "dma/device.hh"
#include "dma/dma_types.hh"
#include "iommu/iova_alloc.hh"
#include "sim/cpu_cursor.hh"

namespace damn::dma {

/**
 * Abstract DMA-mapping API with a pluggable protection scheme.
 */
class DmaApi
{
  public:
    virtual ~DmaApi() = default;

    /**
     * Map @p len bytes at kernel address @p pa for DMA by @p dev.
     * Charges the scheme's CPU costs to @p cpu.
     * @return the DMA address to program into the device, or
     *         kMapFailed when the scheme's resources are exhausted and
     *         forced reclaim could not recover them.
     */
    virtual iommu::Iova map(sim::CpuCursor &cpu, Device &dev, mem::Pa pa,
                            std::uint32_t len, Dir dir) = 0;

    /**
     * Unmap a previously mapped buffer.  @p dma_addr and @p len must
     * match the map call.
     */
    virtual void unmap(sim::CpuCursor &cpu, Device &dev,
                       iommu::Iova dma_addr, std::uint32_t len,
                       Dir dir) = 0;

    /** One entry of a scatter-gather unmap. */
    struct UnmapReq
    {
        iommu::Iova dmaAddr;
        std::uint32_t len;
        Dir dir;
    };

    /**
     * Unmap a scatter-gather list (dma_unmap_sg): schemes that pay a
     * per-invalidation cost issue a single IOTLB invalidation for the
     * whole list, as Linux does.  Default: per-entry unmap.
     */
    virtual void
    unmapBatch(sim::CpuCursor &cpu, Device &dev,
               std::span<const UnmapReq> reqs)
    {
        for (const UnmapReq &r : reqs)
            unmap(cpu, dev, r.dmaAddr, r.len, r.dir);
    }

    /** Force any batched invalidations out now (deferred scheme). */
    virtual void flushPending(sim::CpuCursor &) {}

    /**
     * The scheme's DMA-API IOVA space, or nullptr when the scheme
     * allocates no IOVAs (iommu-off).  Pressure experiments shrink it
     * to hit the exhaustion wall, the pressure controller reads its
     * utilization, and teardown audits its outstanding() pages (0
     * after every device drained).
     */
    virtual iommu::IovaAllocator *iovaAllocator() { return nullptr; }

    // ---- Lifecycle / teardown --------------------------------------

    /**
     * Release every *long-lived* per-domain resource the scheme keeps
     * for @p dev (shadow pools, deferred queues) so the domain can be
     * detached with zero live mappings.  Per-buffer mappings the driver
     * still holds are its own to unmap first.  Also flushes pending
     * invalidations.
     * @return 4 KiB mappings this call released.
     */
    virtual std::uint64_t
    drainDomain(sim::CpuCursor &cpu, Device &dev)
    {
        (void)dev;
        flushPending(cpu);
        return 0;
    }
};

} // namespace damn::dma

#endif // DAMN_DMA_DMA_API_HH
