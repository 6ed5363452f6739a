/**
 * @file
 * DAMN's DMA-API interposition (paper section 5.3).
 *
 * Drivers are unmodified: they still call dma_map/dma_unmap on every
 * buffer.  This layer checks whether the buffer was allocated by DAMN:
 *
 *  - dma_map of a DAMN buffer returns its permanent IOVA (a page-flag
 *    check plus a tail-page read); anything else falls back to the
 *    configured legacy scheme.
 *  - dma_unmap inspects the MSB of the DMA address (figure 3): a DAMN
 *    IOVA needs no teardown — the call returns immediately.
 */

#ifndef DAMN_CORE_DAMN_DMA_HH
#define DAMN_CORE_DAMN_DMA_HH

#include <memory>
#include <vector>

#include "core/damn_allocator.hh"
#include "dma/dma_api.hh"
#include "sim/tracer.hh"

namespace damn::core {

/** DMA API with DAMN interposition over a legacy fallback scheme. */
class DamnDmaApi : public dma::DmaApi
{
  public:
    DamnDmaApi(sim::Context &ctx, DamnAllocator &alloc,
               std::unique_ptr<dma::DmaApi> fallback)
        : ctx_(ctx), alloc_(alloc), fallback_(std::move(fallback))
    {}

    iommu::Iova
    map(sim::CpuCursor &cpu, dma::Device &dev, mem::Pa pa,
        std::uint32_t len, dma::Dir dir) override
    {
        sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::DmaMap,
                            "dma.map");
        span.bytes(len);
        cpu.charge(ctx_.cost.damnMapLookupNs);
        if (alloc_.isDamnBuffer(pa)) {
            // Long-lived mapping already exists; just look up the IOVA.
            ctx_.stats.add(sim::Ctr::DamnMapHits);
            return alloc_.iovaOf(pa);
        }
        return fallback_->map(cpu, dev, pa, len, dir);
    }

    void
    unmap(sim::CpuCursor &cpu, dma::Device &dev, iommu::Iova dma_addr,
          std::uint32_t len, dma::Dir dir) override
    {
        sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::DmaUnmap,
                            "dma.unmap");
        span.bytes(len);
        cpu.charge(ctx_.cost.damnUnmapCheckNs);
        if (isDamnIova(dma_addr)) {
            // Nothing to tear down; the buffer is freed later by the
            // networking subsystem through damn_free.
            ctx_.stats.add(sim::Ctr::DamnUnmapHits);
            return;
        }
        fallback_->unmap(cpu, dev, dma_addr, len, dir);
    }

    void
    unmapBatch(sim::CpuCursor &cpu, dma::Device &dev,
               std::span<const UnmapReq> reqs) override
    {
        legacy_.clear();
        for (const UnmapReq &r : reqs) {
            cpu.charge(ctx_.cost.damnUnmapCheckNs);
            if (isDamnIova(r.dmaAddr))
                ctx_.stats.add(sim::Ctr::DamnUnmapHits);
            else
                legacy_.push_back(r);
        }
        if (!legacy_.empty())
            fallback_->unmapBatch(cpu, dev, legacy_);
    }

    void
    flushPending(sim::CpuCursor &cpu) override
    {
        fallback_->flushPending(cpu);
    }

    std::uint64_t
    drainDomain(sim::CpuCursor &cpu, dma::Device &dev) override
    {
        // DAMN's long-lived mappings are the chunk caches; drain them
        // (bump retire + shrink + scoped flush) and then let the
        // fallback release whatever it keeps per domain.
        const std::uint64_t bytes = alloc_.drainDomain(cpu, dev.domain());
        return bytes / mem::kPageSize +
               fallback_->drainDomain(cpu, dev);
    }

    // DAMN's own IOVAs are metadata-encoded (not range-allocated), so
    // the only IOVA space is the fallback scheme's.
    iommu::IovaAllocator *
    iovaAllocator() override
    {
        return fallback_->iovaAllocator();
    }

    DamnAllocator &allocator() { return alloc_; }
    dma::DmaApi &fallback() { return *fallback_; }

  private:
    sim::Context &ctx_;
    DamnAllocator &alloc_;
    std::unique_ptr<dma::DmaApi> fallback_;
    /** unmapBatch's non-DAMN requests, reused across calls. */
    std::vector<UnmapReq> legacy_;
};

} // namespace damn::core

#endif // DAMN_CORE_DAMN_DMA_HH
