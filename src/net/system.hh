/**
 * @file
 * A complete simulated machine ("deployment") under one protection
 * scheme: memory, IOMMU, DMA API, and — for the damn scheme — the DAMN
 * allocator wired in as the DMA-API interposition layer.
 *
 * Experiments construct one System per evaluated configuration; there
 * is no global state, so a bench can build five Systems (iommu-off,
 * strict, deferred, shadow, damn) side by side.
 */

#ifndef DAMN_NET_SYSTEM_HH
#define DAMN_NET_SYSTEM_HH

#include <memory>

#include "core/damn_dma.hh"
#include "dma/schemes.hh"
#include "mem/kmalloc.hh"
#include "net/skbuff.hh"

namespace damn::net {

/** Configuration of a simulated machine. */
struct SystemParams
{
    dma::SchemeKind scheme = dma::SchemeKind::IommuOff;
    /** Hardware IOMMU model the machine deploys (VT-d or SMMUv3). */
    iommu::BackendKind backend = iommu::BackendKind::Vtd;
    /** Record trace events (the tracer's per-core rings) from
     *  construction on.  Cost attribution is always on. */
    bool recordTrace = false;
    std::uint64_t physBytes = 1ull << 32;   //!< 4 GiB (sparsely backed)
    sim::CostModel cost{};
    unsigned sockets = 2;
    unsigned coresPerSocket = 14;

    // DAMN variants (Table 3).
    core::DmaCacheConfig damnCache{};

    /**
     * DMA-API IOVA-space budget in bytes; 0 keeps the scheme's full
     * space.  Pressure experiments shrink it to hit the exhaustion
     * wall and exercise forced reclaim.
     */
    std::uint64_t iovaSpaceBytes = 0;
};

/** Everything one experiment machine owns. */
class System
{
  public:
    explicit System(SystemParams p)
        : params(p),
          ctx(p.cost, p.sockets, p.coresPerSocket),
          phys(p.physBytes),
          pageAlloc(phys, p.sockets),
          heap(pageAlloc),
          mmu(ctx, /*enabled=*/schemeUsesIommu(p), p.backend),
          pageFrag(ctx, pageAlloc),
          accessorStorage_()
    {
        if (p.scheme == dma::SchemeKind::Damn) {
            damn = std::make_unique<core::DamnAllocator>(
                ctx, pageAlloc, heap, mmu, p.damnCache);
            // Non-DAMN buffers still get DMA-API protection through
            // the deferred fallback scheme (section 5.3; "damn without
            // iommu" pairs with the passthrough fallback since the
            // IOMMU is off entirely).
            auto fb = p.damnCache.mapInIommu
                ? dma::makeScheme(dma::SchemeKind::Deferred, ctx, mmu,
                                  pageAlloc)
                : dma::makeScheme(dma::SchemeKind::IommuOff, ctx, mmu,
                                  pageAlloc);
            dmaApi = std::make_unique<core::DamnDmaApi>(ctx, *damn,
                                                        std::move(fb));
        } else {
            dmaApi = dma::makeScheme(p.scheme, ctx, mmu, pageAlloc);
        }
        accessorStorage_ = std::make_unique<SkbAccessor>(
            ctx, pageAlloc, heap, pageFrag, damn.get());
        iommu::IovaAllocator *iova = dmaApi->iovaAllocator();
        if (iova && p.iovaSpaceBytes != 0)
            iova->setSpaceBytes(p.iovaSpaceBytes);
        wirePressure();
        if (p.recordTrace)
            ctx.tracer.startRecording();
    }

    /** True when the scheme programs the IOMMU at all. */
    static bool
    schemeUsesIommu(const SystemParams &p)
    {
        if (p.scheme == dma::SchemeKind::IommuOff)
            return false;
        if (p.scheme == dma::SchemeKind::Damn)
            return p.damnCache.mapInIommu;
        return true;
    }

    bool damnMode() const { return damn != nullptr; }

    /**
     * IOVA pages still allocated that domain @p d could hold: the
     * DMA-API space's outstanding pages (all domains) plus, under
     * damn, the DAMN slots of @p d's caches.  0 once every device is
     * drained — the teardown audit's leak check.
     */
    std::uint64_t
    liveIovaPages(iommu::DomainId d)
    {
        const iommu::IovaAllocator *iova = dmaApi->iovaAllocator();
        std::uint64_t n = iova ? iova->outstanding() : 0;
        if (damn)
            n += damn->outstandingIovaSlots(d);
        return n;
    }

    SkbAccessor &accessor() { return *accessorStorage_; }

    SystemParams params;
    sim::Context ctx;
    mem::PhysicalMemory phys;
    mem::PageAllocator pageAlloc;
    mem::KmallocHeap heap;
    iommu::Iommu mmu;
    mem::PageFragAllocator pageFrag;
    std::unique_ptr<core::DamnAllocator> damn;  //!< damn scheme only
    std::unique_ptr<dma::DmaApi> dmaApi;

  private:
    /**
     * Register the machine's resources and reclaim callbacks with the
     * pressure controller (sim/pressure.hh): watermarked usage probes
     * for pages / kmalloc / IOVA space / DAMN caches / shadow pools,
     * and reclaimers registered cheapest-first — force-flush batched
     * invalidations, shrink DAMN magazines, release idle shadow pools.
     */
    void
    wirePressure()
    {
        using Res = sim::PressureResource;
        using Rec = sim::PressureReclaimer;
        auto &pc = ctx.pressure;
        const auto totalFrames = [this] {
            return double(pageAlloc.allocatedFrames() +
                          pageAlloc.freeFrames());
        };

        pc.registerResource(Res::Pages, [this, totalFrames] {
            const double total = totalFrames();
            return total == 0.0
                       ? 0.0
                       : double(pageAlloc.allocatedFrames()) / total;
        });
        pc.registerResource(Res::Kmalloc, [this, totalFrames] {
            const double total = totalFrames();
            return total == 0.0 ? 0.0
                                : double(heap.pinnedPages()) / total;
        });
        iommu::IovaAllocator *iova = dmaApi->iovaAllocator();
        pc.registerResource(Res::Iova, [iova] {
            return iova ? iova->utilization() : 0.0;
        });
        if (damn) {
            pc.registerResource(Res::Damn, [this, totalFrames] {
                const double total = totalFrames() * mem::kPageSize;
                return total == 0.0
                           ? 0.0
                           : double(damn->ownedBytes()) / total;
            });
        }
        if (auto *sh =
                dynamic_cast<dma::ShadowDmaApi *>(dmaApi.get())) {
            pc.registerResource(Res::Shadow, [this, sh, totalFrames] {
                const double total = totalFrames();
                return total == 0.0
                           ? 0.0
                           : double(sh->poolFrames()) / total;
            });
        }

        pc.registerReclaimer(Rec::FlushPending,
                             [this, iova](sim::CpuCursor &cpu) {
            const std::uint64_t before = iova ? iova->outstanding() : 0;
            dmaApi->flushPending(cpu);
            const std::uint64_t after = iova ? iova->outstanding() : 0;
            return before > after ? before - after : 0;
        });
        if (damn) {
            pc.registerReclaimer(Rec::DamnShrink,
                                 [this](sim::CpuCursor &cpu) {
                return damn->shrink(cpu);
            });
        }
        if (auto *sh =
                dynamic_cast<dma::ShadowDmaApi *>(dmaApi.get())) {
            pc.registerReclaimer(Rec::ShadowShrink,
                                 [sh](sim::CpuCursor &cpu) {
                return sh->shrinkIdle(cpu);
            });
        }
    }

    std::unique_ptr<SkbAccessor> accessorStorage_;
};

} // namespace damn::net

#endif // DAMN_NET_SYSTEM_HH
