/**
 * @file
 * Protection scheme implementations.
 */

#include "dma/schemes.hh"

#include <algorithm>
#include <cassert>

#include "sim/tracer.hh"

namespace damn::dma {

const char *
schemeKindName(SchemeKind k)
{
    switch (k) {
      case SchemeKind::IommuOff:
        return "iommu-off";
      case SchemeKind::Strict:
        return "strict";
      case SchemeKind::Deferred:
        return "deferred";
      case SchemeKind::Shadow:
        return "shadow";
      case SchemeKind::Damn:
        return "damn";
    }
    return "?";
}

bool
schemeFromName(const std::string &name, SchemeKind *out)
{
    for (const SchemeKind k :
         {SchemeKind::IommuOff, SchemeKind::Strict, SchemeKind::Deferred,
          SchemeKind::Shadow, SchemeKind::Damn}) {
        if (name == schemeKindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
splitNameList(const std::string &list)
{
    std::vector<std::string> names;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = list.find(',', start);
        names.push_back(list.substr(start, comma - start));
        if (comma == std::string::npos)
            return names;
        start = comma + 1;
    }
}

// ---------------------------------------------------------------------
// MappedDmaApi (shared map path of strict/deferred)
// ---------------------------------------------------------------------

iommu::Iova
MappedDmaApi::allocIovaWithReclaim(sim::CpuCursor &cpu, unsigned pages)
{
    iommu::Iova iova = iovaAlloc_.alloc(pages);
    if (iova != iommu::kInvalidIova)
        return iova;

    // IOVA space exhausted.  The kernel's fallback (the fq_ring flush
    // in iova_rcache): force the batched invalidations out now, which
    // under the deferred scheme frees every pinned range, then retry.
    ctx_.stats.add(sim::Ctr::IommuIovaExhausted);
    ctx_.stats.add(sim::Ctr::IommuIovaForcedFlushes);
    ctx_.tracer.instant(cpu.id(), sim::TraceCat::Fault,
                        "iommu.iova_forced_flush", cpu.time, 0, pages);
    flushPending(cpu);
    iova = iovaAlloc_.alloc(pages);
    if (iova != iommu::kInvalidIova) {
        ctx_.stats.add(sim::Ctr::IommuIovaFlushRecoveries);
        return iova;
    }

    // The flush was not enough (strict has nothing batched; or every
    // range is genuinely live).  Last resort: generic pressure reclaim
    // — shrink whatever registered a reclaimer — and one final retry.
    ctx_.pressure.reclaim(cpu);
    iova = iovaAlloc_.alloc(pages);
    if (iova != iommu::kInvalidIova)
        ctx_.stats.add(sim::Ctr::IommuIovaReclaimRecoveries);
    return iova;
}

iommu::Iova
MappedDmaApi::map(sim::CpuCursor &cpu, Device &dev, mem::Pa pa,
                  std::uint32_t len, Dir dir)
{
    assert(len > 0);
    const unsigned pages = coveringPages(pa, len);
    sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::DmaMap,
                        "dma.map");
    span.bytes(len);
    span.aux(pages);

    // IOVA allocation: fast per-CPU cache, occasional slow rbtree path.
    cpu.charge(ctx_.cost.iovaAllocNs);
    if (ctx_.rng.chance(ctx_.cost.iovaSlowPathRate))
        cpu.charge(ctx_.cost.iovaAllocSlowNs);
    const iommu::Iova iova = allocIovaWithReclaim(cpu, pages);
    if (iova == iommu::kInvalidIova) {
        // Still exhausted after forced flush + reclaim: fail the map
        // like dma_map_single() returning DMA_MAPPING_ERROR.  The
        // driver backs off and retries.
        ctx_.stats.add(sim::Ctr::DmaMapFails);
        return kMapFailed;
    }
    ctx_.tracer.instant(cpu.id(), sim::TraceCat::DmaMap,
                        "dma.iova_alloc", cpu.time, 0, pages);

    // Write PTEs covering the buffer's pages.  Page granularity: data
    // co-located on those pages becomes device-accessible too.
    cpu.charge(ctx_.cost.ptePerPageNs * pages);
    const mem::Pa page_base = pa & ~(mem::kPageSize - 1);
    const std::uint32_t perm = permFor(dir);
    for (unsigned i = 0; i < pages; ++i) {
        const bool ok = iommu_.mapPage(
            dev.domain(), iova + std::uint64_t(i) * mem::kPageSize,
            page_base + std::uint64_t(i) * mem::kPageSize, perm);
        assert(ok && "double map of an IOVA");
        (void)ok;
    }

    ctx_.stats.add(sim::Ctr::DmaMap);
    ctx_.stats.add(sim::Ctr::DmaMapPages, pages);
    return iova + mem::pageOffset(pa);
}

void
MappedDmaApi::clearPtes(sim::CpuCursor &cpu, Device &dev,
                        iommu::Iova dma_addr, std::uint32_t len,
                        iommu::Iova *iova_base, unsigned *pages)
{
    *iova_base = dma_addr & ~iommu::Iova(mem::kPageSize - 1);
    *pages = coveringPages(dma_addr, len);
    cpu.charge(ctx_.cost.ptePerPageNs * *pages);
    for (unsigned i = 0; i < *pages; ++i) {
        const bool ok = iommu_.unmapPage(
            dev.domain(), *iova_base + std::uint64_t(i) * mem::kPageSize);
        assert(ok && "unmap of an unmapped IOVA");
        (void)ok;
    }
    ctx_.stats.add(sim::Ctr::DmaUnmap);
}

// ---------------------------------------------------------------------
// StrictDmaApi
// ---------------------------------------------------------------------

void
StrictDmaApi::unmap(sim::CpuCursor &cpu, Device &dev,
                    iommu::Iova dma_addr, std::uint32_t len, Dir)
{
    sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::DmaUnmap,
                        "dma.unmap");
    span.bytes(len);
    iommu::Iova iova_base;
    unsigned pages;
    clearPtes(cpu, dev, dma_addr, len, &iova_base, &pages);

    {
        // Synchronous IOTLB invalidation through the backend's
        // machinery (VT-d spends the full hardware round trip holding
        // the global queue lock; SMMUv3 produces a TLBI + SYNC and
        // waits outside it).
        sim::TraceSpan inval(ctx_.tracer, cpu, sim::TraceCat::IommuInval,
                             "iommu.sync_inval");
        inval.aux(pages);
        const sim::TimeNs done = iommu_.backend().syncInvalidate(
            *cpu.core, cpu.time, dev.domain(), iova_base,
            std::uint64_t(pages) * mem::kPageSize);
        cpu.waitUntil(done);
        // Pipelined invalidation engines: spin for the completion
        // outside the submission lock.
        cpu.charge(ctx_.cost.strictPostWaitNs);
    }

    iovaAlloc_.free(iova_base, pages);
    ctx_.stats.add(sim::Ctr::DmaStrictInvalidations);
}

void
StrictDmaApi::unmapBatch(sim::CpuCursor &cpu, Device &dev,
                         std::span<const UnmapReq> reqs)
{
    if (reqs.empty())
        return;
    sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::DmaUnmap,
                        "dma.unmap_batch");
    span.aux(reqs.size());
    // Clear all PTEs, then pay for a single invalidate + wait round
    // trip covering every range (how dma_unmap_sg behaves).
    ranges_.clear();
    for (const UnmapReq &r : reqs) {
        iommu::Iova base;
        unsigned pages;
        clearPtes(cpu, dev, r.dmaAddr, r.len, &base, &pages);
        ranges_.push_back({dev.domain(), base,
                           std::uint64_t(pages) * mem::kPageSize});
        span.bytes(r.len);
    }
    {
        sim::TraceSpan inval(ctx_.tracer, cpu, sim::TraceCat::IommuInval,
                             "iommu.sync_inval");
        inval.aux(ranges_.size());
        cpu.time = iommu_.backend().syncInvalidateRanges(
            *cpu.core, cpu.time, ranges_);
        cpu.charge(ctx_.cost.strictPostWaitNs);
    }
    for (const auto &r : ranges_)
        iovaAlloc_.free(r.iova, unsigned(r.len >> mem::kPageShift));
    ctx_.stats.add(sim::Ctr::DmaStrictInvalidations);
}

// ---------------------------------------------------------------------
// DeferredDmaApi
// ---------------------------------------------------------------------

void
DeferredDmaApi::unmap(sim::CpuCursor &cpu, Device &dev,
                      iommu::Iova dma_addr, std::uint32_t len, Dir)
{
    sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::DmaUnmap,
                        "dma.unmap");
    span.bytes(len);
    iommu::Iova iova_base;
    unsigned pages;
    clearPtes(cpu, dev, dma_addr, len, &iova_base, &pages);

    // Queue for a batched flush; the IOVA is recycled only after the
    // flush (reusing it earlier would re-expose a stale translation to
    // the *new* owner's data).
    cpu.charge(ctx_.cost.deferredUnmapNs);
    flushQueue_.push_back({dev.domain(), iova_base, pages});

    if (flushQueue_.size() >= ctx_.cost.deferredBatch) {
        flushPending(cpu);
    } else {
        armTimer(cpu.id());
    }
}

void
DeferredDmaApi::flushPending(sim::CpuCursor &cpu)
{
    if (flushQueue_.empty())
        return;
    sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::IommuInval,
                        "iommu.batched_flush");
    span.aux(flushQueue_.size());
    // One hardware flush command, scoped to the domains with pending
    // unmaps: other domains' warm IOTLB entries must survive a
    // neighbour's deferred flush.
    flushDomains_.clear();
    for (const PendingUnmap &p : flushQueue_) {
        if (std::find(flushDomains_.begin(), flushDomains_.end(),
                      p.domain) == flushDomains_.end())
            flushDomains_.push_back(p.domain);
    }
    const sim::TimeNs done = iommu_.backend().batchedFlush(
        *cpu.core, cpu.time, flushDomains_);
    cpu.waitUntil(done);
    for (const PendingUnmap &p : flushQueue_)
        iovaAlloc_.free(p.iova, p.pages);
    ctx_.stats.add(sim::Ctr::DmaDeferredFlushes);
    ctx_.stats.add(sim::Ctr::DmaDeferredFlushedUnmaps, flushQueue_.size());
    flushQueue_.clear();
}

void
DeferredDmaApi::armTimer(sim::CoreId core)
{
    if (timerArmed_)
        return;
    timerArmed_ = true;
    ctx_.engine.scheduleIn(ctx_.cost.deferredFlushTimerNs, [this, core] {
        timerArmed_ = false;
        // The flush timer runs in softirq context on the arming core.
        sim::CpuCursor cpu(ctx_.machine.core(core), ctx_.engine.now());
        flushPending(cpu);
    });
}

// ---------------------------------------------------------------------
// ShadowDmaApi
// ---------------------------------------------------------------------

namespace {

constexpr std::uint32_t kMinShadow = 512;

constexpr std::uint32_t
bucketSize(unsigned b)
{
    return kMinShadow << b;
}

} // namespace

ShadowDmaApi::ShadowDmaApi(sim::Context &ctx, iommu::Iommu &mmu,
                           mem::PageAllocator &pa)
    : ctx_(ctx), iommu_(mmu), pageAlloc_(pa)
{}

unsigned
ShadowDmaApi::bucketFor(std::uint32_t len)
{
    for (unsigned b = 0; b < kNumBuckets; ++b)
        if (len <= bucketSize(b))
            return b;
    assert(false && "shadow DMA larger than 128 KiB");
    return kNumBuckets - 1;
}

ShadowDmaApi::Pool &
ShadowDmaApi::poolOf(Device &dev)
{
    if (dev.domain() >= pools_.size())
        pools_.resize(dev.domain() + 1);
    return pools_[dev.domain()];
}

ShadowDmaApi::ShadowBuf
ShadowDmaApi::poolAlloc(sim::CpuCursor &cpu, Device &dev,
                        std::uint32_t len)
{
    Pool &pool = poolOf(dev);
    const unsigned bucket = bucketFor(len);
    cpu.charge(ctx_.cost.shadowPoolOpNs);
    auto &freelist = pool.buckets[bucket];
    if (freelist.empty()) {
        // Grow the pool: one order-5 (128 KiB) block carved into
        // bucket-size shadow buffers, mapped R/W *once*, permanently.
        // Both the frames and the IOVA range can be exhausted under
        // pressure; each failure sheds idle pools (plus whatever else
        // registered a reclaimer) and retries once before giving up.
        const unsigned order = 5;
        mem::Pfn pfn =
            pageAlloc_.allocPages(order, dev.numa(), /*zero=*/true);
        if (pfn == mem::kInvalidPfn) {
            ctx_.stats.add(sim::Ctr::ShadowPoolGrowFails);
            ctx_.pressure.reclaim(cpu);
            pfn = pageAlloc_.allocPages(order, dev.numa(), /*zero=*/true);
            if (pfn == mem::kInvalidPfn)
                return ShadowBuf{0, 0, bucket};
        }
        iommu::Iova iova = iovaAlloc_.alloc(1u << order);
        if (iova == iommu::kInvalidIova) {
            ctx_.stats.add(sim::Ctr::IommuIovaExhausted);
            ctx_.pressure.reclaim(cpu);
            iova = iovaAlloc_.alloc(1u << order);
            if (iova == iommu::kInvalidIova) {
                pageAlloc_.freePages(pfn, order);
                return ShadowBuf{0, 0, bucket};
            }
        }
        poolFrames_ += 1u << order;
        const std::uint64_t block = mem::kPageSize << order;
        pool.blocks.emplace_back(pfn, iova);
        for (unsigned i = 0; i < (1u << order); ++i) {
            iommu_.mapPage(dev.domain(),
                           iova + std::uint64_t(i) * mem::kPageSize,
                           mem::pfnToPa(pfn + i), iommu::PermRW);
        }
        const std::uint32_t sz = bucketSize(bucket);
        for (std::uint64_t off = 0; off + sz <= block; off += sz)
            freelist.push_back({mem::pfnToPa(pfn) + off, iova + off,
                                bucket});
        ctx_.stats.add(sim::Ctr::ShadowPoolGrow);
    }
    const ShadowBuf buf = freelist.back();
    freelist.pop_back();
    return buf;
}

void
ShadowDmaApi::poolFree(Device &dev, const ShadowBuf &buf)
{
    poolOf(dev).buckets[buf.bucket].push_back(buf);
}

iommu::Iova
ShadowDmaApi::map(sim::CpuCursor &cpu, Device &dev, mem::Pa pa,
                  std::uint32_t len, Dir dir)
{
    assert(len > 0);
    sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::DmaMap,
                        "dma.map");
    span.bytes(len);
    ShadowBuf buf = poolAlloc(cpu, dev, len);
    if (buf.pa == 0) {
        // Pool growth failed even after reclaim: fail the map; the
        // driver backs off and retries.
        ctx_.stats.add(sim::Ctr::DmaMapFails);
        return kMapFailed;
    }

    if (dir == Dir::ToDevice || dir == Dir::Bidirectional) {
        // Copy outbound data into the shadow buffer.  The source was
        // just written by the sender, so it is LLC-resident.
        // The destination shadow buffer is DRAM-cold, so the full
        // read+write traffic reaches the controllers.
        sim::TraceSpan copy(ctx_.tracer, cpu, sim::TraceCat::Copy,
                            "shadow.tx_copy");
        copy.bytes(len);
        cpu.charge(ctx_.copyCost(
            cpu.time, len, ctx_.cost.shadowTxCopyBytesPerNs,
            std::uint64_t(2.0 * len * ctx_.cost.coldCopyMemFactor)));
        if (ctx_.functionalData)
            pm().copy(buf.pa, pa, len);
        ctx_.stats.add(sim::Ctr::ShadowTxCopiedBytes, len);
    }

    active_[buf.iova] = ActiveMap{buf, pa, len, dir, dev.domain()};
    ++pools_[dev.domain()].inFlight;
    ctx_.stats.add(sim::Ctr::DmaMap);
    return buf.iova;
}

void
ShadowDmaApi::unmap(sim::CpuCursor &cpu, Device &dev,
                    iommu::Iova dma_addr, std::uint32_t len, Dir dir)
{
    const ActiveMap *found = active_.find(dma_addr);
    assert(found && "shadow unmap of unknown DMA address");
    const ActiveMap am = *found;
    active_.erase(dma_addr);
    --pools_[am.domain].inFlight;
    assert(am.len == len);
    (void)len;
    sim::TraceSpan span(ctx_.tracer, cpu, sim::TraceCat::DmaUnmap,
                        "dma.unmap");
    span.bytes(am.len);

    if (dir == Dir::FromDevice || dir == Dir::Bidirectional) {
        // Copy inbound data out of the shadow buffer into the driver's
        // buffer — destination is a cold kmalloc()ed buffer.
        sim::TraceSpan copy(ctx_.tracer, cpu, sim::TraceCat::Copy,
                            "shadow.rx_copy");
        copy.bytes(am.len);
        cpu.charge(ctx_.copyCost(
            cpu.time, am.len, ctx_.cost.coldCopyBytesPerNs,
            std::uint64_t(2.0 * am.len * ctx_.cost.coldCopyMemFactor)));
        if (ctx_.functionalData)
            pm().copy(am.origPa, am.buf.pa, am.len);
        ctx_.stats.add(sim::Ctr::ShadowRxCopiedBytes, am.len);
    }

    cpu.charge(ctx_.cost.shadowPoolOpNs);
    poolFree(dev, am.buf);
    ctx_.stats.add(sim::Ctr::DmaUnmap);
}

std::uint64_t
ShadowDmaApi::releasePool(sim::CpuCursor &cpu, iommu::DomainId d,
                          Pool &pool)
{
    // Release every backing block: unmap the permanent PTEs, free the
    // frames, recycle the IOVA range.  The bucket lists are emptied in
    // place (not clear()ed away) so a poolAlloc holding a freelist
    // reference across a nested reclaim stays valid.
    std::uint64_t released = 0;
    constexpr unsigned kBlockOrder = 5;
    constexpr unsigned kBlockPages = 1u << kBlockOrder;
    for (const auto &[pfn, iova] : pool.blocks) {
        cpu.charge(ctx_.cost.ptePerPageNs * kBlockPages);
        for (unsigned i = 0; i < kBlockPages; ++i) {
            const bool ok = iommu_.unmapPage(
                d, iova + std::uint64_t(i) * mem::kPageSize);
            assert(ok && "shadow pool PTE vanished");
            (void)ok;
        }
        pageAlloc_.freePages(pfn, kBlockOrder);
        iovaAlloc_.free(iova, kBlockPages);
        poolFrames_ -= kBlockPages;
        released += kBlockPages;
    }
    pool.blocks.clear();
    for (auto &bucket : pool.buckets)
        bucket.clear();
    return released;
}

std::uint64_t
ShadowDmaApi::drainDomain(sim::CpuCursor &cpu, Device &dev)
{
    const iommu::DomainId d = dev.domain();
    if (d >= pools_.size())
        return 0;
    Pool &pool = pools_[d];

    // In-flight maps die with the device: the data never arrives, so
    // there is nothing to copy back — just drop the bookkeeping.  The
    // shadow buffers return with their blocks below.
    if (pool.inFlight > 0) {
        const std::size_t aborted = active_.eraseIf(
            [d](std::uint64_t, const ActiveMap &am) {
                return am.domain == d;
            });
        assert(aborted == pool.inFlight);
        ctx_.stats.add(sim::Ctr::ShadowAbortedMaps, aborted);
        pool.inFlight = 0;
    }

    const std::uint64_t released = releasePool(cpu, d, pool);
    if (released > 0)
        ctx_.stats.add(sim::Ctr::ShadowDrainedPages, released);
    return released;
}

std::uint64_t
ShadowDmaApi::shrinkIdle(sim::CpuCursor &cpu)
{
    // A pool block cannot be released while any shadow buffer carved
    // from it is in flight, and buffers of all blocks mix in the
    // bucket lists — so the shrink granularity is a whole domain with
    // zero active maps.  Domains are walked in DomainId order so
    // reclaim stays deterministic.
    std::uint64_t released = 0;
    for (std::size_t d = 0; d < pools_.size(); ++d)
        if (pools_[d].inFlight == 0 && !pools_[d].blocks.empty())
            released += releasePool(cpu, iommu::DomainId(d), pools_[d]);
    if (released > 0)
        ctx_.stats.add(sim::Ctr::ShadowShrunkPages, released);
    return released;
}

// ---------------------------------------------------------------------

std::unique_ptr<DmaApi>
makeScheme(SchemeKind kind, sim::Context &ctx, iommu::Iommu &mmu,
           mem::PageAllocator &pa)
{
    switch (kind) {
      case SchemeKind::IommuOff:
        return std::make_unique<PassthroughDmaApi>(ctx);
      case SchemeKind::Strict:
        return std::make_unique<StrictDmaApi>(ctx, mmu);
      case SchemeKind::Deferred:
        return std::make_unique<DeferredDmaApi>(ctx, mmu);
      case SchemeKind::Shadow:
        return std::make_unique<ShadowDmaApi>(ctx, mmu, pa);
      case SchemeKind::Damn:
        assert(false && "use core::makeDamnSystem for SchemeKind::Damn");
        return nullptr;
    }
    return nullptr;
}

} // namespace damn::dma
