/**
 * @file
 * DMA cache implementation.
 */

#include "core/dma_cache.hh"

#include <cassert>

namespace damn::core {

namespace {

/** Round @p v up to a multiple of @p align (power of two). */
constexpr std::uint32_t
alignUp(std::uint32_t v, std::uint32_t align)
{
    return (v + align - 1) & ~(align - 1);
}

} // namespace

DmaCache::DmaCache(sim::Context &ctx, mem::PageAllocator &pa,
                   iommu::Iommu &mmu, iommu::DomainId domain,
                   std::uint32_t cache_id, std::uint32_t dev_idx,
                   Rights rights, sim::NumaId numa,
                   const DmaCacheConfig &config)
    : ctx_(ctx), pageAlloc_(pa), iommu_(mmu), domain_(domain),
      cacheId_(cache_id), devIdx_(dev_idx), rights_(rights), numa_(numa),
      config_(config),
      depot_(*this, config.magazineCapacity, ctx.cost.depotExchangeNs),
      perCore_(ctx.machine.numCores())
{
    for (auto &ctxs : perCore_) {
        for (auto &pc : ctxs) {
            pc.loaded = Magazine(config_.magazineCapacity);
            pc.prev = Magazine(config_.magazineCapacity);
        }
    }
}

iommu::Iova
DmaCache::allocChunkIova(sim::CoreId creating_core)
{
    if (config_.hugeIovaPages) {
        // Analysis-only variant (Table 3): IOVAs are packed densely in
        // a private 16 GiB region; no metadata is encoded.
        const iommu::Iova base =
            iommu::kDamnIovaBit |
            (std::uint64_t(cacheId_) << kDenseRegionShift);
        const iommu::Iova iova = base + denseNext_;
        denseNext_ += kChunkBytes;
        return iova;
    }
    std::uint64_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        // Only fresh slots can run off the end of the encoded offset
        // field; recycled ones fit by construction.  Fail soft — every
        // encoded IOVA has the tag bit set, so 0 is an unambiguous
        // invalid sentinel for the caller's OOM path.
        slot = nextSlot_;
        if (slot * kChunkBytes > kOffsetMask) {
            ctx_.stats.add(sim::Ctr::DamnIovaRegionExhausted);
            return 0;
        }
        ++nextSlot_;
    }
    const std::uint64_t offset = slot * kChunkBytes;
    return encodeIova(creating_core, rights_, devIdx_, numa_, offset);
}

void
DmaCache::initCompound(const Chunk &c)
{
    auto &pm = pageAlloc_.phys();
    mem::Page &head = pm.page(c.pfn);
    head.set(mem::PG_head);
    head.order = std::uint8_t(kChunkOrder);
    head.refcount = 0;
    for (unsigned i = 1; i < kChunkPages; ++i) {
        mem::Page &tail = pm.page(c.pfn + i);
        tail.set(mem::PG_tail);
        tail.compoundHead = c.pfn;
    }
    // DAMN metadata lives in tail page structs: the IOVA and owning
    // cache id in the first tail page, the F flag on the *third* page
    // (the head and second pages have predetermined semantics the
    // paper must not repurpose -- section 5.5).
    pm.page(c.pfn + 1).priv = c.iova;
    pm.page(c.pfn + 1).priv2 = cacheId_;
    pm.page(c.pfn + 2).set(mem::PG_damn);
}

void
DmaCache::clearCompound(const Chunk &c)
{
    auto &pm = pageAlloc_.phys();
    pm.page(c.pfn).clearFlag(mem::PG_head);
    pm.page(c.pfn).order = 0;
    for (unsigned i = 1; i < kChunkPages; ++i) {
        mem::Page &tail = pm.page(c.pfn + i);
        tail.clearFlag(mem::PG_tail);
        tail.compoundHead = 0;
    }
    pm.page(c.pfn + 1).priv = 0;
    pm.page(c.pfn + 1).priv2 = 0;
    pm.page(c.pfn + 2).clearFlag(mem::PG_damn);
}

Chunk
DmaCache::allocChunk(sim::CpuCursor &cpu)
{
    Chunk c;

    if (config_.hugeIovaPages) {
        if (hugeCarved_.empty()) {
            // Allocate a whole 2 MiB physical block, map it with one
            // huge PTE, and carve it into chunks.
            constexpr unsigned kHugeOrder = 9; // 512 pages
            cpu.charge(ctx_.cost.pageAllocNs);
            const mem::Pfn block = pageAlloc_.allocPages(
                kHugeOrder, numa_, /*zero=*/ctx_.functionalData);
            assert(block != mem::kInvalidPfn);
            cpu.charge(sim::TimeNs(double(iommu::kHugePageSize) /
                                   ctx_.cost.zeroBytesPerNs));
            const iommu::Iova block_iova = allocChunkIova(cpu.id());
            // Huge mappings must be 2 MiB aligned in both spaces; the
            // dense region base and chunk-multiple offsets guarantee
            // IOVA alignment only if we round up.
            assert((block_iova & (iommu::kHugePageSize - 1)) == 0);
            if (config_.mapInIommu) {
                cpu.charge(ctx_.cost.ptePerPageNs);
                const bool ok = iommu_.mapHuge(domain_, block_iova,
                                               mem::pfnToPa(block),
                                               permOf(rights_));
                assert(ok);
                (void)ok;
            }
            const unsigned per_block = unsigned(
                iommu::kHugePageSize / kChunkBytes);
            for (unsigned i = 0; i < per_block; ++i) {
                hugeCarved_.push_back(Chunk{
                    block + std::uint64_t(i) * kChunkPages,
                    block_iova + std::uint64_t(i) * kChunkBytes,
                });
            }
            // Keep denseNext_ 2 MiB aligned for the next block.
            denseNext_ = alignUp32MiB();
        }
        c = hugeCarved_.back();
        hugeCarved_.pop_back();
        initCompound(c);
        ++ownedChunks_;
        ctx_.stats.add(sim::Ctr::DamnChunksAllocated);
        return c;
    }

    cpu.charge(ctx_.cost.pageAllocNs);
    c.pfn = pageAlloc_.allocPages(kChunkOrder, numa_,
                                  /*zero=*/ctx_.functionalData);
    if (c.pfn == mem::kInvalidPfn) {
        // OS page allocator exhausted: propagate the failure up the
        // magazine protocol instead of dying here — alloc() returns 0
        // and the caller takes its OOM path.
        ctx_.stats.add(sim::Ctr::DamnChunkAllocFails);
        return Chunk{};
    }
    // The depot zeroes every chunk it obtains from the OS (TX security,
    // section 5.6); zeroing costs CPU time.
    cpu.charge(sim::TimeNs(double(kChunkBytes) /
                           ctx_.cost.zeroBytesPerNs));

    if (config_.mapInIommu) {
        c.iova = allocChunkIova(cpu.id());
        if (c.iova == 0) {
            // Encoded-IOVA region exhausted: give the pages back and
            // propagate the failure like a page-allocator miss.
            cpu.charge(ctx_.cost.pageAllocNs);
            pageAlloc_.freePages(c.pfn, kChunkOrder);
            ctx_.stats.add(sim::Ctr::DamnChunkAllocFails);
            return Chunk{};
        }
        cpu.charge(ctx_.cost.ptePerPageNs * kChunkPages);
        for (unsigned i = 0; i < kChunkPages; ++i) {
            const bool ok = iommu_.mapPage(
                domain_, c.iova + std::uint64_t(i) * mem::kPageSize,
                mem::pfnToPa(c.pfn + i), permOf(rights_));
            assert(ok && "DAMN chunk IOVA already mapped");
            (void)ok;
        }
    } else {
        // "damn without iommu" (Table 3): DMA address == PA.
        c.iova = mem::pfnToPa(c.pfn);
    }

    initCompound(c);
    ++ownedChunks_;
    ctx_.stats.add(sim::Ctr::DamnChunksAllocated);
    return c;
}

std::uint64_t
DmaCache::alignUp32MiB()
{
    const std::uint64_t mask = iommu::kHugePageSize - 1;
    return (denseNext_ + mask) & ~mask;
}

void
DmaCache::releaseChunk(sim::CpuCursor &cpu, const Chunk &c)
{
    assert(!config_.hugeIovaPages &&
           "huge-page variant chunks are never released (analysis only)");
    [[maybe_unused]] auto &pm = pageAlloc_.phys();
    assert(pm.page(c.pfn).refcount == 0 && "releasing a live chunk");

    if (config_.mapInIommu) {
        cpu.charge(ctx_.cost.ptePerPageNs * kChunkPages);
        for (unsigned i = 0; i < kChunkPages; ++i) {
            const bool ok = iommu_.unmapPage(
                domain_, c.iova + std::uint64_t(i) * mem::kPageSize);
            assert(ok);
            (void)ok;
        }
        freeSlots_.push_back(decodeIova(c.iova).offset / kChunkBytes);
    }

    clearCompound(c);
    cpu.charge(ctx_.cost.pageAllocNs);
    pageAlloc_.freePages(c.pfn, kChunkOrder);
    assert(ownedChunks_ > 0);
    --ownedChunks_;
    ctx_.stats.add(sim::Ctr::DamnChunksReleased);
}

Chunk
DmaCache::getChunk(sim::CpuCursor &cpu, PerCore &pc)
{
    cpu.charge(ctx_.cost.magazineOpNs);
    if (!pc.loaded.empty())
        return pc.loaded.pop();
    if (!pc.prev.empty()) {
        std::swap(pc.loaded, pc.prev);
        return pc.loaded.pop();
    }
    depot_.exchangeForFull(cpu, pc.loaded);
    if (pc.loaded.empty())
        return Chunk{}; // depot + OS both dry: allocation failure
    return pc.loaded.pop();
}

void
DmaCache::putChunk(sim::CpuCursor &cpu, PerCore &pc, const Chunk &c)
{
    cpu.charge(ctx_.cost.magazineOpNs);
    if (!pc.loaded.full()) {
        pc.loaded.push(c);
        return;
    }
    if (pc.prev.empty()) {
        std::swap(pc.loaded, pc.prev);
        pc.loaded.push(c);
        return;
    }
    depot_.exchangeForEmpty(cpu, pc.loaded);
    pc.loaded.push(c);
}

void
DmaCache::retireBumpChunk(sim::CpuCursor &cpu, PerCore &pc, BumpState &bs)
{
    if (!bs.chunk.valid())
        return;
    mem::Page &head = pageAlloc_.phys().page(bs.chunk.pfn);
    assert(head.refcount > 0);
    if (--head.refcount == 0)
        putChunk(cpu, pc, bs.chunk);
    bs.chunk = Chunk{};
    bs.offset = 0;
}

mem::Pa
DmaCache::alloc(sim::CpuCursor &cpu, std::uint32_t size,
                std::uint32_t align, AllocCtx actx)
{
    assert(size > 0 && size <= kChunkBytes);
    assert((align & (align - 1)) == 0 && "alignment must be a power of 2");
    cpu.charge(ctx_.cost.damnFastAllocNs);

    PerCore &pc = state(cpu.id(), actx);
    BumpState &bs = align >= mem::kPageSize ? pc.pageBump : pc.bump;

    std::uint32_t start = alignUp(bs.offset, align);
    if (!bs.chunk.valid() || start + size > kChunkBytes) {
        retireBumpChunk(cpu, pc, bs);
        bs.chunk = getChunk(cpu, pc);
        if (!bs.chunk.valid()) {
            ctx_.stats.add(sim::Ctr::DamnAllocFails);
            return 0;
        }
        bs.offset = 0;
        start = 0;
        // Install the allocator's bias reference.
        pageAlloc_.phys().page(bs.chunk.pfn).refcount = 1;
    }

    bs.offset = start + size;
    ++pageAlloc_.phys().page(bs.chunk.pfn).refcount;
    ctx_.stats.add(sim::Ctr::DamnAllocs);
    return mem::pfnToPa(bs.chunk.pfn) + start;
}

void
DmaCache::recycleChunk(sim::CpuCursor &cpu, const Chunk &chunk,
                       AllocCtx actx)
{
    putChunk(cpu, state(cpu.id(), actx), chunk);
    ctx_.stats.add(sim::Ctr::DamnChunksRecycled);
}

iommu::Iova
DmaCache::iovaOf(mem::Pa pa) const
{
    const auto &pm = pageAlloc_.phys();
    const mem::Pfn pfn = mem::paToPfn(pa);
    const mem::Page &pg = pm.page(pfn);
    const mem::Pfn head =
        pg.test(mem::PG_head) ? pfn : pg.compoundHead;
    const iommu::Iova chunk_iova = pm.page(head + 1).priv;
    const std::uint64_t delta = pa - mem::pfnToPa(head);
    return chunk_iova + delta;
}

std::uint64_t
DmaCache::shrink(sim::CpuCursor &cpu)
{
    if (config_.hugeIovaPages)
        return 0; // analysis-only variant: never shrunk
    std::uint64_t released = 0;
    for (auto &ctxs : perCore_) {
        for (auto &pc : ctxs) {
            for (Magazine *m : {&pc.loaded, &pc.prev}) {
                for (Chunk &c : m->drain()) {
                    releaseChunk(cpu, c);
                    ++released;
                }
            }
        }
    }
    released += depot_.shrink(cpu);
    return released;
}

std::uint64_t
DmaCache::drain(sim::CpuCursor &cpu)
{
    if (config_.hugeIovaPages)
        return 0; // analysis-only variant: never drained
    // Retire the per-core bump chunks first: each holds the allocator's
    // bias reference, and dropping it lets idle chunks fall into the
    // magazines that shrink() then empties.  Chunks with buffers still
    // alive keep their refcount and survive the drain.
    for (sim::CoreId core = 0; core < sim::CoreId(perCore_.size());
         ++core) {
        for (const AllocCtx actx :
             {AllocCtx::Standard, AllocCtx::Interrupt}) {
            PerCore &pc = state(core, actx);
            retireBumpChunk(cpu, pc, pc.bump);
            retireBumpChunk(cpu, pc, pc.pageBump);
        }
    }
    return shrink(cpu);
}

std::uint64_t
DmaCache::outstandingIovaSlots() const
{
    // The huge and unmapped variants have no recycling slot machinery:
    // every owned chunk is the outstanding unit.
    if (config_.hugeIovaPages || !config_.mapInIommu)
        return ownedChunks_;
    return nextSlot_ - freeSlots_.size();
}

} // namespace damn::core
