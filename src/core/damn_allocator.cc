/**
 * @file
 * DamnAllocator implementation.
 */

#include "core/damn_allocator.hh"

#include <cassert>

namespace damn::core {

const char *
rightsName(Rights r)
{
    switch (r) {
      case Rights::Read:
        return "R";
      case Rights::Write:
        return "W";
      case Rights::RW:
        return "RW";
    }
    return "?";
}

DamnAllocator::DamnAllocator(sim::Context &ctx, mem::PageAllocator &pa,
                             mem::KmallocHeap &heap, iommu::Iommu &mmu,
                             DmaCacheConfig config)
    : ctx_(ctx), pageAlloc_(pa), heap_(heap), iommu_(mmu),
      config_(config)
{}

DmaCache &
DamnAllocator::cacheFor(dma::Device &dev, Rights rights, sim::NumaId numa)
{
    const CacheKey key{dev.domain(), rights, numa};
    auto it = cacheIndex_.find(key);
    if (it != cacheIndex_.end())
        return *caches_[it->second];

    auto dit = devIdx_.find(dev.domain());
    if (dit == devIdx_.end()) {
        dit = devIdx_.emplace(dev.domain(),
                              std::uint32_t(devIdx_.size())).first;
    }

    const auto id = std::uint32_t(caches_.size());
    caches_.push_back(std::make_unique<DmaCache>(
        ctx_, pageAlloc_, iommu_, dev.domain(), id, dit->second, rights,
        numa, config_));
    cacheIndex_.emplace(key, id);
    return *caches_[id];
}

mem::Pa
DamnAllocator::damnAlloc(sim::CpuCursor &cpu, dma::Device *dev,
                         Rights rights, std::uint32_t size, AllocCtx actx)
{
    assert(size > 0);
    if (dev == nullptr) {
        // Fall back to the standard kernel allocation API (section 5.1).
        if (size <= 4096) {
            cpu.charge(ctx_.cost.kmallocNs);
            return heap_.kmalloc(size);
        }
        unsigned order = 0;
        while ((mem::kPageSize << order) < size)
            ++order;
        cpu.charge(ctx_.cost.pageAllocNs);
        const mem::Pfn pfn = pageAlloc_.allocPages(order, cpu.numa());
        return pfn == mem::kInvalidPfn ? 0 : mem::pfnToPa(pfn);
    }
    DmaCache &cache = cacheFor(*dev, rights, cpu.numa());
    return cache.alloc(cpu, size, /*align=*/8, actx);
}

mem::Pfn
DamnAllocator::damnAllocPages(sim::CpuCursor &cpu, dma::Device *dev,
                              Rights rights, unsigned k, AllocCtx actx)
{
    const std::uint32_t bytes = std::uint32_t(mem::kPageSize) << k;
    if (dev == nullptr) {
        cpu.charge(ctx_.cost.pageAllocNs);
        return pageAlloc_.allocPages(k, cpu.numa());
    }
    DmaCache &cache = cacheFor(*dev, rights, cpu.numa());
    const mem::Pa pa = cache.alloc(cpu, bytes, /*align=*/bytes, actx);
    return pa == 0 ? mem::kInvalidPfn : mem::paToPfn(pa);
}

mem::Pfn
DamnAllocator::headOf(mem::Pa addr) const
{
    const mem::Pfn pfn = mem::paToPfn(addr);
    const mem::Page &pg = pageAlloc_.phys().page(pfn);
    if (pg.test(mem::PG_head))
        return pfn;
    if (pg.test(mem::PG_tail))
        return pg.compoundHead;
    return mem::kInvalidPfn;
}

bool
DamnAllocator::isDamnBuffer(mem::Pa addr) const
{
    // Section 5.5: a DAMN page is a compound whose *third* page struct
    // carries the F flag.
    const mem::Pfn head = headOf(addr);
    if (head == mem::kInvalidPfn)
        return false;
    return pageAlloc_.phys().page(head + 2).test(mem::PG_damn);
}

const DmaCache &
DamnAllocator::cacheOf(mem::Pa addr) const
{
    [[maybe_unused]] const mem::Pfn head = headOf(addr);
    assert(head != mem::kInvalidPfn);
    const std::uint32_t id = pageAlloc_.phys().page(head + 1).priv2;
    return *caches_.at(id);
}

iommu::Iova
DamnAllocator::iovaOf(mem::Pa addr) const
{
    assert(isDamnBuffer(addr));
    return cacheOf(addr).iovaOf(addr);
}

Rights
DamnAllocator::rightsOf(mem::Pa addr) const
{
    return cacheOf(addr).rights();
}

void
DamnAllocator::damnFree(sim::CpuCursor &cpu, mem::Pa addr, AllocCtx actx)
{
    if (addr == 0)
        return;

    if (isDamnBuffer(addr)) {
        cpu.charge(ctx_.cost.damnFastFreeNs);
        auto &pm = pageAlloc_.phys();
        const mem::Pfn head = headOf(addr);
        mem::Page &hp = pm.page(head);
        assert(hp.refcount > 0 && "damn_free of a free buffer");
        if (--hp.refcount == 0) {
            // Look up the owning cache through the tail-page metadata
            // (the IOVA encoding carries the same identity, verified by
            // tests) and recycle the chunk.
            const std::uint32_t id = pm.page(head + 1).priv2;
            DmaCache &cache = *caches_.at(id);
            cache.recycleChunk(cpu, Chunk{head, pm.page(head + 1).priv},
                               actx);
        }
        ctx_.stats.add(sim::Ctr::DamnFrees);
        return;
    }

    // Fallback buffers: kmalloc objects or raw pages.
    const mem::Page &pg = pageAlloc_.phys().pageOf(addr);
    if (pg.test(mem::PG_slab)) {
        cpu.charge(ctx_.cost.kmallocNs);
        heap_.kfree(addr);
        return;
    }
    cpu.charge(ctx_.cost.pageAllocNs);
    pageAlloc_.freePages(mem::paToPfn(addr), pg.order);
}

std::uint64_t
DamnAllocator::shrink(sim::CpuCursor &cpu)
{
    std::uint64_t chunks = 0;
    for (auto &cache : caches_)
        chunks += cache->shrink(cpu);
    if (chunks > 0) {
        // One *global* batched IOTLB flush covers every released
        // mapping — the shrinker returns chunks from all device caches
        // at once, so a single global command beats per-domain ones;
        // the freed pages may be handed out by the OS only after this.
        cpu.time = iommu_.backend().batchedFlushAll(*cpu.core, cpu.time);
    }
    return chunks * kChunkBytes;
}

std::uint64_t
DamnAllocator::drainDomain(sim::CpuCursor &cpu, iommu::DomainId d)
{
    std::uint64_t chunks = 0;
    for (auto &cache : caches_)
        if (cache->domain() == d)
            chunks += cache->drain(cpu);
    if (chunks > 0) {
        // Teardown flush is scoped: only the detaching domain's entries
        // need to die, and other devices' warm entries must survive.
        cpu.time = iommu_.backend().batchedFlush(*cpu.core, cpu.time, {d});
    }
    return chunks * kChunkBytes;
}

std::uint64_t
DamnAllocator::outstandingIovaSlots(iommu::DomainId d) const
{
    std::uint64_t n = 0;
    for (const auto &cache : caches_)
        if (cache->domain() == d)
            n += cache->outstandingIovaSlots();
    return n;
}

std::uint64_t
DamnAllocator::ownedBytes() const
{
    std::uint64_t b = 0;
    for (const auto &cache : caches_)
        b += cache->ownedBytes();
    return b;
}

} // namespace damn::core
