/**
 * @file
 * Unit tests for the paper's contribution: IOVA encoding, magazines,
 * DMA caches, the DAMN allocator, and the DMA-API interposition.
 */

#include <gtest/gtest.h>

#include "core/damn_dma.hh"
#include "dma/schemes.hh"

using namespace damn;
using namespace damn::core;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

struct CoreFixture : ::testing::Test
{
    CoreFixture()
        : ctx(sim::CostModel{}, 2, 4),
          pm(512 * kMiB),
          pa(pm, 2),
          heap(pa),
          mmu(ctx),
          nic(ctx, "nic0", mmu, pm),
          alloc(ctx, pa, heap, mmu)
    {}

    sim::CpuCursor
    cpu(sim::CoreId core = 0)
    {
        return sim::CpuCursor(ctx.machine.core(core), ctx.now());
    }

    sim::Context ctx;
    mem::PhysicalMemory pm;
    mem::PageAllocator pa;
    mem::KmallocHeap heap;
    iommu::Iommu mmu;
    dma::Device nic;
    DamnAllocator alloc;
};

} // namespace

// ---------------------------------------------------------------------
// IOVA encoding (figure 3)
// ---------------------------------------------------------------------

TEST(IovaEncoding, MsbMarksDamn)
{
    const iommu::Iova iova = encodeIova(0, Rights::Read, 0, 0, 0);
    EXPECT_TRUE(isDamnIova(iova));
    EXPECT_FALSE(isDamnIova(iova & ~iommu::kDamnIovaBit));
}

TEST(IovaEncoding, RoundTripSweep)
{
    for (sim::CoreId cpu = 0; cpu < kMaxCpus; cpu += 9) {
        for (const Rights r :
             {Rights::Read, Rights::Write, Rights::RW}) {
            for (std::uint32_t dev = 0; dev < kMaxDevices; dev += 13) {
                for (sim::NumaId numa = 0; numa < 2; ++numa) {
                    const std::uint64_t off = 0x1230000;
                    const iommu::Iova iova =
                        encodeIova(cpu, r, dev, numa, off);
                    const IovaFields f = decodeIova(iova);
                    EXPECT_EQ(f.cpu, cpu);
                    EXPECT_EQ(f.rights, r);
                    EXPECT_EQ(f.devIdx, dev);
                    EXPECT_EQ(f.numa, numa);
                    EXPECT_EQ(f.offset, off);
                }
            }
        }
    }
}

TEST(IovaEncoding, FieldsDoNotCollide)
{
    const auto a = encodeIova(1, Rights::Read, 0, 0, 0);
    const auto b = encodeIova(0, Rights::Read, 1, 0, 0);
    const auto c = encodeIova(0, Rights::Write, 0, 0, 0);
    const auto d = encodeIova(0, Rights::Read, 0, 1, 0);
    const auto e = encodeIova(0, Rights::Read, 0, 0, 64 * 1024);
    EXPECT_EQ(std::set<iommu::Iova>({a, b, c, d, e}).size(), 5u);
}

TEST(IovaEncoding, StaysIn48Bits)
{
    const iommu::Iova iova = encodeIova(
        kMaxCpus - 1, Rights::RW, kMaxDevices - 1, 1, kOffsetMask);
    EXPECT_LT(iova, 1ull << 48);
}

TEST(IovaEncoding, PermOf)
{
    EXPECT_EQ(permOf(Rights::Read), iommu::PermRead);
    EXPECT_EQ(permOf(Rights::Write), iommu::PermWrite);
    EXPECT_EQ(permOf(Rights::RW), iommu::PermRW);
}

// ---------------------------------------------------------------------
// Magazine / Depot
// ---------------------------------------------------------------------

TEST(Magazine, LifoOrder)
{
    Magazine m(4);
    m.push(Chunk{1, 0});
    m.push(Chunk{2, 0});
    EXPECT_EQ(m.pop().pfn, 2u);
    EXPECT_EQ(m.pop().pfn, 1u);
    EXPECT_TRUE(m.empty());
}

TEST(Magazine, CapacityEnforced)
{
    Magazine m(2);
    m.push(Chunk{1, 0});
    EXPECT_FALSE(m.full());
    m.push(Chunk{2, 0});
    EXPECT_TRUE(m.full());
}

namespace {

/** Chunk source handing out fake pfns; counts alloc/release. */
struct FakeSource : ChunkSource
{
    Chunk
    allocChunk(sim::CpuCursor &) override
    {
        return Chunk{next++, 0};
    }

    void
    releaseChunk(sim::CpuCursor &, const Chunk &) override
    {
        ++released;
    }

    mem::Pfn next = 100;
    unsigned released = 0;
};

} // namespace

TEST(Depot, ExchangeForFullFillsFromSource)
{
    sim::Context ctx(sim::CostModel{}, 1, 1);
    FakeSource src;
    Depot depot(src, 4, 100);
    Magazine mag(4);
    auto cpu = sim::CpuCursor(ctx.machine.core(0), 0);
    depot.exchangeForFull(cpu, mag);
    EXPECT_TRUE(mag.full());
    EXPECT_EQ(depot.exchanges(), 1u);
}

TEST(Depot, FullMagazinesRoundTrip)
{
    sim::Context ctx(sim::CostModel{}, 1, 1);
    FakeSource src;
    Depot depot(src, 2, 100);
    Magazine mag(2);
    mag.push(Chunk{7, 0});
    mag.push(Chunk{8, 0});
    auto cpu = sim::CpuCursor(ctx.machine.core(0), 0);
    depot.exchangeForEmpty(cpu, mag);
    EXPECT_TRUE(mag.empty());
    EXPECT_EQ(depot.cachedChunks(), 2u);
    depot.exchangeForFull(cpu, mag);
    EXPECT_TRUE(mag.full());
    EXPECT_EQ(mag.pop().pfn, 8u);
    EXPECT_EQ(src.next, 100u) << "no fresh chunks should be needed";
}

TEST(Depot, ShrinkReleasesEverything)
{
    sim::Context ctx(sim::CostModel{}, 1, 1);
    FakeSource src;
    Depot depot(src, 2, 100);
    Magazine mag(2);
    mag.push(Chunk{7, 0});
    mag.push(Chunk{8, 0});
    auto cpu = sim::CpuCursor(ctx.machine.core(0), 0);
    depot.exchangeForEmpty(cpu, mag);
    EXPECT_EQ(depot.shrink(cpu), 2u);
    EXPECT_EQ(src.released, 2u);
    EXPECT_EQ(depot.cachedChunks(), 0u);
}

TEST(Depot, ExchangeChargesLockTime)
{
    sim::Context ctx(sim::CostModel{}, 1, 1);
    FakeSource src;
    Depot depot(src, 4, 250);
    Magazine mag(4);
    auto cpu = sim::CpuCursor(ctx.machine.core(0), 0);
    depot.exchangeForFull(cpu, mag);
    EXPECT_GE(cpu.time, 250u);
}

// ---------------------------------------------------------------------
// DamnAllocator — Table 2 API + metadata
// ---------------------------------------------------------------------

TEST_F(CoreFixture, AllocReturnsUsableMemory)
{
    auto c = cpu();
    const mem::Pa buf =
        alloc.damnAlloc(c, &nic, Rights::Write, 2048);
    ASSERT_NE(buf, 0u);
    pm.fill(buf, 0x77, 2048);
    EXPECT_EQ(pm.readByte(buf + 2047), 0x77);
    alloc.damnFree(c, buf);
}

TEST_F(CoreFixture, AllocIsEightByteAligned)
{
    auto c = cpu();
    for (const std::uint32_t sz : {1u, 7u, 100u, 999u, 4097u}) {
        const mem::Pa buf = alloc.damnAlloc(c, &nic, Rights::Read, sz);
        EXPECT_EQ(buf % 8, 0u) << "size " << sz;
    }
}

TEST_F(CoreFixture, AllocPagesNaturallyAligned)
{
    auto c = cpu();
    for (unsigned k = 0; k <= 4; ++k) {
        const mem::Pfn pfn =
            alloc.damnAllocPages(c, &nic, Rights::Write, k);
        ASSERT_NE(pfn, mem::kInvalidPfn);
        EXPECT_EQ(pfn % (1ull << k), 0u) << "order " << k;
        alloc.damnFree(c, mem::pfnToPa(pfn));
    }
}

TEST_F(CoreFixture, BufferIsPermanentlyMappedWithRights)
{
    auto c = cpu();
    const mem::Pa buf = alloc.damnAlloc(c, &nic, Rights::Write, 4096);
    const iommu::Iova iova = alloc.iovaOf(buf);
    EXPECT_TRUE(isDamnIova(iova));
    // Device can write but not read (Rights::Write).
    EXPECT_TRUE(mmu.translate(nic.domain(), iova, true).ok);
    EXPECT_TRUE(mmu.translate(nic.domain(), iova, false).fault);
    alloc.damnFree(c, buf);
}

TEST_F(CoreFixture, IovaTranslatesBackToBuffer)
{
    auto c = cpu();
    const mem::Pa buf = alloc.damnAlloc(c, &nic, Rights::RW, 100);
    const iommu::Iova iova = alloc.iovaOf(buf);
    const iommu::TranslateResult tr =
        mmu.translate(nic.domain(), iova, true);
    ASSERT_TRUE(tr.ok);
    EXPECT_EQ(tr.pa, buf);
    alloc.damnFree(c, buf);
}

TEST_F(CoreFixture, FreshChunksAreZeroed)
{
    // Section 5.6 TX security: DAMN zeroes memory from the OS.
    auto c = cpu();
    const mem::Pa buf = alloc.damnAlloc(c, &nic, Rights::Read, 65536);
    for (unsigned i = 0; i < 65536; i += 4096)
        EXPECT_EQ(pm.readByte(buf + i), 0);
    alloc.damnFree(c, buf);
}

TEST_F(CoreFixture, CompoundMetadataLayout)
{
    // Section 5.5: F flag on the *third* page struct; IOVA + cache id
    // in the first tail page.
    auto c = cpu();
    const mem::Pa buf = alloc.damnAlloc(c, &nic, Rights::Write, 64);
    const mem::Pfn head = mem::paToPfn(buf); // first alloc: chunk start
    EXPECT_TRUE(pm.page(head).test(mem::PG_head));
    EXPECT_TRUE(pm.page(head + 1).test(mem::PG_tail));
    EXPECT_TRUE(pm.page(head + 2).test(mem::PG_damn));
    EXPECT_FALSE(pm.page(head + 1).test(mem::PG_damn));
    EXPECT_EQ(pm.page(head + 1).compoundHead, head);
    EXPECT_NE(pm.page(head + 1).priv, 0u); // the chunk IOVA
    alloc.damnFree(c, buf);
}

TEST_F(CoreFixture, IsDamnBufferChecks)
{
    auto c = cpu();
    const mem::Pa dbuf = alloc.damnAlloc(c, &nic, Rights::Write, 256);
    const mem::Pa kbuf = heap.kmalloc(256);
    const mem::Pfn raw = pa.allocPages(0, 0);
    EXPECT_TRUE(alloc.isDamnBuffer(dbuf));
    EXPECT_FALSE(alloc.isDamnBuffer(kbuf));
    EXPECT_FALSE(alloc.isDamnBuffer(mem::pfnToPa(raw)));
    alloc.damnFree(c, dbuf);
    heap.kfree(kbuf);
    pa.freePages(raw, 0);
}

TEST_F(CoreFixture, EncodedIovaMatchesPageMetadata)
{
    // The IOVA's encoded fields (figure 3) and the tail-page metadata
    // (section 5.5) must agree — both identify the allocator.
    auto c = cpu(2);
    const mem::Pa buf = alloc.damnAlloc(c, &nic, Rights::Write, 512);
    const IovaFields f = decodeIova(alloc.iovaOf(buf));
    EXPECT_EQ(f.rights, alloc.rightsOf(buf));
    EXPECT_EQ(f.numa, ctx.machine.numaOf(2));
    alloc.damnFree(c, buf);
}

TEST_F(CoreFixture, NullDeviceFallsBackToKernelAllocators)
{
    auto c = cpu();
    const mem::Pa small = alloc.damnAlloc(c, nullptr, Rights::Read, 256);
    EXPECT_FALSE(alloc.isDamnBuffer(small));
    EXPECT_TRUE(pm.pageOf(small).test(mem::PG_slab));
    alloc.damnFree(c, small);

    const mem::Pa big =
        alloc.damnAlloc(c, nullptr, Rights::Read, 32768);
    EXPECT_FALSE(alloc.isDamnBuffer(big));
    alloc.damnFree(c, big);

    const mem::Pfn pages =
        alloc.damnAllocPages(c, nullptr, Rights::Read, 2);
    EXPECT_FALSE(alloc.isDamnBuffer(mem::pfnToPa(pages)));
    alloc.damnFree(c, mem::pfnToPa(pages));
    EXPECT_EQ(heap.liveObjects(), 0u);
}

TEST_F(CoreFixture, SeparateCachesPerRights)
{
    auto c = cpu();
    const mem::Pa r = alloc.damnAlloc(c, &nic, Rights::Read, 4096);
    const mem::Pa w = alloc.damnAlloc(c, &nic, Rights::Write, 4096);
    EXPECT_NE(mem::paToPfn(r) >> 4, mem::paToPfn(w) >> 4)
        << "different rights must come from different chunks";
    EXPECT_EQ(alloc.rightsOf(r), Rights::Read);
    EXPECT_EQ(alloc.rightsOf(w), Rights::Write);
    alloc.damnFree(c, r);
    alloc.damnFree(c, w);
}

TEST_F(CoreFixture, SeparateCachesPerDevice)
{
    dma::Device nic2(ctx, "nic1", mmu, pm);
    auto c = cpu();
    const mem::Pa a = alloc.damnAlloc(c, &nic, Rights::Write, 4096);
    const mem::Pa b = alloc.damnAlloc(c, &nic2, Rights::Write, 4096);
    // Each buffer is mapped in its own device's domain ...
    EXPECT_FALSE(mmu.translate(nic.domain(), alloc.iovaOf(a), true).fault);
    EXPECT_FALSE(
        mmu.translate(nic2.domain(), alloc.iovaOf(b), true).fault);
    // ... and device 2 cannot touch device 1's buffer.
    EXPECT_TRUE(
        mmu.translate(nic2.domain(), alloc.iovaOf(a), true).fault);
    alloc.damnFree(c, a);
    alloc.damnFree(c, b);
}

TEST_F(CoreFixture, NumaCachesPerCallingCore)
{
    auto c0 = cpu(0); // socket 0
    auto c1 = cpu(1); // socket 1
    const mem::Pa a = alloc.damnAlloc(c0, &nic, Rights::Write, 4096);
    const mem::Pa b = alloc.damnAlloc(c1, &nic, Rights::Write, 4096);
    EXPECT_EQ(pa.nodeOf(mem::paToPfn(a)), 0u);
    EXPECT_EQ(pa.nodeOf(mem::paToPfn(b)), 1u);
    alloc.damnFree(c0, a);
    alloc.damnFree(c1, b);
}

TEST_F(CoreFixture, BumpAllocatorPacksSequentialAllocs)
{
    auto c = cpu();
    const mem::Pa a = alloc.damnAlloc(c, &nic, Rights::Write, 1000);
    const mem::Pa b = alloc.damnAlloc(c, &nic, Rights::Write, 1000);
    EXPECT_EQ(b, a + 1000); // 1000 is already 8-aligned
    alloc.damnFree(c, a);
    alloc.damnFree(c, b);
}

TEST_F(CoreFixture, ChunkRecyclesWhenAllBuffersFreed)
{
    auto c = cpu();
    // Fill exactly one chunk with 64 KiB, free it, allocate again:
    // the chunk must come back through the magazine (same pfn).
    const mem::Pa a = alloc.damnAlloc(c, &nic, Rights::Write, 65536);
    alloc.damnFree(c, a);
    // Force retirement of the bump chunk by allocating again.
    const mem::Pa b = alloc.damnAlloc(c, &nic, Rights::Write, 65536);
    alloc.damnFree(c, b);
    EXPECT_EQ(mem::paToPfn(a), mem::paToPfn(b));
}

TEST_F(CoreFixture, RecycledChunksAreNotRezeroed)
{
    // Only *fresh-from-OS* chunks are zeroed; recycled chunks may
    // still hold old packet data (which the device could always see).
    auto c = cpu();
    const mem::Pa a = alloc.damnAlloc(c, &nic, Rights::Write, 65536);
    pm.fill(a, 0xbe, 64);
    alloc.damnFree(c, a);
    const mem::Pa b = alloc.damnAlloc(c, &nic, Rights::Write, 65536);
    ASSERT_EQ(a, b);
    EXPECT_EQ(pm.readByte(b), 0xbe);
    alloc.damnFree(c, b);
}

TEST_F(CoreFixture, ContextCopiesAreIsolated)
{
    // Standard- and interrupt-context allocations carve different
    // chunks (two physical cache copies, section 5.4).
    auto c = cpu();
    const mem::Pa std_buf = alloc.damnAlloc(c, &nic, Rights::Write,
                                            512, AllocCtx::Standard);
    const mem::Pa irq_buf = alloc.damnAlloc(c, &nic, Rights::Write,
                                            512, AllocCtx::Interrupt);
    EXPECT_NE(mem::paToPfn(std_buf) >> 4, mem::paToPfn(irq_buf) >> 4);
    alloc.damnFree(c, std_buf, AllocCtx::Standard);
    alloc.damnFree(c, irq_buf, AllocCtx::Interrupt);
}

TEST_F(CoreFixture, RefcountAcrossManyBuffers)
{
    auto c = cpu();
    std::vector<mem::Pa> bufs;
    for (int i = 0; i < 64; ++i)
        bufs.push_back(alloc.damnAlloc(c, &nic, Rights::Write, 1024));
    // Free in reverse order; memory must be fully recyclable after.
    const std::uint64_t owned = alloc.ownedBytes();
    for (auto it = bufs.rbegin(); it != bufs.rend(); ++it)
        alloc.damnFree(c, *it);
    EXPECT_EQ(alloc.ownedBytes(), owned)
        << "chunks stay cached (not returned to the OS)";
}

TEST_F(CoreFixture, CrossCoreFreeGoesToFreeingCoresMagazine)
{
    // Producer/consumer: core 0 allocates, core 3 frees (the paper's
    // target I/O pattern).
    auto c0 = cpu(0);
    const mem::Pa a = alloc.damnAlloc(c0, &nic, Rights::Write, 65536);
    auto c3 = cpu(3);
    alloc.damnFree(c3, a);
    // Core 3 now owns the chunk: its next allocation of the same kind
    // must reuse it without touching the page allocator...
    const std::uint64_t os_allocs = pa.allocCalls();
    // (force new chunk acquisition on core 3's bump allocator)
    auto c3b = cpu(3);
    // NUMA note: core 3 is socket 1, core 0 socket 0 — the freeing
    // core's magazine belongs to the *cache identified by the page
    // metadata* (socket 0's cache), so allocate from a socket-0 core.
    (void)c3b;
    auto c0b = cpu(0);
    const mem::Pa b = alloc.damnAlloc(c0b, &nic, Rights::Write, 65536);
    EXPECT_NE(b, 0u);
    EXPECT_GE(pa.allocCalls(), os_allocs);
    alloc.damnFree(c0b, b);
}

TEST_F(CoreFixture, OwnedBytesTracksChunkCount)
{
    auto c = cpu();
    EXPECT_EQ(alloc.ownedBytes(), 0u);
    const mem::Pa a = alloc.damnAlloc(c, &nic, Rights::Write, 100);
    // The first depot exchange fills a whole magazine (M = 16 chunks);
    // this is the Bonwick guarantee of M allocations between depot
    // visits, so DAMN "owns" a magazine's worth up front.
    EXPECT_EQ(alloc.ownedBytes(), 16u * 64 * 1024);
    alloc.damnFree(c, a);
    EXPECT_EQ(alloc.ownedBytes(), 16u * 64 * 1024)
        << "cached, not freed";
}

TEST_F(CoreFixture, ShrinkerReturnsMemoryAndClosesMappings)
{
    auto c = cpu();
    std::vector<mem::Pa> bufs;
    for (int i = 0; i < 32; ++i)
        bufs.push_back(alloc.damnAlloc(c, &nic, Rights::Write, 65536));
    const iommu::Iova stale_iova = alloc.iovaOf(bufs[0]);
    // Warm the IOTLB so the shrinker's flush is actually load-bearing.
    EXPECT_TRUE(mmu.translate(nic.domain(), stale_iova, true).ok);
    for (const mem::Pa b : bufs)
        alloc.damnFree(c, b);

    const std::uint64_t released = alloc.shrink(c);
    EXPECT_GT(released, 0u);
    // At most the still-installed bump chunk (allocator bias) remains.
    EXPECT_LE(alloc.ownedBytes(), 64u * 1024);
    // The released pages are unmapped *and* the IOTLB is flushed: the
    // device's old IOVA no longer works.
    EXPECT_TRUE(mmu.translate(nic.domain(), stale_iova, true).fault);
}

TEST_F(CoreFixture, ShrinkerLeavesLiveBuffersAlone)
{
    auto c = cpu();
    const mem::Pa live = alloc.damnAlloc(c, &nic, Rights::Write, 65536);
    const mem::Pa dead = alloc.damnAlloc(c, &nic, Rights::Write, 65536);
    alloc.damnFree(c, dead);
    alloc.shrink(c);
    EXPECT_TRUE(alloc.isDamnBuffer(live));
    EXPECT_TRUE(mmu.translate(nic.domain(), alloc.iovaOf(live), true).ok);
    pm.fill(live, 0x42, 65536);
    EXPECT_EQ(pm.readByte(live + 65535), 0x42);
    alloc.damnFree(c, live);
}

TEST_F(CoreFixture, MaxAllocationIsChunkSize)
{
    auto c = cpu();
    const mem::Pa buf = alloc.damnAlloc(c, &nic, Rights::Write, 65536);
    EXPECT_NE(buf, 0u);
    EXPECT_EQ(mem::pageOffset(buf), 0u);
    alloc.damnFree(c, buf);
}

TEST_F(CoreFixture, FreeNullIsNoop)
{
    auto c = cpu();
    alloc.damnFree(c, 0);
}

// ---------------------------------------------------------------------
// DmaCache variants (Table 3)
// ---------------------------------------------------------------------

TEST_F(CoreFixture, HugeDenseVariantUsesHugeMappings)
{
    DmaCacheConfig cfg;
    cfg.hugeIovaPages = true;
    DamnAllocator huge(ctx, pa, heap, mmu, cfg);
    auto c = cpu(0);
    auto c2 = cpu(2);
    const mem::Pa buf = huge.damnAlloc(c, &nic, Rights::Write, 4096);
    const iommu::Iova iova = huge.iovaOf(buf);
    const iommu::TranslateResult tr =
        mmu.translate(nic.domain(), iova, true);
    EXPECT_TRUE(tr.ok);
    EXPECT_EQ(tr.pa, buf);
    EXPECT_GT(mmu.pageTable(nic.domain()).mapped2mEntries(), 0u);
    huge.damnFree(c, buf);

    const mem::Pa a = huge.damnAlloc(c, &nic, Rights::Write, 65536);
    const mem::Pa b = huge.damnAlloc(c2, &nic, Rights::Write, 65536);
    // Dense: chunk IOVAs pack into one small region regardless of the
    // allocating core (no cpu bits in the address; one magazine's
    // worth may be pre-carved, so assert the region bound).
    const iommu::Iova ia = huge.iovaOf(a);
    const iommu::Iova ib = huge.iovaOf(b);
    EXPECT_NE(ia, ib);
    EXPECT_EQ(ia % 65536, 0u);
    EXPECT_EQ(ib % 65536, 0u);
    EXPECT_LT(ia - iommu::kDamnIovaBit, 64u * 65536);
    EXPECT_LT(ib - iommu::kDamnIovaBit, 64u * 65536);
    huge.damnFree(c, a);
    huge.damnFree(c2, b);
}

TEST_F(CoreFixture, NoIommuVariantIsIdentity)
{
    iommu::Iommu off(ctx, /*enabled=*/false);
    dma::Device dev2(ctx, "nic2", off, pm);
    DmaCacheConfig cfg;
    cfg.mapInIommu = false;
    DamnAllocator noiommu(ctx, pa, heap, off, cfg);
    auto c = cpu();
    const mem::Pa buf = noiommu.damnAlloc(c, &dev2, Rights::Write, 4096);
    EXPECT_EQ(noiommu.iovaOf(buf), buf) << "DMA address == PA";
    noiommu.damnFree(c, buf);
}

// ---------------------------------------------------------------------
// DamnDmaApi interposition (section 5.3)
// ---------------------------------------------------------------------

namespace {

struct InterposeFixture : CoreFixture
{
    InterposeFixture()
        : api(ctx, alloc,
              std::make_unique<dma::StrictDmaApi>(ctx, mmu))
    {}

    DamnDmaApi api;
};

} // namespace

TEST_F(InterposeFixture, DamnBufferMapReturnsPermanentIova)
{
    auto c = cpu();
    const mem::Pa buf = alloc.damnAlloc(c, &nic, Rights::Write, 2048);
    const iommu::Iova dma =
        api.map(c, nic, buf, 2048, dma::Dir::FromDevice);
    EXPECT_EQ(dma, alloc.iovaOf(buf));
    EXPECT_EQ(ctx.stats.get(sim::Ctr::DamnMapHits), 1u);
    // Unmap is a no-op: the mapping survives.
    api.unmap(c, nic, dma, 2048, dma::Dir::FromDevice);
    EXPECT_TRUE(mmu.translate(nic.domain(), dma, true).ok);
    alloc.damnFree(c, buf);
}

TEST_F(InterposeFixture, NonDamnBufferFallsBack)
{
    auto c = cpu();
    const mem::Pa kbuf = heap.kmalloc(512);
    const iommu::Iova dma =
        api.map(c, nic, kbuf, 512, dma::Dir::ToDevice);
    EXPECT_FALSE(isDamnIova(dma));
    EXPECT_TRUE(mmu.translate(nic.domain(), dma, false).ok);
    api.unmap(c, nic, dma, 512, dma::Dir::ToDevice);
    // Fallback is strict: unmapped means gone.
    EXPECT_TRUE(mmu.translate(nic.domain(), dma, false).fault);
    heap.kfree(kbuf);
}

TEST_F(InterposeFixture, UnmapDispatchesOnMsb)
{
    auto c = cpu();
    const mem::Pa dbuf = alloc.damnAlloc(c, &nic, Rights::Read, 256);
    const mem::Pa kbuf = heap.kmalloc(256);
    const iommu::Iova d1 = api.map(c, nic, dbuf, 256, dma::Dir::ToDevice);
    const iommu::Iova d2 = api.map(c, nic, kbuf, 256, dma::Dir::ToDevice);
    std::vector<dma::DmaApi::UnmapReq> reqs = {
        {d1, 256, dma::Dir::ToDevice},
        {d2, 256, dma::Dir::ToDevice},
    };
    api.unmapBatch(c, nic, reqs);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::DamnUnmapHits), 1u);
    EXPECT_EQ(ctx.stats.get(sim::Ctr::DmaStrictInvalidations), 1u);
    alloc.damnFree(c, dbuf);
    heap.kfree(kbuf);
}

TEST_F(InterposeFixture, PropertiesAreDamnLevel)
{
    EXPECT_STREQ(dma::schemeKindName(dma::SchemeKind::Damn), "damn");
    dma::SchemeKind parsed;
    ASSERT_TRUE(dma::schemeFromName("damn", &parsed));
    EXPECT_EQ(parsed, dma::SchemeKind::Damn);
    // DAMN's IOVAs are not range-allocated: the only IOVA space is the
    // fallback's.
    ASSERT_NE(api.iovaAllocator(), nullptr);
    EXPECT_EQ(api.iovaAllocator(), api.fallback().iovaAllocator());
}

TEST_F(InterposeFixture, MapIsCheapForDamnBuffers)
{
    auto c = cpu();
    const mem::Pa buf = alloc.damnAlloc(c, &nic, Rights::Write, 4096);
    const sim::TimeNs t0 = c.time;
    api.map(c, nic, buf, 4096, dma::Dir::FromDevice);
    const sim::TimeNs map_cost = c.time - t0;
    EXPECT_LE(map_cost, 3 * ctx.cost.damnMapLookupNs);
    alloc.damnFree(c, buf);
}
