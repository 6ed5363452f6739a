/**
 * @file
 * Per-core page-fragment allocator — the kernel's sk_page_frag /
 * netdev_alloc_frag mechanism that stock Linux uses for TX payload
 * buffers.
 *
 * A bump pointer carves an order-5 (128 KiB) block; each fragment takes
 * a reference on the block's head page, and the block returns to the
 * buddy allocator when the last fragment is freed.  The paper notes
 * (section 5.4) that DAMN's top-level allocator is essentially this
 * same "page frag" pattern — the difference is that DAMN's blocks are
 * permanently IOMMU-mapped chunks.
 */

#ifndef DAMN_MEM_PAGE_FRAG_HH
#define DAMN_MEM_PAGE_FRAG_HH

#include <vector>

#include "mem/page_alloc.hh"
#include "sim/context.hh"
#include "sim/cpu_cursor.hh"

namespace damn::mem {

/** Per-core bump allocator over buddy blocks with page refcounting. */
class PageFragAllocator
{
  public:
    static constexpr unsigned kBlockOrder = 5; // 128 KiB
    static constexpr std::uint64_t kBlockBytes =
        kPageSize << kBlockOrder;

    PageFragAllocator(sim::Context &ctx, PageAllocator &pa)
        : ctx_(ctx), pageAlloc_(pa),
          perCore_(ctx.machine.numCores())
    {}

    PageFragAllocator(const PageFragAllocator &) = delete;
    PageFragAllocator &operator=(const PageFragAllocator &) = delete;

    /**
     * Allocate @p size bytes (<= 128 KiB) from the calling core's
     * current block.
     * @return the fragment's address, or 0 when the buddy allocator
     *         cannot back a fresh block (memory pressure) — the caller
     *         backs off and retries, as the TX path does for a failed
     *         sk_page_frag refill.
     */
    Pa
    alloc(sim::CpuCursor &cpu, std::uint32_t size)
    {
        assert(size > 0 && size <= kBlockBytes);
        cpu.charge(ctx_.cost.pageFragNs);
        Bump &b = perCore_[cpu.id()];
        if (b.pfn == kInvalidPfn || b.offset + size > kBlockBytes) {
            retire(cpu, b);
            cpu.charge(ctx_.cost.pageAllocNs);
            b.pfn = pageAlloc_.allocPages(kBlockOrder, cpu.numa());
            if (b.pfn == kInvalidPfn) {
                ctx_.stats.add(sim::Ctr::MemPageFragFails);
                return 0;
            }
            b.offset = 0;
            Page &head = pageAlloc_.phys().page(b.pfn);
            head.set(PG_head);
            head.order = kBlockOrder;
            head.refcount = 1; // allocator bias
            for (Pfn p = b.pfn + 1; p < b.pfn + (1u << kBlockOrder);
                 ++p) {
                Page &tail = pageAlloc_.phys().page(p);
                tail.set(PG_tail);
                tail.compoundHead = b.pfn;
            }
        }
        const Pa pa = pfnToPa(b.pfn) + b.offset;
        b.offset += size;
        ++pageAlloc_.phys().page(b.pfn).refcount;
        return pa;
    }

    /** Drop a fragment's reference; frees the block when it was last. */
    void
    free(sim::CpuCursor &cpu, Pa addr)
    {
        cpu.charge(ctx_.cost.pageFragNs);
        auto &pm = pageAlloc_.phys();
        const Page &pg = pm.pageOf(addr);
        const Pfn head =
            pg.test(PG_head) ? paToPfn(addr) : pg.compoundHead;
        Page &hp = pm.page(head);
        assert(hp.refcount > 0);
        if (--hp.refcount == 0) {
            cpu.charge(ctx_.cost.pageAllocNs);
            pageAlloc_.freePages(head, kBlockOrder);
        }
    }

  private:
    struct Bump
    {
        Pfn pfn = kInvalidPfn;
        std::uint64_t offset = 0;
    };

    /** Drop the allocator bias on the outgoing block. */
    void
    retire(sim::CpuCursor &cpu, Bump &b)
    {
        if (b.pfn == kInvalidPfn)
            return;
        Page &hp = pageAlloc_.phys().page(b.pfn);
        assert(hp.refcount > 0);
        if (--hp.refcount == 0) {
            cpu.charge(ctx_.cost.pageAllocNs);
            pageAlloc_.freePages(b.pfn, kBlockOrder);
        }
        b.pfn = kInvalidPfn;
        b.offset = 0;
    }

    sim::Context &ctx_;
    PageAllocator &pageAlloc_;
    std::vector<Bump> perCore_;
};

} // namespace damn::mem

#endif // DAMN_MEM_PAGE_FRAG_HH
