/**
 * @file
 * Socket buffers (skbuffs) and the accessor API DAMN interposes on.
 *
 * Packet data may live in a non-contiguous set of buffers, so all OS
 * code must access it through this accessor API (paper section 5.2).
 * That API is DAMN's TOCTTOU interposition point: the first time the
 * OS touches a byte range whose backing store is device-writable DAMN
 * memory, the range is copied into a kernel buffer out of the device's
 * reach, and the skbuff is adjusted to point at the copy.  The device
 * can then no longer change data the OS has already seen.
 */

#ifndef DAMN_NET_SKBUFF_HH
#define DAMN_NET_SKBUFF_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "core/damn_allocator.hh"
#include "dma/dma_api.hh"
#include "iommu/io_pgtable.hh"
#include "mem/page_frag.hh"
#include "mem/phys.hh"
#include "sim/cpu_cursor.hh"

namespace damn::net {

/** How a data segment of an skbuff is owned / should be freed. */
enum class SegOwner : std::uint8_t
{
    Damn,       //!< damn_alloc'ed (freed via damn_free)
    Kmalloc,    //!< kmalloc'ed
    Pages,      //!< raw pages from the buddy allocator
    PageFrag,   //!< sk_page_frag fragment (stock TX payload)
    Borrowed,   //!< not owned (e.g., shared clone); never freed
};

/** One contiguous piece of packet data. */
struct SkbSegment
{
    mem::Pa pa = 0;
    std::uint32_t len = 0;
    SegOwner owner = SegOwner::Borrowed;
    std::uint8_t pageOrder = 0;   //!< for SegOwner::Pages
    bool secured = false;         //!< already copied out of device reach

    // DMA-mapping state while the segment is device-visible.
    iommu::Iova dmaAddr = 0;
    std::uint32_t dmaLen = 0;
    bool dmaMapped = false;
    dma::Dir dmaDir = dma::Dir::FromDevice;
};

static_assert(std::is_trivially_copyable_v<SkbSegment>,
              "SkbSegList copies segments as raw storage");

/**
 * An skbuff's ordered segment list.  The first kInline segments live
 * inside the object, so building an RX skb (one segment, up to four
 * once the TOCTTOU guard splits it) or a 64 KiB TX skb (head + four
 * frags) allocates nothing; longer lists spill to one heap array.
 * The inline array is raw storage: constructing a list initialises
 * none of its kInline segments, and only the first size() of them are
 * ever read (SkbSegment is trivially copyable, so push_back and the
 * moves simply assign into it).
 */
class SkbSegList
{
  public:
    static constexpr std::size_t kInline = 6;

    SkbSegList() noexcept {}
    SkbSegList(SkbSegList &&o) noexcept { steal(o); }

    SkbSegList &
    operator=(SkbSegList &&o) noexcept
    {
        if (this != &o)
            steal(o);
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    SkbSegment *begin() { return data(); }
    SkbSegment *end() { return data() + size_; }
    const SkbSegment *begin() const { return data(); }
    const SkbSegment *end() const { return data() + size_; }
    SkbSegment &operator[](std::size_t i) { return data()[i]; }
    const SkbSegment &operator[](std::size_t i) const
    {
        return data()[i];
    }

    void
    push_back(const SkbSegment &seg)
    {
        reserve(size_ + 1);
        data()[size_++] = seg;
    }

    void clear() { size_ = 0; }

    /** Replace segment @p i by the @p n segments at @p with. */
    void replace(std::size_t i, const SkbSegment *with, std::size_t n);

  private:
    SkbSegment *data() { return spill_ ? spill_.get() : inline_; }
    const SkbSegment *
    data() const
    {
        return spill_ ? spill_.get() : inline_;
    }

    /** Make room for @p n segments, keeping the current ones. */
    void reserve(std::size_t n);
    void steal(SkbSegList &o) noexcept;

    std::size_t size_ = 0;
    std::size_t cap_ = kInline;
    std::unique_ptr<SkbSegment[]> spill_;
    /** In a union so that no segment is default-initialised. */
    union
    {
        SkbSegment inline_[kInline];
    };
};

/**
 * A socket buffer: an ordered list of data segments plus packet
 * metadata.  (Linux's head+frags layout collapses to the same thing
 * for our purposes: an ordered set of contiguous byte ranges.)
 */
class SkBuff
{
  public:
    SkbSegList segs;
    dma::Device *dev = nullptr;     //!< originating/target device
    std::uint32_t headerLen = 66;   //!< Ethernet+IP+TCP header bytes
    /** Build gave up under memory pressure; drop + retry, don't send. */
    bool allocFailed = false;

    /** Total packet bytes. */
    std::uint32_t
    len() const
    {
        std::uint32_t n = 0;
        for (const auto &s : segs)
            n += s.len;
        return n;
    }

    /** Append a data segment. */
    void
    append(const SkbSegment &seg)
    {
        segs.push_back(seg);
    }
};

/**
 * The TOCTTOU guard: interposes on skbuff data accesses and copies
 * device-writable DAMN bytes to kernel memory on first OS access.
 *
 * For non-DAMN configurations, the guard degrades to a plain reader
 * (the data either is in kernel memory already, or the scheme made it
 * inaccessible to the device at dma_unmap time).
 */
class SkbAccessor
{
  public:
    /**
     * @param alloc  the DAMN allocator, or nullptr when the system
     *               under test does not use DAMN.
     */
    SkbAccessor(sim::Context &ctx, mem::PageAllocator &pa,
                mem::KmallocHeap &heap, mem::PageFragAllocator &frag,
                core::DamnAllocator *alloc)
        : ctx_(ctx), pageAlloc_(pa), pm_(pa.phys()), heap_(heap),
          frag_(frag), alloc_(alloc)
    {}

    /**
     * OS read of packet bytes [off, off+len): secures the range first
     * if needed, then optionally copies it to @p dst (may be nullptr
     * for a touch-only access such as checksum or filter inspection;
     * the securing copy still happens).
     */
    void access(sim::CpuCursor &cpu, SkBuff &skb, std::uint32_t off,
                std::uint32_t len, void *dst = nullptr);

    /**
     * Copy device-writable DAMN bytes [off, off+len) into kernel
     * buffers and repoint the skbuff (the core of section 5.2).
     * Ranges already secured are skipped.
     * @return bytes actually copied.
     */
    std::uint64_t secureRange(sim::CpuCursor &cpu, SkBuff &skb,
                              std::uint32_t off, std::uint32_t len);

    /**
     * Allocate one @p bytes -byte data segment: the mirror of
     * freeSkb(), and the one place a buffer's memory source is
     * decided (section 5.7's dma_alloc_skb: callers pass the device
     * and never branch on the scheme).  On a DAMN system with a device
     * the buffer comes from DAMN with @p rights (damnAllocPages when
     * @p stock is Pages, else damnAlloc); otherwise from the stock
     * allocator @p stock names (Kmalloc, Pages or PageFrag), charged
     * before allocating as freeSkb charges before freeing.  A failed
     * allocation runs one forced reclaim and retries once; if that
     * fails too the segment has pa == 0 and owner Borrowed, so
     * freeSkb ignores it.
     */
    SkbSegment allocSeg(sim::CpuCursor &cpu, dma::Device *dev,
                        SegOwner stock, core::Rights rights,
                        std::uint32_t bytes,
                        core::AllocCtx actx = core::AllocCtx::Standard);

    /** Free all owned segments of @p skb. */
    void freeSkb(sim::CpuCursor &cpu, SkBuff &skb,
                 core::AllocCtx actx = core::AllocCtx::Standard);

    /** Cumulative bytes the guard copied (figure 8 accounting). */
    std::uint64_t
    securedBytes() const
    {
        return ctx_.stats.get(sim::Ctr::GuardSecuredBytes);
    }

  private:
    bool needsSecuring(const SkbSegment &seg) const;

    sim::Context &ctx_;
    mem::PageAllocator &pageAlloc_;
    mem::PhysicalMemory &pm_;
    mem::KmallocHeap &heap_;
    mem::PageFragAllocator &frag_;
    core::DamnAllocator *alloc_;
};

} // namespace damn::net

#endif // DAMN_NET_SKBUFF_HH
