/**
 * @file
 * Byte-accurate simulated physical memory and the page-struct array.
 *
 * Mirrors the Linux model the paper leans on: every physical 4 KiB
 * frame has a `struct page` in a flat array, enabling constant-time
 * conversion between physical addresses and page structs (paper
 * section 5.1).  Kernel virtual addresses are identity-mapped to
 * physical addresses (the direct map), so a `Pa` doubles as the kernel
 * pointer throughout the codebase.
 *
 * Everything is backed on demand, so experiments can declare multi-GiB
 * machines while paying only for the pages they actually use.  Frames
 * are allocated on first write.  The memmap (the `Page` array) and the
 * frame table are anonymous mappings the host kernel zero-fills on
 * first touch, the analogue of Linux's SPARSEMEM vmemmap: an all-zero
 * `Page` is exactly `Page{}` and an all-zero table slot is a null
 * frame pointer, so untouched entries already hold their default
 * state and the constructor writes nothing.
 */

#ifndef DAMN_MEM_PHYS_HH
#define DAMN_MEM_PHYS_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace damn::mem {

/** Physical address (also the kernel direct-map virtual address). */
using Pa = std::uint64_t;
/** Page frame number. */
using Pfn = std::uint64_t;

constexpr unsigned kPageShift = 12;
constexpr std::uint64_t kPageSize = 1ull << kPageShift;

constexpr Pfn paToPfn(Pa pa) { return pa >> kPageShift; }
constexpr Pa pfnToPa(Pfn pfn) { return pfn << kPageShift; }
constexpr std::uint64_t pageOffset(Pa pa) { return pa & (kPageSize - 1); }

/** Page flags (subset of Linux's, plus DAMN's F flag). */
enum PageFlag : std::uint32_t
{
    PG_head = 1u << 0,          //!< first page of a compound
    PG_tail = 1u << 1,          //!< non-first page of a compound
    PG_slab = 1u << 2,          //!< owned by the kmalloc slab layer
    PG_reserved = 1u << 3,      //!< not available to the allocator
    PG_damn = 1u << 4,          //!< DAMN's F flag (set on the *third*
                                //!< page of a DAMN compound, section 5.5)
};

/**
 * Per-frame OS metadata, the analog of Linux's `struct page`.
 *
 * DAMN-specific fields (iova, cacheId) live in the *tail* page structs
 * of a compound, exactly as the paper does to avoid growing the page
 * struct (section 5.5); core::DmaCache::initCompound/clearCompound
 * enforce that placement.
 *
 * Every default is zero: the memmap relies on all-zero bytes being a
 * default-constructed Page.
 */
struct Page
{
    std::uint32_t flags = 0;
    std::int32_t refcount = 0;
    std::uint8_t order = 0;     //!< compound order (head page only)
    Pfn compoundHead = 0;       //!< head pfn (tail pages only)

    // Fields reused for subsystem-private data (valid per context):
    std::uint64_t priv = 0;     //!< DAMN: chunk IOVA (tail page 1)
    std::uint32_t priv2 = 0;    //!< DAMN: owning DMA-cache id (tail 1)
    std::uint32_t slabClass = 0;//!< kmalloc: size-class index

    bool test(PageFlag f) const { return flags & f; }
    void set(PageFlag f) { flags |= f; }
    void clearFlag(PageFlag f) { flags &= ~std::uint32_t(f); }
};

namespace detail {
/** Map @p bytes of zero-fill-on-demand memory; throws bad_alloc. */
void *mapZeroed(std::size_t bytes);
/** Release a mapZeroed() region. */
void unmapZeroed(void *p, std::size_t bytes);
} // namespace detail

/**
 * A fixed-size array in an anonymous private mapping.  The host kernel
 * hands out zero pages on first touch, so only the parts of the array
 * that are used ever become resident.  Valid only for trivially
 * destructible types whose all-zero bytes are their default state.
 */
template <typename T>
class ZeroFilledArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);

  public:
    explicit ZeroFilledArray(std::size_t n)
        : bytes_(n * sizeof(T)),
          data_(static_cast<T *>(detail::mapZeroed(bytes_)))
    {}
    ~ZeroFilledArray() { detail::unmapZeroed(data_, bytes_); }

    ZeroFilledArray(const ZeroFilledArray &) = delete;
    ZeroFilledArray &operator=(const ZeroFilledArray &) = delete;

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    const T *data() const { return data_; }

  private:
    std::size_t bytes_;
    T *data_;
};

/**
 * The machine's physical memory: lazily-backed 4 KiB frames plus the
 * page-struct array.
 */
class PhysicalMemory
{
  public:
    /** @param bytes total physical memory size; must be page-aligned. */
    explicit PhysicalMemory(std::uint64_t bytes)
        : numFrames_(bytes >> kPageShift),
          frames_(numFrames_),
          pages_(numFrames_)
    {
        assert(bytes % kPageSize == 0);
        assert(numFrames_ > 0);
    }

    std::uint64_t sizeBytes() const { return numFrames_ * kPageSize; }
    Pfn numFrames() const { return numFrames_; }

    /** Page struct for a frame (constant time, like Linux's memmap). */
    Page &page(Pfn pfn) { assert(pfn < numFrames_); return pages_[pfn]; }
    const Page &
    page(Pfn pfn) const
    {
        assert(pfn < numFrames_);
        return pages_[pfn];
    }

    /** Page struct for the frame containing @p pa. */
    Page &pageOf(Pa pa) { return page(paToPfn(pa)); }

    /** Pfn of a page struct (reverse of page()). */
    Pfn
    pfnOf(const Page &pg) const
    {
        return Pfn(&pg - pages_.data());
    }

    /** Write @p len bytes at @p pa (may cross frames). */
    void write(Pa pa, const void *src, std::uint64_t len);
    /** Read @p len bytes at @p pa (may cross frames). */
    void read(Pa pa, void *dst, std::uint64_t len) const;
    /** Fill @p len bytes at @p pa with @p value.  Zero-filling a
     *  frame that has no backing yet is a no-op. */
    void fill(Pa pa, std::uint8_t value, std::uint64_t len);
    /** Copy @p len bytes within physical memory. */
    void copy(Pa dst, Pa src, std::uint64_t len);
    /** Read one byte. */
    std::uint8_t readByte(Pa pa) const;

    /** Number of frames that have been touched (backed). */
    std::uint64_t backedFrames() const { return owned_.size(); }

  private:
    using Frame = std::array<std::uint8_t, kPageSize>;

    std::uint8_t *
    backing(Pfn pfn)
    {
        assert(pfn < numFrames_);
        Frame *&f = frames_[pfn];
        if (!f)
            f = owned_.emplace_back(std::make_unique<Frame>()).get();
        return f->data();
    }

    const std::uint8_t *
    backingConst(Pfn pfn) const
    {
        // Reads of never-written frames observe zeros without backing
        // them; a static zero frame serves all such reads.
        static const Frame kZero{};
        assert(pfn < numFrames_);
        const Frame *f = frames_[pfn];
        return f ? f->data() : kZero.data();
    }

    Pfn numFrames_;
    /** Frame table indexed by pfn; null until the frame is written. */
    ZeroFilledArray<Frame *> frames_;
    ZeroFilledArray<Page> pages_;
    /** Owns every backed frame, so teardown never walks the table. */
    std::vector<std::unique_ptr<Frame>> owned_;
};

} // namespace damn::mem

#endif // DAMN_MEM_PHYS_HH
