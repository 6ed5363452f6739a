/**
 * @file
 * Four-level I/O page table (Intel VT-d second-level style).
 *
 * Maps 48-bit I/O virtual addresses to physical addresses at 4 KiB
 * granularity, with optional 2 MiB "huge" mappings (used by the paper's
 * Table 3 huge-IOVA-page variant).  Each mapping carries read/write
 * permission bits; translation fails on a missing entry or an access
 * that exceeds the granted rights.
 */

#ifndef DAMN_IOMMU_IO_PGTABLE_HH
#define DAMN_IOMMU_IO_PGTABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/phys.hh"

namespace damn::iommu {

/** I/O virtual address (48-bit significant). */
using Iova = std::uint64_t;

/** DMA access permissions. */
enum Perm : std::uint32_t
{
    PermNone = 0,
    PermRead = 1,   //!< device may read (TX buffers)
    PermWrite = 2,  //!< device may write (RX buffers)
    PermRW = PermRead | PermWrite,
};

constexpr unsigned kIovaBits = 48;
constexpr std::uint64_t kHugePageSize = 2ull << 20; // 2 MiB

/** Result of a page-table walk. */
struct WalkResult
{
    bool present = false;
    mem::Pa pa = 0;          //!< translated physical address
    std::uint32_t perm = 0;  //!< permissions of the covering entry
    bool huge = false;       //!< covered by a 2 MiB entry
};

/**
 * Radix page table: 4 levels x 9 bits + 12-bit page offset = 48 bits.
 * Level 1 is the leaf level for 4 KiB pages; level 2 entries may be
 * leaves for 2 MiB pages.  As in hardware, an entry is one 8-byte
 * word: empty, a leaf, or the next level's address.  Interior nodes
 * live until the table does, so a 2 MiB region that once held a 4 KiB
 * table can no longer take a huge leaf.
 */
class IoPageTable
{
  public:
    IoPageTable();
    ~IoPageTable();

    IoPageTable(const IoPageTable &) = delete;
    IoPageTable &operator=(const IoPageTable &) = delete;

    /**
     * Map one 4 KiB page: @p iova -> @p pa with @p perm.
     * @return false if already mapped or inside a 2 MiB leaf (callers
     *         treat as a bug).
     */
    bool map(Iova iova, mem::Pa pa, std::uint32_t perm);

    /** Map one 2 MiB block (iova and pa must be 2 MiB aligned). */
    bool mapHuge(Iova iova, mem::Pa pa, std::uint32_t perm);

    /**
     * Remove the 4 KiB mapping at @p iova.
     * @return true if a mapping was removed.
     */
    bool unmap(Iova iova);

    /** Walk the table for @p iova. */
    WalkResult walk(Iova iova) const;

    /** Currently-mapped 4 KiB-equivalent page count. */
    std::uint64_t mappedPages() const { return mapped4k_ + mapped2m_ * 512; }
    std::uint64_t mapped4kEntries() const { return mapped4k_; }
    std::uint64_t mapped2mEntries() const { return mapped2m_; }

  private:
    struct Node; // 512-ary radix node of 8-byte entries

    std::uint64_t *lookupEntry(Iova iova, unsigned leaf_level, bool create);

    /** Every node, root first; the table owns them all until it dies. */
    std::vector<std::unique_ptr<Node>> nodes_;
    std::uint64_t mapped4k_ = 0;
    std::uint64_t mapped2m_ = 0;
};

} // namespace damn::iommu

#endif // DAMN_IOMMU_IO_PGTABLE_HH
