/**
 * @file
 * Radix I/O page-table implementation.
 */

#include "iommu/io_pgtable.hh"

#include <array>
#include <cassert>

namespace damn::iommu {

struct IoPageTable::Node
{
    std::array<std::uint64_t, 512> slots{};
};

namespace {

// Entry encoding: 0 is empty; a leaf is pa | perm | kPresent, plus
// kHugeBit at level 2; anything else is the child Node's address.
constexpr std::uint64_t kPresent = 1ull << 0;
constexpr std::uint64_t kReadBit = 1ull << 1;
constexpr std::uint64_t kWriteBit = 1ull << 2;
constexpr std::uint64_t kHugeBit = 1ull << 3;
constexpr std::uint64_t kAddrMask = ~0xfffull;

/** Index of @p iova at radix @p level (level 1 = leaf for 4 KiB). */
constexpr unsigned
levelIndex(Iova iova, unsigned level)
{
    const unsigned shift = 12 + 9 * (level - 1);
    return unsigned((iova >> shift) & 0x1ff);
}

constexpr std::uint64_t
permBits(std::uint32_t perm)
{
    return ((perm & PermRead) ? kReadBit : 0) |
        ((perm & PermWrite) ? kWriteBit : 0);
}

} // namespace

IoPageTable::IoPageTable()
{
    static_assert(sizeof(Node) == 4096, "one page per node");
    static_assert(kPresent < alignof(Node),
                  "a child address must leave kPresent clear");
    nodes_.reserve(4); // the root plus one path to a 4 KiB leaf
    nodes_.push_back(std::make_unique<Node>());
}

IoPageTable::~IoPageTable() = default;

std::uint64_t *
IoPageTable::lookupEntry(Iova iova, unsigned leaf_level, bool create)
{
    Node *node = nodes_.front().get();
    for (unsigned level = 4; level > leaf_level; --level) {
        std::uint64_t &e = node->slots[levelIndex(iova, level)];
        if (e & kPresent)
            return nullptr; // never descend through a leaf
        if (e == 0) {
            if (!create)
                return nullptr;
            nodes_.push_back(std::make_unique<Node>());
            e = reinterpret_cast<std::uintptr_t>(nodes_.back().get());
        }
        node = reinterpret_cast<Node *>(e);
    }
    return &node->slots[levelIndex(iova, leaf_level)];
}

bool
IoPageTable::map(Iova iova, mem::Pa pa, std::uint32_t perm)
{
    assert((iova & (mem::kPageSize - 1)) == 0);
    assert((pa & (mem::kPageSize - 1)) == 0);
    std::uint64_t *e = lookupEntry(iova, 1, /*create=*/true);
    if (!e || *e != 0)
        return false;
    *e = (pa & kAddrMask) | permBits(perm) | kPresent;
    ++mapped4k_;
    return true;
}

bool
IoPageTable::mapHuge(Iova iova, mem::Pa pa, std::uint32_t perm)
{
    assert((iova & (kHugePageSize - 1)) == 0);
    assert((pa & (kHugePageSize - 1)) == 0);
    std::uint64_t *e = lookupEntry(iova, 2, /*create=*/true);
    if (!e || *e != 0) // a leaf, or a 4 KiB table that outlived its pages
        return false;
    *e = (pa & kAddrMask) | permBits(perm) | kPresent | kHugeBit;
    ++mapped2m_;
    return true;
}

bool
IoPageTable::unmap(Iova iova)
{
    std::uint64_t *e = lookupEntry(iova, 1, /*create=*/false);
    if (!e || !(*e & kPresent))
        return false;
    *e = 0;
    assert(mapped4k_ > 0);
    --mapped4k_;
    return true;
}

WalkResult
IoPageTable::walk(Iova iova) const
{
    unsigned level = 4;
    std::uint64_t e = nodes_.front()->slots[levelIndex(iova, level)];
    while (e != 0 && !(e & kPresent)) {
        const Node *child = reinterpret_cast<const Node *>(e);
        e = child->slots[levelIndex(iova, --level)];
    }
    WalkResult r;
    if (!(e & kPresent))
        return r;
    const std::uint64_t size = (e & kHugeBit) ? kHugePageSize : mem::kPageSize;
    r.present = true;
    r.huge = (e & kHugeBit) != 0;
    r.pa = (e & kAddrMask) | (iova & (size - 1));
    r.perm = ((e & kReadBit) ? std::uint32_t(PermRead) : 0u) |
        ((e & kWriteBit) ? std::uint32_t(PermWrite) : 0u);
    return r;
}

} // namespace damn::iommu
