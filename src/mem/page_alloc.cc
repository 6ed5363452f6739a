/**
 * @file
 * Buddy allocator implementation.
 */

#include "mem/page_alloc.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace damn::mem {

namespace {

/** Marks a free buddy block: head page carries order + this flag. */
constexpr std::uint32_t kBuddyFree = 1u << 31;

constexpr std::size_t kWordBits = 64;

constexpr std::size_t
wordsFor(std::uint64_t bits)
{
    return std::size_t((bits + kWordBits - 1) / kWordBits);
}

/** Frames per zone, refusing a zone the buddy rules cannot serve. */
Pfn
zoneFrames(const PhysicalMemory &pm, unsigned zones)
{
    const Pfn per_zone = zones == 0 ? 0 : pm.numFrames() / zones;
    if (per_zone == 0 || per_zone % (1ull << PageAllocator::kMaxOrder))
        throw std::invalid_argument(
            "PageAllocator: zones must be whole max-order blocks");
    return per_zone;
}

/** Words of one zone's free bitmaps, every order's words and summary. */
std::size_t
zoneBitmapWords(Pfn per_zone)
{
    std::size_t n = 0;
    for (unsigned o = 0; o <= PageAllocator::kMaxOrder; ++o)
        n += wordsFor(per_zone >> o) + wordsFor(wordsFor(per_zone >> o));
    return n;
}

} // namespace

bool
PageAllocator::FreeList::mark(std::uint64_t i, bool free)
{
    const std::size_t w = i / kWordBits, sw = w / kWordBits;
    const std::uint64_t bit = 1ull << (i % kWordBits);
    if (bool(words[w] & bit) == free)
        return false;
    words[w] ^= bit;
    const std::uint64_t sbit = 1ull << (w % kWordBits);
    summary[sw] = words[w] != 0 ? summary[sw] | sbit : summary[sw] & ~sbit;
    count = free ? count + 1 : count - 1;
    first = std::min(first, sw);
    return true;
}

std::uint64_t
PageAllocator::FreeList::popLowest()
{
    assert(count != 0);
    while (summary[first] == 0)
        ++first;
    const std::size_t w = first * kWordBits + std::countr_zero(summary[first]);
    const std::uint64_t i = w * kWordBits + std::countr_zero(words[w]);
    mark(i, false);
    return i;
}

PageAllocator::PageAllocator(PhysicalMemory &pm, unsigned zones)
    : pm_(pm),
      bitmaps_(zones * zoneBitmapWords(zoneFrames(pm, zones)))
{
    const Pfn per_zone = zoneFrames(pm, zones);
    zones_.resize(zones);
    std::uint64_t *bits = &bitmaps_[0];
    for (unsigned zi = 0; zi < zones; ++zi) {
        Zone &z = zones_[zi];
        z.base = per_zone * zi;
        z.frames = per_zone;
        for (unsigned o = 0; o <= kMaxOrder; ++o) {
            z.free[o].words = bits;
            z.free[o].summary = bits += wordsFor(per_zone >> o);
            bits += wordsFor(wordsFor(per_zone >> o));
        }
        // Frame 0 stays reserved so Pa 0 can serve as null; the whole
        // first max-order block of zone 0 is reserved with it.  Every
        // other full max-order block starts above the mark, free but
        // never written (see Zone).
        if (zi == 0)
            for (Pfn p = 0; p < (1ull << kMaxOrder); ++p)
                pm_.page(p).set(PG_reserved);
        z.untouched = z.base + (zi == 0 ? 1ull << kMaxOrder : 0);
        z.freeFrames = z.base + z.frames - z.untouched;
    }
}

sim::NumaId
PageAllocator::nodeOf(Pfn pfn) const
{
    const Pfn zi = pfn / zones_[0].frames; // zones are equal and tile
    return zi < zones_.size() ? sim::NumaId(zi) : 0;
}

Pfn
PageAllocator::allocFromZone(Zone &z, unsigned order, bool zero)
{
    // Find the smallest available order >= requested.
    unsigned o = order;
    while (o <= kMaxOrder && z.free[o].empty())
        ++o;
    if (o > kMaxOrder) {
        // Every list is empty: carve the never-used block at the mark.
        if (z.untouched == z.base + z.frames)
            return kInvalidPfn;
        o = kMaxOrder;
        z.free[o].mark((z.untouched - z.base) >> o, true);
        z.untouched += 1ull << o;
    }
    const Pfn pfn = z.base + (z.free[o].popLowest() << o);
    pm_.page(pfn).flags &= ~kBuddyFree;

    // Split down to the requested order, returning the upper halves
    // to the free lists.
    while (o > order) {
        --o;
        const Pfn buddy = pfn + (1ull << o);
        Page &bpg = pm_.page(buddy);
        bpg.order = std::uint8_t(o);
        bpg.flags |= kBuddyFree;
        z.free[o].mark((buddy - z.base) >> o, true);
    }

    Page &pg = pm_.page(pfn);
    pg.order = std::uint8_t(order);
    pg.refcount = 1;

    const Pfn frames = 1ull << order;
    z.freeFrames -= frames;
    allocatedFrames_ += frames;
    ++allocCalls_;

    if (zero)
        pm_.fill(pfnToPa(pfn), 0, frames * kPageSize);
    return pfn;
}

Pfn
PageAllocator::allocPages(unsigned order, sim::NumaId node, bool zero)
{
    assert(order <= kMaxOrder);
    const unsigned nz = unsigned(zones_.size());
    for (unsigned i = 0; i < nz; ++i) {
        const unsigned zi = (node + i) % nz;
        const Pfn pfn = allocFromZone(zones_[zi], order, zero);
        if (pfn != kInvalidPfn)
            return pfn;
    }
    return kInvalidPfn;
}

void
PageAllocator::freeToZone(Zone &z, Pfn pfn, unsigned order)
{
    // Coalesce with free buddies as far as possible.  Zones are whole
    // max-order blocks, so a buddy below max order is in the zone.
    while (order < kMaxOrder) {
        const Pfn buddy = pfn ^ (1ull << order);
        if (!z.free[order].mark((buddy - z.base) >> order, false))
            break;
        Page &bpg = pm_.page(buddy);
        bpg.flags &= ~kBuddyFree;
        pfn = pfn < buddy ? pfn : buddy;
        ++order;
    }
    Page &pg = pm_.page(pfn);
    pg.order = std::uint8_t(order);
    pg.flags |= kBuddyFree;
    z.free[order].mark((pfn - z.base) >> order, true);
}

void
PageAllocator::freePages(Pfn pfn, unsigned order)
{
    assert(order <= kMaxOrder);
    Page &pg = pm_.page(pfn);
    assert(!(pg.flags & kBuddyFree) && "double free");
    pg.refcount = 0;
    // Clear per-page metadata across the block so reuse starts clean.
    for (Pfn p = pfn; p < pfn + (1ull << order); ++p) {
        Page &tp = pm_.page(p);
        tp.flags &= kBuddyFree; // wipe everything but the buddy bit
        tp.compoundHead = 0;
        tp.priv = 0;
        tp.priv2 = 0;
        tp.slabClass = 0;
    }

    Zone &z = zones_[nodeOf(pfn)];
    const Pfn frames = 1ull << order;
    z.freeFrames += frames;
    assert(allocatedFrames_ >= frames);
    allocatedFrames_ -= frames;
    freeToZone(z, pfn, order);
}

std::uint64_t
PageAllocator::freeFramesInZone(unsigned zone) const
{
    assert(zone < zones_.size());
    return zones_[zone].freeFrames;
}

std::uint64_t
PageAllocator::freeFrames() const
{
    std::uint64_t t = 0;
    for (const auto &z : zones_)
        t += z.freeFrames;
    return t;
}

} // namespace damn::mem
