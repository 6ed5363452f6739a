/**
 * @file
 * Buddy allocator implementation.
 */

#include "mem/page_alloc.hh"

#include <cassert>

namespace damn::mem {

namespace {

/** Marks a free buddy block: head page carries order + this flag. */
constexpr std::uint32_t kBuddyFree = 1u << 31;

} // namespace

PageAllocator::PageAllocator(PhysicalMemory &pm, unsigned zones)
    : pm_(pm)
{
    assert(zones >= 1);
    const Pfn per_zone = pm.numFrames() / zones;
    assert(per_zone >= (1ull << kMaxOrder));
    zones_.resize(zones);
    for (unsigned zi = 0; zi < zones; ++zi) {
        Zone &z = zones_[zi];
        z.base = per_zone * zi;
        z.frames = per_zone;
        z.free.resize(kMaxOrder + 1);
        // Frame 0 stays reserved so Pa 0 can serve as null; the whole
        // first max-order block of zone 0 is reserved with it.  Every
        // other full max-order block starts above the mark, free but
        // never written (see Zone).
        z.untouched = z.base;
        if (zi == 0) {
            for (Pfn p = 0; p < (1ull << kMaxOrder); ++p)
                pm_.page(p).set(PG_reserved);
            z.untouched += 1ull << kMaxOrder;
        }
        const Pfn blocks = (z.base + z.frames - z.untouched) >> kMaxOrder;
        z.freeFrames = blocks << kMaxOrder;
    }
}

sim::NumaId
PageAllocator::nodeOf(Pfn pfn) const
{
    for (unsigned zi = 0; zi < zones_.size(); ++zi) {
        const Zone &z = zones_[zi];
        if (pfn >= z.base && pfn < z.base + z.frames)
            return sim::NumaId(zi);
    }
    return 0;
}

PageAllocator::Zone &
PageAllocator::zoneOf(Pfn pfn)
{
    return zones_[nodeOf(pfn)];
}

Pfn
PageAllocator::allocFromZone(Zone &z, unsigned order, bool zero)
{
    // Find the smallest available order >= requested.
    unsigned o = order;
    while (o <= kMaxOrder && z.free[o].empty())
        ++o;
    Pfn pfn;
    if (o <= kMaxOrder) {
        pfn = *z.free[o].begin();
        z.free[o].erase(z.free[o].begin());
        pm_.page(pfn).flags &= ~kBuddyFree;
    } else {
        // Every free list is empty, so the block at the mark is the
        // lowest free max-order block: carve it.
        if (z.untouched + (1ull << kMaxOrder) > z.base + z.frames)
            return kInvalidPfn;
        pfn = z.untouched;
        z.untouched += 1ull << kMaxOrder;
        o = kMaxOrder;
    }

    // Split down to the requested order, returning the upper halves
    // to the free lists.
    while (o > order) {
        --o;
        const Pfn buddy = pfn + (1ull << o);
        Page &bpg = pm_.page(buddy);
        bpg.order = std::uint8_t(o);
        bpg.flags |= kBuddyFree;
        z.free[o].insert(buddy);
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
    // Coalesce with free buddies as far as possible.
    while (order < kMaxOrder) {
        const Pfn buddy = pfn ^ (1ull << order);
        if (buddy < z.base || buddy + (1ull << order) > z.base + z.frames)
            break;
        Page &bpg = pm_.page(buddy);
        if (!(bpg.flags & kBuddyFree) || bpg.order != order)
            break;
        z.free[order].erase(buddy);
        bpg.flags &= ~kBuddyFree;
        pfn = pfn < buddy ? pfn : buddy;
        ++order;
    }
    Page &pg = pm_.page(pfn);
    pg.order = std::uint8_t(order);
    pg.flags |= kBuddyFree;
    z.free[order].insert(pfn);
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

    Zone &z = zoneOf(pfn);
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
