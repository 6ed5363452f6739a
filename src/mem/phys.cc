/**
 * @file
 * PhysicalMemory data-path implementation.
 */

#include "mem/phys.hh"

#include <sys/mman.h>

#include <algorithm>
#include <new>

namespace damn::mem {

void *
detail::mapZeroed(std::size_t bytes)
{
    // MAP_NORESERVE: a 4 GiB machine reserves ~48 MB of address space
    // but commits only the pages its simulation touches.
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    // Keep first-touch at 4 KiB granularity even where transparent
    // huge pages are on by default; a 2 MiB fault per sparse access
    // would make most of the memmap resident.  Advisory only.
    ::madvise(p, bytes, MADV_NOHUGEPAGE);
    return p;
}

void
detail::unmapZeroed(void *p, std::size_t bytes)
{
    ::munmap(p, bytes);
}

void
PhysicalMemory::write(Pa pa, const void *src, std::uint64_t len)
{
    const auto *s = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const Pfn pfn = paToPfn(pa);
        const std::uint64_t off = pageOffset(pa);
        const std::uint64_t chunk = std::min(len, kPageSize - off);
        std::memcpy(backing(pfn) + off, s, chunk);
        pa += chunk;
        s += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::read(Pa pa, void *dst, std::uint64_t len) const
{
    auto *d = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const Pfn pfn = paToPfn(pa);
        const std::uint64_t off = pageOffset(pa);
        const std::uint64_t chunk = std::min(len, kPageSize - off);
        std::memcpy(d, backingConst(pfn) + off, chunk);
        pa += chunk;
        d += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::fill(Pa pa, std::uint8_t value, std::uint64_t len)
{
    while (len > 0) {
        const Pfn pfn = paToPfn(pa);
        const std::uint64_t off = pageOffset(pa);
        const std::uint64_t chunk = std::min(len, kPageSize - off);
        // A frame never written already reads as zero: zeroing it
        // writes nothing and leaves it unbacked.
        if (value != 0 || frames_[pfn] != nullptr)
            std::memset(backing(pfn) + off, value, chunk);
        pa += chunk;
        len -= chunk;
    }
}

void
PhysicalMemory::copy(Pa dst, Pa src, std::uint64_t len)
{
    // Buffers never overlap in practice (distinct allocations); do a
    // simple bounce through a stack buffer per chunk to stay safe.
    std::uint8_t tmp[512];
    while (len > 0) {
        const std::uint64_t chunk = std::min<std::uint64_t>(len,
                                                            sizeof(tmp));
        read(src, tmp, chunk);
        write(dst, tmp, chunk);
        src += chunk;
        dst += chunk;
        len -= chunk;
    }
}

std::uint8_t
PhysicalMemory::readByte(Pa pa) const
{
    return backingConst(paToPfn(pa))[pageOffset(pa)];
}

} // namespace damn::mem
