/**
 * @file
 * DAMN's metadata-carrying IOVA encoding (paper figure 3).
 *
 * The 48-bit IOVA space is split on its MSB (bit 47,
 * iommu::kDamnIovaBit): tag bit == 1 marks a DAMN-allocated buffer,
 * letting dma_unmap decide in O(1) whether to do nothing (DAMN) or
 * fall back to the legacy path (section 5.3).  The upper bits of a
 * DAMN IOVA encode the allocating core, the access rights, and the
 * device, so the deallocation path can locate the owning DMA cache
 * (section 5.5).  Both modeled IOMMUs (VT-d, SMMUv3) implement 48-bit
 * input addresses, so this one layout serves every backend.
 *
 * Field layout (the paper's figure is schematic about exact widths; we
 * document our concrete choice):
 *
 *   47    46..40   39..37    36..30   29      28..0
 *   [1]   cpu idx  rights    dev idx  numa    offset (512 MiB/region)
 *          7 bits  one-hot    7 bits  1 bit   29 bits
 *
 * rights is one-hot {R, W, RW} exactly as drawn ("R/W/RW").  The numa
 * bit is our addition (the evaluation machine has 2 NUMA domains and
 * DAMN keeps one DMA cache per domain, section 5.4); it subdivides the
 * offset space so per-domain caches of the same (device, rights) pair
 * never collide.
 */

#ifndef DAMN_CORE_IOVA_ENCODING_HH
#define DAMN_CORE_IOVA_ENCODING_HH

#include <cassert>
#include <cstdint>

#include "dma/dma_types.hh"
#include "iommu/iova_alloc.hh"
#include "sim/types.hh"

namespace damn::core {

/** DMA access rights of a DAMN buffer (paper Table 2). */
enum class Rights : std::uint8_t
{
    Read = 1,   //!< device may read (TX)
    Write = 2,  //!< device may write (RX)
    RW = 3,
};

/** Decoded fields of a DAMN IOVA. */
struct IovaFields
{
    sim::CoreId cpu = 0;
    Rights rights = Rights::Read;
    std::uint32_t devIdx = 0;
    sim::NumaId numa = 0;
    std::uint64_t offset = 0;
};

// The fields of the layout drawn above.
constexpr unsigned kCpuShift = 40;
constexpr unsigned kRightsShift = 37;
constexpr unsigned kDevShift = 30;
constexpr unsigned kNumaShift = 29;
constexpr std::uint64_t kOffsetMask = (1ull << kNumaShift) - 1;
/** Region shift of the dense (non-encoded) DAMN IOVA mode (Table 3):
 *  each DMA cache packs its IOVAs into a private 16 GiB region. */
constexpr unsigned kDenseRegionShift = 34;

constexpr unsigned kMaxCpus = 128;
constexpr unsigned kMaxDevices = 128;

/** True iff @p iova belongs to DAMN's half of the address space. */
constexpr bool
isDamnIova(iommu::Iova iova)
{
    return (iova & iommu::kDamnIovaBit) != 0;
}

/** One-hot rights field value. */
constexpr std::uint64_t
rightsField(Rights r)
{
    switch (r) {
      case Rights::Read:
        return 1;
      case Rights::Write:
        return 2;
      case Rights::RW:
        return 4;
    }
    return 0;
}

/** Compose a DAMN IOVA. */
inline iommu::Iova
encodeIova(sim::CoreId cpu, Rights rights, std::uint32_t dev_idx,
           sim::NumaId numa, std::uint64_t offset)
{
    assert(cpu < kMaxCpus);
    assert(dev_idx < kMaxDevices);
    assert(numa < 2);
    assert(offset <= kOffsetMask);
    return iommu::kDamnIovaBit |
        (std::uint64_t(cpu) << kCpuShift) |
        (rightsField(rights) << kRightsShift) |
        (std::uint64_t(dev_idx) << kDevShift) |
        (std::uint64_t(numa) << kNumaShift) |
        offset;
}

/** Decompose a DAMN IOVA; @p iova must have the tag bit set. */
inline IovaFields
decodeIova(iommu::Iova iova)
{
    assert(isDamnIova(iova));
    IovaFields f;
    f.cpu = sim::CoreId((iova >> kCpuShift) & 0x7f);
    const std::uint64_t r = (iova >> kRightsShift) & 0x7;
    f.rights = r == 1 ? Rights::Read : r == 2 ? Rights::Write : Rights::RW;
    f.devIdx = std::uint32_t((iova >> kDevShift) & 0x7f);
    f.numa = sim::NumaId((iova >> kNumaShift) & 0x1);
    f.offset = iova & kOffsetMask;
    return f;
}

/** IOMMU permission bits for DAMN rights (via the shared DMA-API
 *  direction table, so the two conversions can never diverge). */
constexpr std::uint32_t
permOf(Rights r)
{
    switch (r) {
      case Rights::Read:
        return dma::permFor(dma::Dir::ToDevice);
      case Rights::Write:
        return dma::permFor(dma::Dir::FromDevice);
      case Rights::RW:
        return dma::permFor(dma::Dir::Bidirectional);
    }
    return 0;
}

const char *rightsName(Rights r);

} // namespace damn::core

#endif // DAMN_CORE_IOVA_ENCODING_HH
