/**
 * @file
 * Device DMA data path: per-page translation through the IOMMU.
 */

#include "dma/device.hh"

#include <algorithm>

#include "iommu/ats.hh"

namespace damn::dma {

bool
Device::masterAbort()
{
    // Surprise unplug fires *on* a DMA: the access that draws the
    // short straw sees the device disappear under it.
    if (attached_ &&
        ctx_.faults.shouldFail(sim::FaultSite::DeviceUnplug)) {
        unplug();
        ctx_.stats.add(sim::Ctr::DmaSurpriseUnplugs);
    }
    if (attached_)
        return false;
    // Bus master-abort: completes immediately, no bytes moved, no
    // IOMMU interaction (there is no device to translate for).
    ++faultedDmas_;
    ctx_.stats.add(sim::Ctr::DmaUnpluggedAborts);
    return true;
}

// Inline, so each entry keeps the per-page loop in its own frame: an
// out-of-line walk adds a call and a returned PageWalk to every DMA,
// a measurable share of a one-page netperf DMA.
template <class Translate>
inline Device::PageWalk
Device::walkPages(sim::TimeNs now, iommu::Iova addr, void *buf,
                  std::uint64_t len, bool is_write, Translate translate)
{
    PageWalk w;
    auto *cursor = static_cast<std::uint8_t *>(buf);
    std::uint64_t remaining = len;
    iommu::Iova iova = addr;

    while (remaining > 0) {
        const std::uint64_t page_room =
            mem::kPageSize - (iova & (mem::kPageSize - 1));
        const std::uint64_t chunk = std::min(remaining, page_room);

        const auto tr = translate(iova);
        w.walkNs += tr.latencyNs;
        if (!tr.ok)
            break;
        if (cursor != nullptr) {
            if (is_write)
                pm_.write(tr.pa, cursor, chunk);
            else
                pm_.read(tr.pa, cursor, chunk);
            cursor += chunk;
        }

        w.bytesDone += chunk;
        iova += chunk;
        remaining -= chunk;
    }

    // Device traffic crosses the memory controllers (scaled for DDIO).
    const auto mem_bytes = std::uint64_t(
        double(w.bytesDone) * ctx_.cost.dmaMemTrafficFactor);
    const sim::TimeNs bw_done = ctx_.memBw.transfer(now, mem_bytes);
    w.completes = std::max(now + w.walkNs, bw_done);
    return w;
}

DmaOutcome
Device::dmaAccess(sim::TimeNs now, iommu::Iova addr, void *buf,
                  std::uint64_t len, bool is_write)
{
    DmaOutcome out;
    if (masterAbort()) {
        out.fault = true;
        out.completes = now;
        return out;
    }
    const PageWalk w =
        walkPages(now, addr, buf, len, is_write, [&](iommu::Iova iova) {
            return iommu_.translate(domain_, iova, is_write);
        });
    // The IOMMU blocked a page: a fault, logged by translate().
    out.fault = w.bytesDone < len;
    out.ok = !out.fault;
    if (out.fault)
        ++faultedDmas_;
    out.bytesDone = w.bytesDone;
    out.walkNs = w.walkNs;
    out.completes = w.completes;
    return out;
}

AtsDmaOutcome
Device::dmaAts(iommu::AtsAgent &ats, sim::TimeNs now, iommu::Iova addr,
               void *buf, std::uint64_t len, bool is_write)
{
    AtsDmaOutcome out;
    // A master-abort posts no page request either: there is no device
    // left to retry.
    if (masterAbort()) {
        out.completes = now;
        return out;
    }
    const PageWalk w =
        walkPages(now, addr, buf, len, is_write, [&](iommu::Iova iova) {
            return ats.translate(iova, is_write);
        });
    // Untranslatable: the device stalls at this page and the caller
    // posts a page request for it, then retries.
    out.needsFault = w.bytesDone < len;
    if (out.needsFault)
        out.faultVa =
            (addr + w.bytesDone) & ~iommu::Iova(mem::kPageSize - 1);
    out.ok = !out.needsFault;
    out.bytesDone = w.bytesDone;
    out.walkNs = w.walkNs;
    out.completes = w.completes;
    return out;
}

DmaOutcome
Device::dmaWrite(sim::TimeNs now, iommu::Iova addr, const void *src,
                 std::uint64_t len)
{
    // dmaAccess writes from the buffer into memory; the const_cast is
    // safe because is_write=true only reads from buf.
    return dmaAccess(now, addr, const_cast<void *>(src), len, true);
}

DmaOutcome
Device::dmaRead(sim::TimeNs now, iommu::Iova addr, void *dst,
                std::uint64_t len)
{
    return dmaAccess(now, addr, dst, len, false);
}

} // namespace damn::dma
