/**
 * @file
 * Device DMA data path: per-page translation through the IOMMU.
 */

#include "dma/device.hh"

#include <algorithm>

#include "iommu/ats.hh"

namespace damn::dma {

DmaOutcome
Device::dmaAccess(sim::TimeNs now, iommu::Iova addr, void *buf,
                  std::uint64_t len, bool is_write)
{
    DmaOutcome out;

    // Surprise unplug fires *on* a DMA: the access that draws the
    // short straw sees the device disappear under it.
    if (attached_ &&
        ctx_.faults.shouldFail(sim::FaultSite::DeviceUnplug)) {
        unplug();
        ctx_.stats.add(surpriseUnplugsCtr_);
    }
    if (!attached_) {
        // Bus master-abort: completes immediately, no bytes moved, no
        // IOMMU interaction (there is no device to translate for).
        out.fault = true;
        out.completes = now;
        ++faultedDmas_;
        ctx_.stats.add(unpluggedAbortsCtr_);
        return out;
    }

    auto *cursor = static_cast<std::uint8_t *>(buf);
    sim::TimeNs latency = 0;
    std::uint64_t remaining = len;
    iommu::Iova iova = addr;

    while (remaining > 0) {
        const std::uint64_t page_room =
            mem::kPageSize - (iova & (mem::kPageSize - 1));
        const std::uint64_t chunk = std::min(remaining, page_room);

        const iommu::TranslateResult tr =
            iommu_.translate(domain_, iova, is_write);
        latency += tr.latencyNs;
        if (!tr.ok) {
            out.fault = true;
            ++faultedDmas_;
            break;
        }
        if (cursor != nullptr) {
            if (is_write)
                pm_.write(tr.pa, cursor, chunk);
            else
                pm_.read(tr.pa, cursor, chunk);
            cursor += chunk;
        }

        out.bytesDone += chunk;
        iova += chunk;
        remaining -= chunk;
    }

    // Device traffic crosses the memory controllers (scaled for DDIO).
    const auto mem_bytes = std::uint64_t(
        double(out.bytesDone) * ctx_.cost.dmaMemTrafficFactor);
    const sim::TimeNs bw_done = ctx_.memBw.transfer(now, mem_bytes);
    out.walkNs = latency;
    out.completes = std::max(now + latency, bw_done);
    out.ok = !out.fault;
    return out;
}

AtsDmaOutcome
Device::dmaAts(iommu::AtsAgent &ats, sim::TimeNs now, iommu::Iova addr,
               void *buf, std::uint64_t len, bool is_write)
{
    AtsDmaOutcome out;

    if (attached_ &&
        ctx_.faults.shouldFail(sim::FaultSite::DeviceUnplug)) {
        unplug();
        ctx_.stats.add(surpriseUnplugsCtr_);
    }
    if (!attached_) {
        // Master-abort, as in dmaAccess: no bytes, no translation —
        // and no page request either (there is no device left to
        // retry).
        out.completes = now;
        ++faultedDmas_;
        ctx_.stats.add(unpluggedAbortsCtr_);
        return out;
    }

    auto *cursor = static_cast<std::uint8_t *>(buf);
    sim::TimeNs latency = 0;
    std::uint64_t remaining = len;
    iommu::Iova iova = addr;

    while (remaining > 0) {
        const std::uint64_t page_room =
            mem::kPageSize - (iova & (mem::kPageSize - 1));
        const std::uint64_t chunk = std::min(remaining, page_room);

        const iommu::AtsAgent::Result tr = ats.translate(iova, is_write);
        latency += tr.latencyNs;
        if (!tr.ok) {
            // Untranslatable: stall here and let the caller post a
            // page request for this page, then retry.
            out.needsFault = true;
            out.faultVa = iova & ~iommu::Iova(mem::kPageSize - 1);
            break;
        }
        if (cursor != nullptr) {
            if (is_write)
                pm_.write(tr.pa, cursor, chunk);
            else
                pm_.read(tr.pa, cursor, chunk);
            cursor += chunk;
        }

        out.bytesDone += chunk;
        iova += chunk;
        remaining -= chunk;
    }

    const auto mem_bytes = std::uint64_t(
        double(out.bytesDone) * ctx_.cost.dmaMemTrafficFactor);
    const sim::TimeNs bw_done = ctx_.memBw.transfer(now, mem_bytes);
    out.walkNs = latency;
    out.completes = std::max(now + latency, bw_done);
    out.ok = remaining == 0;
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
