/**
 * @file
 * NIC pacing + DMA implementation.
 */

#include "net/nic.hh"

#include <algorithm>
#include <cassert>

namespace damn::net {

sim::TimeNs
NicDevice::pace(sim::TimeNs now, unsigned port, Traffic dir,
                std::uint32_t seg_bytes, sim::TimeNs dma_latency)
{
    assert(port < ports_.size());
    const auto &c = sys_.ctx.cost;
    const unsigned d = unsigned(dir);

    // The DMA engine occupies the port for the segment's wire time plus
    // any IOTLB walk stalls -- misses slow the engine down and thereby
    // the achievable line rate (the effect behind Table 3).
    const double wire_bpn = sim::gbpsToBytesPerNs(c.nicPortGbps);
    const sim::TimeNs wire_ns =
        sim::TimeNs(double(wireBytes(seg_bytes)) / wire_bpn) + dma_latency;
    const sim::TimeNs wire_done =
        ports_[port].wire[d].submit(now, wire_ns);

    // Both ports share one PCIe link per direction.
    const double pcie_bpn = sim::gbpsToBytesPerNs(c.pcieGbps);
    const sim::TimeNs pcie_ns =
        sim::TimeNs(double(seg_bytes) / pcie_bpn);
    const sim::TimeNs pcie_done = pcie_[d].submit(now, pcie_ns);

    return std::max(wire_done, pcie_done);
}

dma::DmaOutcome
NicDevice::dropSegment(sim::TimeNs now, unsigned port, Traffic dir,
                       std::uint32_t seg_bytes)
{
    // Injected wire/DMA fault: the segment occupied the wire but no
    // byte reached (or left) memory.  The driver sees a faulted
    // completion and takes its recovery path.
    dma::DmaOutcome out;
    out.fault = true;
    out.completes = pace(now, port, dir, seg_bytes, 0);
    ctx_.stats.add(dir == Traffic::Rx ? sim::Ctr::NicRxInjectedDrops
                                      : sim::Ctr::NicTxInjectedDrops);
    return out;
}

bool
NicDevice::linkFlapped(sim::TimeNs now, unsigned port)
{
    // An injected flap takes the link down for a fixed window; every
    // segment that meets the downed link is lost on the wire.
    if (ctx_.faults.shouldFail(sim::FaultSite::NicLinkFlap)) {
        ports_[port].linkDownUntil =
            std::max(ports_[port].linkDownUntil,
                     now + ctx_.cost.nicLinkFlapDownNs);
        ctx_.stats.add(sim::Ctr::NicLinkFlaps);
    }
    if (now < ports_[port].linkDownUntil) {
        ctx_.stats.add(sim::Ctr::NicLinkDownDrops);
        return true;
    }
    return false;
}

dma::DmaOutcome
NicDevice::transferSegment(sim::TimeNs now, unsigned port, Traffic dir,
                           iommu::Iova dma_addr, std::uint32_t seg_bytes)
{
    if (linkFlapped(now, port))
        return dropSegment(now, port, dir, seg_bytes);
    if (ctx_.faults.shouldFail(dir == Traffic::Rx
                                   ? sim::FaultSite::NicRx
                                   : sim::FaultSite::NicTx))
        return dropSegment(now, port, dir, seg_bytes);

    // Ring events carry no CPU cost (the DMA engine does the work);
    // they land in core 0's ring by the device-event convention.
    ctx_.tracer.instant(0, sim::TraceCat::NicRing,
                        dir == Traffic::Rx ? "nic.rx_post"
                                           : "nic.tx_post",
                        now, seg_bytes, port);
    dma::DmaOutcome out =
        dmaTouch(now, dma_addr, seg_bytes, dir == Traffic::Rx);
    const sim::TimeNs paced =
        pace(now, port, dir, std::uint32_t(out.bytesDone), out.walkNs);
    out.completes = std::max(out.completes, paced);
    ctx_.tracer.instant(0, sim::TraceCat::NicRing,
                        dir == Traffic::Rx ? "nic.rx_complete"
                                           : "nic.tx_complete",
                        out.completes, std::uint32_t(out.bytesDone),
                        port);
    return out;
}

dma::DmaOutcome
NicDevice::transferSegmentSg(sim::TimeNs now, unsigned port, Traffic dir,
                             const SkBuff &skb)
{
    if (linkFlapped(now, port) ||
        ctx_.faults.shouldFail(dir == Traffic::Rx
                                   ? sim::FaultSite::NicRx
                                   : sim::FaultSite::NicTx)) {
        std::uint32_t seg_bytes = 0;
        for (const SkbSegment &seg : skb.segs)
            if (seg.dmaMapped)
                seg_bytes += seg.dmaLen;
        return dropSegment(now, port, dir, seg_bytes);
    }

    dma::DmaOutcome total;
    total.ok = true;
    std::uint32_t seg_bytes = 0;
    sim::TimeNs dma_done = now;
    for (const SkbSegment &seg : skb.segs) {
        if (!seg.dmaMapped)
            continue;
        dma::DmaOutcome o =
            dmaTouch(now, seg.dmaAddr, seg.dmaLen, dir == Traffic::Rx);
        total.bytesDone += o.bytesDone;
        total.ok = total.ok && o.ok;
        total.fault = total.fault || o.fault;
        total.walkNs += o.walkNs;
        dma_done = std::max(dma_done, o.completes);
        seg_bytes += seg.dmaLen;
    }
    ctx_.tracer.instant(0, sim::TraceCat::NicRing,
                        dir == Traffic::Rx ? "nic.rx_post"
                                           : "nic.tx_post",
                        now, seg_bytes, port);
    const sim::TimeNs paced =
        pace(now, port, dir, seg_bytes, total.walkNs);
    total.completes = std::max(dma_done, paced);
    ctx_.tracer.instant(0, sim::TraceCat::NicRing,
                        dir == Traffic::Rx ? "nic.rx_complete"
                                           : "nic.tx_complete",
                        total.completes, std::uint32_t(total.bytesDone),
                        port);
    return total;
}

} // namespace damn::net
