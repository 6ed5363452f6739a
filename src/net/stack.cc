/**
 * @file
 * Driver + TCP-lite implementation.
 */

#include "net/stack.hh"

#include <cassert>

namespace damn::net {

NicDriver::NicDriver(System &sys, NicDevice &nic)
    : sys_(sys), nic_(nic)
{}

// ---------------------------------------------------------------------
// NicDriver
// ---------------------------------------------------------------------

RxBuffer
NicDriver::allocRxBuffer(sim::CpuCursor &cpu, std::uint32_t bytes,
                         core::AllocCtx actx)
{
    RxBuffer buf;
    buf.seg.len = bytes;
    buf.seg.dmaDir = dma::Dir::FromDevice;

    // Injected memory pressure: the allocation fails before any
    // allocator is consulted, like a failed GFP_ATOMIC alloc.
    if (sys_.ctx.faults.shouldFail(sim::FaultSite::PageAlloc)) {
        sys_.ctx.stats.add(sim::Ctr::MemInjectedAllocFails);
        return buf;
    }

    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::NetDriver,
                        "driver.rx_alloc");

    // dma_alloc_skb flavor: under DAMN the buffer is device-writable
    // DAMN memory; otherwise stock pages.
    buf.seg = sys_.accessor().allocSeg(cpu, &nic_, SegOwner::Pages,
                                       core::Rights::Write, bytes, actx);
    if (buf.seg.pa == 0)
        return buf;

    // Unmodified driver: always goes through the DMA API.  For DAMN
    // buffers the interposition returns the permanent IOVA.
    const iommu::Iova dma_addr = sys_.dmaApi->map(
        cpu, nic_, buf.seg.pa, bytes, dma::Dir::FromDevice);
    if (dma_addr == dma::kMapFailed) {
        // IOVA space gone even after forced reclaim: give the memory
        // back and report the refill failure to the caller.
        SkBuff skb;
        skb.dev = &nic_;
        skb.append(buf.seg);
        sys_.accessor().freeSkb(cpu, skb, actx);
        buf.seg = SkbSegment{};
        sys_.ctx.stats.add(sim::Ctr::NetRxMapFails);
        return buf;
    }
    buf.seg.dmaAddr = dma_addr;
    buf.seg.dmaLen = bytes;
    buf.seg.dmaMapped = true;
    return buf;
}

SkBuff
NicDriver::rxBuild(sim::CpuCursor &cpu, const RxBuffer &buf,
                   std::uint32_t actual_len)
{
    assert(buf.seg.dmaMapped);
    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::NetDriver,
                        "driver.rx_build");
    sys_.dmaApi->unmap(cpu, nic_, buf.seg.dmaAddr, buf.seg.dmaLen,
                       dma::Dir::FromDevice);

    SkBuff skb;
    skb.dev = &nic_;
    skb.append(buf.seg);
    SkbSegment &seg = skb.segs[0];
    seg.dmaMapped = false;
    seg.len = actual_len;
    return skb;
}

void
NicDriver::abortRxBuffer(sim::CpuCursor &cpu, RxBuffer buf,
                         core::AllocCtx actx)
{
    if (!buf.seg.dmaMapped)
        return;
    sys_.dmaApi->unmap(cpu, nic_, buf.seg.dmaAddr, buf.seg.dmaLen,
                       dma::Dir::FromDevice);
    buf.seg.dmaMapped = false;

    SkBuff skb;
    skb.dev = &nic_;
    skb.append(buf.seg);
    sys_.accessor().freeSkb(cpu, skb, actx);
    sys_.ctx.stats.add(sim::Ctr::NetRxAbortedBuffers);
}

bool
NicDriver::txMap(sim::CpuCursor &cpu, SkBuff &skb)
{
    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::NetDriver,
                        "driver.tx_map");
    for (SkbSegment &seg : skb.segs) {
        if (seg.len == 0)
            continue;
        const iommu::Iova addr = sys_.dmaApi->map(
            cpu, nic_, seg.pa, seg.len, dma::Dir::ToDevice);
        if (addr == dma::kMapFailed) {
            // Roll back the segments already mapped so nothing leaks;
            // the caller drops the skb and backs off.
            txUnmap(cpu, skb);
            sys_.ctx.stats.add(sim::Ctr::NetTxMapFails);
            return false;
        }
        seg.dmaAddr = addr;
        seg.dmaLen = seg.len;
        seg.dmaDir = dma::Dir::ToDevice;
        seg.dmaMapped = true;
    }
    return true;
}

void
NicDriver::txUnmap(sim::CpuCursor &cpu, SkBuff &skb)
{
    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::NetDriver,
                        "driver.tx_unmap");
    unmapReqs_.clear();
    for (SkbSegment &seg : skb.segs) {
        if (!seg.dmaMapped)
            continue;
        unmapReqs_.push_back({seg.dmaAddr, seg.dmaLen, seg.dmaDir});
        seg.dmaMapped = false;
    }
    sys_.dmaApi->unmapBatch(cpu, nic_, unmapReqs_);
}

// ---------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------

void
TcpStack::chargeCopy(sim::CpuCursor &cpu, std::uint64_t bytes,
                     double bytes_per_ns)
{
    const auto &c = sys_.ctx.cost;
    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::Copy,
                        "skb.copy");
    span.bytes(bytes);
    // Copy traffic (read + write streams, partially LLC-absorbed)
    // occupies the memory controllers; when they are saturated the
    // copy stretches and the extra stall is CPU-visible.
    const auto mem_bytes =
        std::uint64_t(2.0 * double(bytes) * c.copyMemTrafficFactor);
    cpu.charge(sys_.ctx.copyCost(cpu.time, bytes, bytes_per_ns,
                                 mem_bytes));
}

void
TcpStack::rxSegment(sim::CpuCursor &cpu, SkBuff &skb, double factor)
{
    const auto &c = sys_.ctx.cost;
    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::NetStack,
                        "stack.rx_segment");
    span.bytes(skb.len());
    cpu.charge(sim::TimeNs(double(c.irqPerSegmentNs +
                                  c.driverPerBufferNs) * factor));

    // Netfilter hooks see the (reassembled) segment first.
    for (const NetfilterHook &hook : hooks_)
        hook(cpu, skb, sys_.accessor());

    // TCP/IP processing reads the headers through the accessor API;
    // under DAMN this is the copy that takes them out of the device's
    // reach (section 5.2).
    sys_.accessor().access(cpu, skb, 0,
                           std::min(skb.headerLen, skb.len()));

    cpu.charge(sim::TimeNs(double(c.stackPerSegmentNs) * factor));
    cpu.charge(c.ackPerSegmentNs);
    sys_.ctx.stats.add(sim::Ctr::NetRxSegments);
    sys_.ctx.stats.add(sim::Ctr::NetRxBytes, skb.len());
}

void
TcpStack::appRead(sim::CpuCursor &cpu, SkBuff &skb, double factor,
                  core::AllocCtx actx)
{
    (void)factor;
    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::App,
                        "app.read");
    // The POSIX copy_to_user boundary: freshly-DMAed data is LLC-warm
    // (DDIO).  Under DAMN this copy doubles as the security boundary
    // for payload bytes -- no extra work.
    chargeCopy(cpu, skb.len(), sys_.ctx.cost.warmCopyBytesPerNs);
    sys_.accessor().freeSkb(cpu, skb, actx);
    sys_.ctx.stats.add(sim::Ctr::NetUserReadBytes, skb.len());
}

SkBuff
TcpStack::txBuild(sim::CpuCursor &cpu, std::uint32_t seg_bytes,
                  double factor, core::AllocCtx actx)
{
    const auto &c = sys_.ctx.cost;
    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::NetStack,
                        "stack.tx_build");
    span.bytes(seg_bytes);
    SkBuff skb;
    skb.dev = &nic_;

    // Head buffer (protocol headers + a little data).
    const SkbSegment head = sys_.accessor().allocSeg(
        cpu, &nic_, SegOwner::Kmalloc, core::Rights::Read, kTxHeadBytes,
        actx);
    if (head.pa == 0) {
        skb.allocFailed = true;
        sys_.ctx.stats.add(sim::Ctr::NetTxAllocFails);
        return skb;
    }
    skb.append(head);

    // Payload frags, filled by the copy_from_user at the socket write.
    std::uint32_t remaining = seg_bytes;
    while (remaining > 0) {
        const std::uint32_t n = std::min(remaining, kTxFragBytes);
        // Device-readable DAMN memory, or on a stock kernel the
        // per-core sk_page_frag bump allocator.
        const SkbSegment frag = sys_.accessor().allocSeg(
            cpu, &nic_, SegOwner::PageFrag, core::Rights::Read, n, actx);
        if (frag.pa == 0) {
            skb.allocFailed = true;
            break;
        }
        skb.append(frag);
        remaining -= n;
    }
    if (skb.allocFailed) {
        // Memory pressure beat the reclaimers: free what was built and
        // let the caller back off (flagged on the returned skb).
        sys_.accessor().freeSkb(cpu, skb, actx);
        sys_.ctx.stats.add(sim::Ctr::NetTxAllocFails);
        return skb;
    }

    // copy_from_user of the payload: netperf cycles one send buffer,
    // so the source is cache-hot.
    chargeCopy(cpu, seg_bytes, c.txUserCopyBytesPerNs);

    cpu.charge(sim::TimeNs(double(c.stackPerSegmentNs) * factor));
    cpu.charge(c.ackPerSegmentNs);

    if (!driver.txMap(cpu, skb)) {
        sys_.accessor().freeSkb(cpu, skb, actx);
        skb.allocFailed = true;
        return skb;
    }
    sys_.ctx.stats.add(sim::Ctr::NetTxSegments);
    sys_.ctx.stats.add(sim::Ctr::NetTxBytes, seg_bytes);
    return skb;
}

SkBuff
TcpStack::txBuildZeroCopy(sim::CpuCursor &cpu,
                          const std::vector<mem::Pa> &file_pages,
                          std::uint32_t seg_bytes, double factor,
                          core::AllocCtx actx)
{
    const auto &c = sys_.ctx.cost;
    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::NetStack,
                        "stack.tx_build_zc");
    span.bytes(seg_bytes);
    SkBuff skb;
    skb.dev = &nic_;

    // Headers still need a (tiny) kernel buffer.
    const SkbSegment head = sys_.accessor().allocSeg(
        cpu, &nic_, SegOwner::Kmalloc, core::Rights::Read, kTxHeadBytes,
        actx);
    if (head.pa == 0) {
        skb.allocFailed = true;
        sys_.ctx.stats.add(sim::Ctr::NetTxAllocFails);
        return skb;
    }
    skb.append(head);

    // File pages attach as borrowed frags: no copy at all.
    std::uint32_t remaining = seg_bytes;
    for (const mem::Pa pa : file_pages) {
        if (remaining == 0)
            break;
        SkbSegment frag;
        frag.pa = pa;
        frag.len = std::min<std::uint32_t>(remaining,
                                           std::uint32_t(mem::kPageSize));
        frag.owner = SegOwner::Borrowed; // the page cache owns them
        skb.append(frag);
        remaining -= frag.len;
    }
    assert(remaining == 0 && "not enough file pages for seg_bytes");

    cpu.charge(sim::TimeNs(double(c.stackPerSegmentNs) * factor));
    if (!driver.txMap(cpu, skb)) {
        sys_.accessor().freeSkb(cpu, skb, actx);
        skb.allocFailed = true;
        return skb;
    }
    sys_.ctx.stats.add(sim::Ctr::NetTxZerocopySegments);
    return skb;
}

void
TcpStack::txComplete(sim::CpuCursor &cpu, SkBuff &skb, double factor,
                     core::AllocCtx actx)
{
    const auto &c = sys_.ctx.cost;
    sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::NetDriver,
                        "driver.tx_complete");
    cpu.charge(sim::TimeNs(double(c.irqPerSegmentNs +
                                  c.driverPerBufferNs) * factor));
    driver.txUnmap(cpu, skb);
    sys_.accessor().freeSkb(cpu, skb, actx);
}

void
TcpStack::txAbort(sim::CpuCursor &cpu, SkBuff &skb, core::AllocCtx actx)
{
    driver.txUnmap(cpu, skb);
    sys_.accessor().freeSkb(cpu, skb, actx);
    sys_.ctx.stats.add(sim::Ctr::NetTxAbortedSegments);
}

} // namespace damn::net
