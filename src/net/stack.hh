/**
 * @file
 * TCP-lite network stack and NIC driver.
 *
 * Implements the kernel paths the paper instruments:
 *  - driver RX: post receive buffers, unmap + build skbuffs on
 *    completion (allocation flavor per deployment: stock kernel
 *    buffers vs dma_alloc_skb with a device pointer, section 5.7);
 *  - TCP RX: netfilter hooks, header access through the interposed
 *    accessor API (DAMN's header copy), socket delivery, and the
 *    kernel->user copy at the POSIX boundary;
 *  - TCP TX: user->kernel copy, TSO segment construction (head +
 *    page frags), scatter-gather DMA mapping;
 *  - netfilter: callbacks that inspect a configurable part of each
 *    segment's payload (figure 8's XOR workload).
 */

#ifndef DAMN_NET_STACK_HH
#define DAMN_NET_STACK_HH

#include <functional>
#include <vector>

#include "net/nic.hh"
#include "net/skbuff.hh"
#include "net/system.hh"

namespace damn::net {

/** A posted receive buffer awaiting device DMA. */
struct RxBuffer
{
    SkbSegment seg;

    /** False when allocation failed (memory pressure). */
    bool valid() const { return seg.dmaMapped; }
};

/** Netfilter callback: may inspect the packet through the accessor. */
using NetfilterHook =
    std::function<void(sim::CpuCursor &, SkBuff &, SkbAccessor &)>;

/**
 * NIC driver: buffer management + DMA mapping around the device.
 */
class NicDriver
{
  public:
    NicDriver(System &sys, NicDevice &nic);

    /**
     * Allocate and DMA-map one receive buffer of @p bytes.
     * Allocation flavor follows the deployment: DAMN systems use
     * damn_alloc_pages(dev, WRITE); others use the stock page
     * allocator + dma_map.  Under memory pressure (genuine exhaustion
     * or an injected mem.page_alloc fault) the returned buffer is
     * !valid() and the caller must retry later, as the kernel's RX
     * refill path does.
     */
    RxBuffer allocRxBuffer(sim::CpuCursor &cpu, std::uint32_t bytes,
                           core::AllocCtx actx = core::AllocCtx::Interrupt);

    /** Completion: dma_unmap the buffer and wrap it in an skb. */
    SkBuff rxBuild(sim::CpuCursor &cpu, const RxBuffer &buf,
                   std::uint32_t actual_len);

    /**
     * Teardown path: unmap a posted-but-never-completed buffer and
     * free its memory (ring teardown after an unplug).  The data never
     * arrived, so no skb is delivered.
     */
    void abortRxBuffer(sim::CpuCursor &cpu, RxBuffer buf,
                       core::AllocCtx actx = core::AllocCtx::Interrupt);

    /**
     * Map every segment of a TX skb (scatter-gather).
     * @return false when a segment's dma_map failed (resources
     *         exhausted); already-mapped segments are rolled back and
     *         the caller must drop the skb and back off.
     */
    bool txMap(sim::CpuCursor &cpu, SkBuff &skb);

    /** Unmap every mapped segment (TX completion path). */
    void txUnmap(sim::CpuCursor &cpu, SkBuff &skb);

    NicDevice &nic() { return nic_; }

  private:
    System &sys_;
    NicDevice &nic_;
    /** txUnmap's request list, reused so unmapping never allocates. */
    std::vector<dma::DmaApi::UnmapReq> unmapReqs_;
};

/**
 * The TCP-lite stack: per-segment kernel paths with per-deployment
 * allocation and protection behaviour.
 */
class TcpStack
{
  public:
    /** TX frag granularity (kernel page-frag size). */
    static constexpr std::uint32_t kTxFragBytes = 16 * 1024;
    /** TX skb head (headers + metadata). */
    static constexpr std::uint32_t kTxHeadBytes = 256;

    TcpStack(System &sys, NicDevice &nic)
        : driver(sys, nic), sys_(sys), nic_(nic)
    {}

    /**
     * Kernel receive path for one LRO aggregate: netfilter, header
     * access (secured under DAMN), TCP/socket processing.
     * @param factor multi-flow inefficiency factor on per-segment costs.
     */
    void rxSegment(sim::CpuCursor &cpu, SkBuff &skb, double factor);

    /**
     * Application read at the POSIX boundary: kernel->user copy of the
     * whole segment, then the skb is freed.
     */
    void appRead(sim::CpuCursor &cpu, SkBuff &skb, double factor,
                 core::AllocCtx actx = core::AllocCtx::Interrupt);

    /**
     * Application write + TCP transmit path: user->kernel copy into a
     * freshly built TSO segment (head + page frags), DMA-mapped and
     * ready for the NIC.
     */
    SkBuff txBuild(sim::CpuCursor &cpu, std::uint32_t seg_bytes,
                   double factor,
                   core::AllocCtx actx = core::AllocCtx::Standard);

    /** TX completion: unmap + free. */
    void txComplete(sim::CpuCursor &cpu, SkBuff &skb, double factor,
                    core::AllocCtx actx = core::AllocCtx::Standard);

    /**
     * TX abort: the segment will never complete (device unplugged or
     * retry budget exhausted) — unmap and free without completion-path
     * accounting, so the mapping is not leaked.
     */
    void txAbort(sim::CpuCursor &cpu, SkBuff &skb,
                 core::AllocCtx actx = core::AllocCtx::Standard);

    /**
     * Zero-copy transmit (sendfile / zero-copy forwarding, paper
     * section 2.2): page-cache pages are handed to the NIC directly,
     * with no user->kernel copy.  These pages are *not* DAMN buffers,
     * so the DMA mapping falls back to the legacy DMA-API scheme —
     * DAMN explicitly does not cover this path.
     *
     * @param file_pages page-cache pages (borrowed, not freed with the
     *                   skb) carrying @p seg_bytes of file data.
     */
    SkBuff txBuildZeroCopy(sim::CpuCursor &cpu,
                           const std::vector<mem::Pa> &file_pages,
                           std::uint32_t seg_bytes, double factor,
                           core::AllocCtx actx =
                               core::AllocCtx::Standard);

    void addHook(NetfilterHook hook) { hooks_.push_back(std::move(hook)); }
    void clearHooks() { hooks_.clear(); }

    /** Charge a CPU copy that also crosses the memory controllers. */
    void chargeCopy(sim::CpuCursor &cpu, std::uint64_t bytes,
                    double bytes_per_ns);

    NicDriver driver;

  private:
    System &sys_;
    NicDevice &nic_;
    std::vector<NetfilterHook> hooks_;
};

} // namespace damn::net

#endif // DAMN_NET_STACK_HH
