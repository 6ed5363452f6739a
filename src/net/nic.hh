/**
 * @file
 * The NIC model: a dual-port 100 Gb/s Ethernet adapter behind the
 * IOMMU (the evaluation machine's Mellanox ConnectX-4).
 *
 * Resources modeled:
 *  - per-port, per-direction wire pacing at 100 Gb/s with per-frame
 *    overhead (jumbo MTU, TSO/LRO aggregate segments);
 *  - a shared per-direction PCIe 3.0 ceiling (~106 Gb/s usable, as the
 *    paper measures);
 *  - IOTLB walk stalls extend the DMA engine's occupancy, so poor
 *    IOTLB reach directly throttles line rate (Table 3);
 *  - all DMA bytes consume the machine's shared memory bandwidth.
 */

#ifndef DAMN_NET_NIC_HH
#define DAMN_NET_NIC_HH

#include <vector>

#include "dma/device.hh"
#include "net/skbuff.hh"
#include "net/system.hh"
#include "sim/sim_mutex.hh"

namespace damn::net {

/** Direction of traffic through a port, from the host's viewpoint. */
enum class Traffic
{
    Rx, //!< device -> memory (receive)
    Tx, //!< memory -> device (transmit)
};

/** Dual-port NIC. */
class NicDevice : public dma::Device
{
  public:
    NicDevice(System &sys, std::string name, unsigned ports = 2)
        : dma::Device(sys.ctx, std::move(name), sys.mmu, sys.phys),
          sys_(sys), ports_(ports)
    {}

    /**
     * Move one aggregate segment of @p seg_bytes through port @p port
     * in direction @p dir at time @p now, DMAing to/from @p dma_addr.
     *
     * Functionally performs the DMA (translation, faults, data when
     * functionalData is on) and models wire + PCIe + memory-bandwidth
     * pacing.  @return the DMA outcome; `completes` is when the
     * segment has fully crossed into/out of memory.
     */
    dma::DmaOutcome transferSegment(sim::TimeNs now, unsigned port,
                                    Traffic dir, iommu::Iova dma_addr,
                                    std::uint32_t seg_bytes);

    /**
     * Scatter-gather variant: one segment spread over the DMA-mapped
     * segments of @p skb (TX skbs with frags), in list order.
     */
    dma::DmaOutcome transferSegmentSg(sim::TimeNs now, unsigned port,
                                      Traffic dir, const SkBuff &skb);

    /** Wire bytes of a @p seg_bytes aggregate (frames + overhead). */
    std::uint64_t
    wireBytes(std::uint32_t seg_bytes) const
    {
        const auto &c = sys_.ctx.cost;
        const std::uint64_t frames =
            (seg_bytes + c.mtuBytes - 1) / c.mtuBytes;
        return seg_bytes + frames * c.perFrameOverheadBytes;
    }

  private:
    struct Port
    {
        sim::SerialResource wire[2]; // indexed by Traffic
        sim::TimeNs linkDownUntil = 0; //!< link-flap outage end
    };

    sim::TimeNs pace(sim::TimeNs now, unsigned port, Traffic dir,
                     std::uint32_t seg_bytes, sim::TimeNs dma_latency);
    dma::DmaOutcome dropSegment(sim::TimeNs now, unsigned port,
                                Traffic dir, std::uint32_t seg_bytes);
    /** Link-flap injection + down-window check; true => drop. */
    bool linkFlapped(sim::TimeNs now, unsigned port);

    System &sys_;
    std::vector<Port> ports_;
    sim::SerialResource pcie_[2]; // per direction, shared by both ports
};

} // namespace damn::net

#endif // DAMN_NET_NIC_HH
