/**
 * @file
 * DMA attack replays (paper sections 2.1, 4.1, 5.6 and Table 1).
 *
 * These are *functional* attacks: a malicious device issues real DMAs
 * through the simulated IOMMU against real buffer contents, and the
 * report records byte-exact outcomes.  Three classic attacks:
 *
 *  1. Co-location data theft: a DMA-mapped buffer shares its page
 *     with an unrelated kmalloc'ed secret; a page-granularity mapping
 *     exposes the secret to the device.
 *  2. Stale-window data theft: after dma_unmap, the OS reuses the
 *     buffer's page for a secret; a device with a warm IOTLB entry
 *     reads it until the (deferred) invalidation finally lands.
 *  3. TOCTTOU: the device rewrites packet bytes *after* the OS has
 *     inspected them (e.g., past a firewall check) but before use.
 */

#ifndef DAMN_WORK_ATTACKS_HH
#define DAMN_WORK_ATTACKS_HH

#include <memory>

#include "net/stack.hh"

namespace damn::work {

/** Outcome of the attack suite against one protection scheme. */
struct AttackReport
{
    /** Attack 1: device read an unrelated secret co-located on a
     *  mapped buffer's page. */
    bool colocationTheft = false;
    /** Attack 2: device read reused memory through a stale IOTLB
     *  entry after dma_unmap returned. */
    bool staleWindowTheft = false;
    /** Attack 3: device changed packet bytes the OS had already
     *  checked, and the OS later consumed the changed bytes. */
    bool tocttou = false;

    /** Domain the attacking device operated under. */
    iommu::DomainId attackerDomain = 0;
    /**
     * IOMMU fault records attributable to each attack (filtered to the
     * attacker's domain): when a scheme *blocks* an attack, the blocked
     * DMA shows up here with the offending IOVA and the right reason,
     * which is how an operator would attribute a real attack.
     */
    std::vector<iommu::FaultRecord> colocationFaults;
    std::vector<iommu::FaultRecord> staleWindowFaults;
    std::vector<iommu::FaultRecord> tocttouFaults;

    bool
    anySucceeded() const
    {
        return colocationTheft || staleWindowTheft || tocttou;
    }
};

/** A device under attacker control. */
class AttackerDevice : public dma::Device
{
  public:
    using dma::Device::Device;

    /** Remember the current end of the IOMMU fault log. */
    void markFaults() { faultMark_ = iommu_.faultLog().size(); }

    /** Fault records in *this device's* domain since markFaults(). */
    std::vector<iommu::FaultRecord>
    faultsSinceMark() const
    {
        std::vector<iommu::FaultRecord> out;
        const auto &log = iommu_.faultLog();
        for (std::size_t i = faultMark_; i < log.size(); ++i)
            if (log[i].domain == domain_)
                out.push_back(log[i]);
        return out;
    }

  private:
    std::size_t faultMark_ = 0;
};

/** Run all three attacks against a fresh System built from @p p
 *  (its scheme on its backend's IOMMU model). */
AttackReport runAttacks(const net::SystemParams &p);

} // namespace damn::work

#endif // DAMN_WORK_ATTACKS_HH
