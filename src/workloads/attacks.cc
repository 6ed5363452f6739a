/**
 * @file
 * Functional DMA attack implementations.
 */

#include "workloads/attacks.hh"

#include <cassert>
#include <cstring>

#include "net/nic.hh"

namespace damn::work {

namespace {

constexpr std::uint8_t kSecretByte = 0xAB;
constexpr std::uint32_t kBufBytes = 256;

/** Does @p buf contain a run of at least 64 secret bytes? */
bool
containsSecret(const std::vector<std::uint8_t> &buf)
{
    unsigned run = 0;
    for (const std::uint8_t b : buf) {
        run = b == kSecretByte ? run + 1 : 0;
        if (run >= 64)
            return true;
    }
    return false;
}

/**
 * Attack 1: read the page around a legitimately mapped TX buffer and
 * look for an unrelated kmalloc'ed secret co-located on it.
 */
bool
colocationAttack(net::System &sys, net::NicDevice &nic)
{
    sim::CpuCursor cpu(sys.ctx.machine.core(0), sys.ctx.now());

    // The victim kernel allocates a packet buffer and, right next to
    // it, an unrelated secret (kmalloc co-locates same-size objects).
    mem::Pa packet;
    if (sys.damnMode()) {
        packet = sys.damn->damnAlloc(cpu, &nic, core::Rights::Read,
                                     kBufBytes);
    } else {
        packet = sys.heap.kmalloc(kBufBytes);
    }
    const mem::Pa secret = sys.heap.kmalloc(kBufBytes);
    sys.phys.fill(secret, kSecretByte, kBufBytes);
    sys.phys.fill(packet, 0x11, kBufBytes);

    const iommu::Iova dma = sys.dmaApi->map(cpu, nic, packet, kBufBytes,
                                            dma::Dir::ToDevice);

    // The attacker-controlled device reads the whole page surrounding
    // the DMA address it was legitimately given.
    std::vector<std::uint8_t> loot(mem::kPageSize, 0);
    const iommu::Iova page = dma & ~iommu::Iova(mem::kPageSize - 1);
    nic.dmaRead(sys.ctx.now(), page, loot.data(), loot.size());
    const bool stolen = containsSecret(loot);

    sys.dmaApi->unmap(cpu, nic, dma, kBufBytes, dma::Dir::ToDevice);
    if (sys.damnMode())
        sys.damn->damnFree(cpu, packet);
    else
        sys.heap.kfree(packet);
    sys.heap.kfree(secret);
    return stolen;
}

/**
 * Attack 2: after dma_unmap returns, the OS reuses the buffer's memory
 * for a secret; the device retries the old DMA address through a warm
 * IOTLB entry.
 */
bool
staleWindowAttack(net::System &sys, net::NicDevice &nic)
{
    sim::CpuCursor cpu(sys.ctx.machine.core(0), sys.ctx.now());

    mem::Pa packet;
    if (sys.damnMode()) {
        packet = sys.damn->damnAlloc(cpu, &nic, core::Rights::Read,
                                     kBufBytes);
    } else {
        packet = sys.heap.kmalloc(kBufBytes);
    }
    sys.phys.fill(packet, 0x22, kBufBytes);
    const iommu::Iova dma = sys.dmaApi->map(cpu, nic, packet, kBufBytes,
                                            dma::Dir::ToDevice);

    // Legitimate transmit DMA primes the IOTLB.
    std::vector<std::uint8_t> scratch(kBufBytes);
    const dma::DmaOutcome prime =
        nic.dmaRead(sys.ctx.now(), dma, scratch.data(), kBufBytes);
    assert(prime.ok);
    (void)prime;

    // Transmit completes; the driver unmaps and frees the buffer...
    sys.dmaApi->unmap(cpu, nic, dma, kBufBytes, dma::Dir::ToDevice);
    if (sys.damnMode())
        sys.damn->damnFree(cpu, packet);
    else
        sys.heap.kfree(packet);

    // ...and the kernel immediately reuses the memory for a secret.
    // (kmalloc free lists are LIFO, so the same object comes back;
    // under DAMN the secret can *never* land in a DMA chunk -- it goes
    // to the ordinary slab instead.)
    const mem::Pa reused = sys.heap.kmalloc(kBufBytes);
    sys.phys.fill(reused, kSecretByte, kBufBytes);
    if (!sys.damnMode())
        assert(reused == packet);

    // The attacker replays the stale DMA address.
    std::vector<std::uint8_t> loot(kBufBytes, 0);
    nic.dmaRead(sys.ctx.now(), dma, loot.data(), loot.size());
    const bool stolen = containsSecret(loot);

    sys.heap.kfree(reused);
    return stolen;
}

/**
 * Attack 3: TOCTTOU — rewrite packet bytes after the OS inspected
 * them (firewall pass) and see whether the OS consumes the forgery.
 */
bool
tocttouAttack(net::System &sys, net::NicDevice &nic,
              net::TcpStack &stack)
{
    sim::CpuCursor cpu(sys.ctx.machine.core(0), sys.ctx.now());
    constexpr std::uint32_t kPktBytes = 2048;
    constexpr std::uint32_t kCheckBytes = 128;
    constexpr std::uint32_t kTarget = 64; // byte the attacker flips

    // A packet arrives by DMA into a posted receive buffer.
    net::RxBuffer buf = stack.driver.allocRxBuffer(cpu, kPktBytes);
    std::vector<std::uint8_t> wire(kPktBytes, 0x33);
    const dma::DmaOutcome in = nic.dmaWrite(sys.ctx.now(), buf.seg.dmaAddr,
                                            wire.data(), kPktBytes);
    assert(in.ok);
    (void)in;
    const iommu::Iova dma = buf.seg.dmaAddr;
    net::SkBuff skb = stack.driver.rxBuild(cpu, buf, kPktBytes);

    // The firewall inspects the head of the packet and approves it.
    std::vector<std::uint8_t> checked(kCheckBytes);
    sys.accessor().access(cpu, skb, 0, kCheckBytes, checked.data());
    assert(checked[kTarget] == 0x33);

    // Time-of-check-to-time-of-use: the device rewrites the checked
    // bytes through whatever access it still has.
    std::vector<std::uint8_t> forged(kCheckBytes, 0xEE);
    nic.dmaWrite(sys.ctx.now(), dma, forged.data(), kCheckBytes);

    // The OS now *uses* the approved bytes.
    std::vector<std::uint8_t> used(kCheckBytes);
    sys.accessor().access(cpu, skb, 0, kCheckBytes, used.data());
    const bool fooled = used[kTarget] == 0xEE;

    sys.accessor().freeSkb(cpu, skb);
    return fooled;
}

/** Fault records landed in @p d's domain since index @p mark. */
std::vector<iommu::FaultRecord>
faultsSince(const iommu::Iommu &mmu, std::size_t mark, iommu::DomainId d)
{
    std::vector<iommu::FaultRecord> out;
    const auto &log = mmu.faultLog();
    for (std::size_t i = mark; i < log.size(); ++i)
        if (log[i].domain == d)
            out.push_back(log[i]);
    return out;
}

} // namespace

AttackReport
runAttacks(const net::SystemParams &p)
{
    AttackReport rep;
    net::System sys(p);
    net::NicDevice nic(sys, "mlx5_evil");
    net::TcpStack stack(sys, nic);
    rep.attackerDomain = nic.domain();

    // Bracket each attack with a fault-log mark so a blocked attack can
    // be attributed to its records (domain + IOVA + reason).
    std::size_t mark = sys.mmu.faultLog().size();
    rep.colocationTheft = colocationAttack(sys, nic);
    rep.colocationFaults = faultsSince(sys.mmu, mark, nic.domain());

    mark = sys.mmu.faultLog().size();
    rep.staleWindowTheft = staleWindowAttack(sys, nic);
    rep.staleWindowFaults = faultsSince(sys.mmu, mark, nic.domain());

    mark = sys.mmu.faultLog().size();
    rep.tocttou = tocttouAttack(sys, nic, stack);
    rep.tocttouFaults = faultsSince(sys.mmu, mark, nic.domain());
    return rep;
}

} // namespace damn::work
