/**
 * @file
 * Differential scheme-equivalence suite.
 *
 * The four DMA-API protection schemes (iommu-off, strict, deferred,
 * shadow) are *performance/security* variants: none of them is allowed
 * to change what the application observes.  This suite runs the same
 * seeded functional DMA workload under every scheme and asserts:
 *
 *  1. delivered payload bytes are byte-identical across schemes
 *     (RX: device-written data as read by the kernel after unmap;
 *      TX: buffer data as seen by the device on the wire);
 *  2. the app-visible delivery order is identical;
 *  3. the *security* outcomes differ exactly as Table 1 predicts —
 *     equivalence covers benign traffic, not attacks.
 *
 * A deliberate-bug fixture corrupts one delivered byte and checks the
 * comparison machinery actually detects the divergence (the suite must
 * be able to fail).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>

#include "dma/faultable.hh"
#include "iommu/ats.hh"
#include "iommu/sva.hh"
#include "net/system.hh"
#include "sim/rng.hh"
#include "workloads/attacks.hh"

using namespace damn;

namespace {

/** One delivered packet as the application would observe it. */
struct Delivered
{
    unsigned id = 0;                   //!< workload packet id
    std::vector<std::uint8_t> payload; //!< bytes after the DMA path
};

/** Everything one scheme delivered for a given seed. */
struct SchemeRun
{
    std::string scheme;
    std::vector<Delivered> rx; //!< device -> kernel, in delivery order
    std::vector<Delivered> tx; //!< kernel -> device ("wire" bytes)
};

constexpr unsigned kPackets = 48;
constexpr unsigned kWindow = 8; //!< concurrently mapped RX buffers

/**
 * Run the seeded workload under @p kind.  @p corrupt_packet, when set,
 * flips one byte of that RX packet's buffer after the unmap — the
 * injected "scheme bug" the detection test relies on.
 */
SchemeRun
runScheme(dma::SchemeKind kind, std::uint64_t seed,
          std::optional<unsigned> corrupt_packet = std::nullopt,
          iommu::BackendKind backend = iommu::BackendKind::Vtd)
{
    net::SystemParams p;
    p.scheme = kind;
    p.backend = backend;
    net::System sys(p);
    sys.ctx.functionalData = true; // payload bytes must actually move

    dma::Device dev(sys.ctx, "diffnic", sys.mmu, sys.phys);
    sim::CpuCursor cpu(sys.ctx.machine.core(0), 0);

    SchemeRun out;
    out.scheme = dma::schemeKindName(kind);
    sim::Rng rng(seed);

    struct Inflight
    {
        unsigned id;
        mem::Pfn pfn;
        unsigned order;
        std::uint32_t len;
        iommu::Iova iova;
        std::vector<std::uint8_t> wire; //!< bytes the device will write
    };

    // --- RX: device writes a window of mapped buffers, the kernel
    // unmaps and reads them in map order (the app-visible order).
    std::vector<Inflight> window;
    unsigned next_id = 0;
    const auto drainOne = [&]() {
        Inflight f = window.front();
        window.erase(window.begin());
        // The device writes while the buffer is mapped...
        const dma::DmaOutcome w =
            dev.dmaWrite(cpu.time, f.iova, f.wire.data(), f.len);
        EXPECT_TRUE(w.ok) << out.scheme << " packet " << f.id;
        // ...then the driver unmaps (shadow copies back here) and the
        // stack reads what landed.
        sys.dmaApi->unmap(cpu, dev, f.iova, f.len,
                          dma::Dir::FromDevice);
        const mem::Pa pa = mem::pfnToPa(f.pfn);
        if (corrupt_packet && *corrupt_packet == f.id) {
            // The injected bug: one delivered byte silently flips.
            const std::uint8_t b = sys.phys.readByte(pa + f.len / 2);
            sys.phys.fill(pa + f.len / 2, std::uint8_t(b ^ 0x01), 1);
        }
        Delivered d;
        d.id = f.id;
        d.payload.resize(f.len);
        sys.phys.read(pa, d.payload.data(), f.len);
        out.rx.push_back(std::move(d));
        sys.pageAlloc.freePages(f.pfn, f.order);
    };

    while (next_id < kPackets || !window.empty()) {
        if (next_id < kPackets && window.size() < kWindow) {
            Inflight f;
            f.id = next_id++;
            f.len = std::uint32_t(rng.between(1, 3 * mem::kPageSize));
            f.order = 0;
            while ((mem::kPageSize << f.order) < f.len)
                ++f.order;
            f.pfn = sys.pageAlloc.allocPages(f.order, 0);
            EXPECT_NE(f.pfn, mem::kInvalidPfn);
            // Poison so undelivered bytes cannot masquerade as data.
            sys.phys.fill(mem::pfnToPa(f.pfn), 0xee, f.len);
            f.wire.resize(f.len);
            for (auto &b : f.wire)
                b = std::uint8_t(rng.below(256));
            f.iova = sys.dmaApi->map(cpu, dev, mem::pfnToPa(f.pfn),
                                     f.len, dma::Dir::FromDevice);
            window.push_back(std::move(f));
        } else {
            drainOne();
        }
    }

    // --- TX: the kernel fills buffers, maps them, and the device
    // reads them out (what would go on the wire).
    for (unsigned i = 0; i < kPackets / 2; ++i) {
        const auto len =
            std::uint32_t(rng.between(1, 2 * mem::kPageSize));
        unsigned order = 0;
        while ((mem::kPageSize << order) < len)
            ++order;
        const mem::Pfn pfn = sys.pageAlloc.allocPages(order, 0);
        EXPECT_NE(pfn, mem::kInvalidPfn) << out.scheme;
        std::vector<std::uint8_t> src(len);
        for (auto &b : src)
            b = std::uint8_t(rng.below(256));
        sys.phys.write(mem::pfnToPa(pfn), src.data(), len);

        const iommu::Iova iova = sys.dmaApi->map(
            cpu, dev, mem::pfnToPa(pfn), len, dma::Dir::ToDevice);
        Delivered d;
        d.id = kPackets + i;
        d.payload.resize(len);
        const dma::DmaOutcome r =
            dev.dmaRead(cpu.time, iova, d.payload.data(), len);
        EXPECT_TRUE(r.ok) << out.scheme << " tx packet " << d.id;
        sys.dmaApi->unmap(cpu, dev, iova, len, dma::Dir::ToDevice);
        out.tx.push_back(std::move(d));
        sys.pageAlloc.freePages(pfn, order);
    }
    return out;
}

/** First divergence between two runs, or nullopt when equivalent. */
std::optional<std::string>
firstDivergence(const SchemeRun &a, const SchemeRun &b)
{
    const auto diffStreams =
        [&](const std::vector<Delivered> &x,
            const std::vector<Delivered> &y,
            const char *dir) -> std::optional<std::string> {
        if (x.size() != y.size())
            return std::string(dir) + " packet count differs";
        for (std::size_t i = 0; i < x.size(); ++i) {
            std::ostringstream msg;
            if (x[i].id != y[i].id) {
                msg << dir << " delivery order diverges at slot " << i
                    << ": " << a.scheme << " delivered packet "
                    << x[i].id << ", " << b.scheme << " delivered "
                    << y[i].id;
                return msg.str();
            }
            if (x[i].payload != y[i].payload) {
                std::size_t off = 0;
                while (off < x[i].payload.size() &&
                       off < y[i].payload.size() &&
                       x[i].payload[off] == y[i].payload[off])
                    ++off;
                msg << dir << " payload of packet " << x[i].id
                    << " diverges at byte " << off << " ("
                    << a.scheme << " vs " << b.scheme << ")";
                return msg.str();
            }
        }
        return std::nullopt;
    };
    if (auto d = diffStreams(a.rx, b.rx, "rx"))
        return d;
    return diffStreams(a.tx, b.tx, "tx");
}

const dma::SchemeKind kSchemes[] = {
    dma::SchemeKind::IommuOff,
    dma::SchemeKind::Strict,
    dma::SchemeKind::Deferred,
    dma::SchemeKind::Shadow,
};

} // namespace

// ---------------------------------------------------------------------
// Equivalence: all four schemes deliver identical bytes in identical
// order for the same seed.
// ---------------------------------------------------------------------

TEST(Differential, SchemesDeliverIdenticalPayloads)
{
    const SchemeRun base = runScheme(dma::SchemeKind::IommuOff, 42);
    ASSERT_EQ(base.rx.size(), kPackets);
    for (const dma::SchemeKind k : kSchemes) {
        if (k == dma::SchemeKind::IommuOff)
            continue;
        const SchemeRun other = runScheme(k, 42);
        const auto d = firstDivergence(base, other);
        EXPECT_FALSE(d.has_value()) << *d;
    }
}

TEST(Differential, EquivalenceHoldsAcrossSeeds)
{
    for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
        const SchemeRun base =
            runScheme(dma::SchemeKind::Shadow, seed);
        const SchemeRun other =
            runScheme(dma::SchemeKind::Strict, seed);
        const auto d = firstDivergence(base, other);
        EXPECT_FALSE(d.has_value()) << "seed " << seed << ": " << *d;
    }
}

TEST(Differential, SameSchemeSameSeedIsDeterministic)
{
    for (const dma::SchemeKind k : kSchemes) {
        const SchemeRun a = runScheme(k, 99);
        const SchemeRun b = runScheme(k, 99);
        const auto d = firstDivergence(a, b);
        EXPECT_FALSE(d.has_value())
            << dma::schemeKindName(k) << ": " << *d;
    }
}

// ---------------------------------------------------------------------
// Backend equivalence: the IOMMU hardware model (VT-d vs SMMUv3) is a
// *timing* variant — it must never change what the application sees.
// ---------------------------------------------------------------------

TEST(Differential, SchemesDeliverIdenticalPayloadsOnSmmuV3)
{
    const SchemeRun base =
        runScheme(dma::SchemeKind::IommuOff, 42, std::nullopt,
                  iommu::BackendKind::SmmuV3);
    ASSERT_EQ(base.rx.size(), kPackets);
    for (const dma::SchemeKind k : kSchemes) {
        if (k == dma::SchemeKind::IommuOff)
            continue;
        const SchemeRun other = runScheme(k, 42, std::nullopt,
                                          iommu::BackendKind::SmmuV3);
        const auto d = firstDivergence(base, other);
        EXPECT_FALSE(d.has_value()) << *d;
    }
}

TEST(Differential, BackendsDeliverIdenticalPayloads)
{
    for (const dma::SchemeKind k : kSchemes) {
        const SchemeRun vtd = runScheme(k, 42, std::nullopt,
                                        iommu::BackendKind::Vtd);
        const SchemeRun smmu = runScheme(k, 42, std::nullopt,
                                         iommu::BackendKind::SmmuV3);
        const auto d = firstDivergence(vtd, smmu);
        EXPECT_FALSE(d.has_value())
            << dma::schemeKindName(k) << " vtd vs smmuv3: " << *d;
    }
}

// ---------------------------------------------------------------------
// The suite can fail: an injected one-byte corruption in one scheme's
// delivery path must be detected as a divergence.
// ---------------------------------------------------------------------

TEST(Differential, InjectedCorruptionIsDetected)
{
    const SchemeRun good = runScheme(dma::SchemeKind::IommuOff, 42);
    const SchemeRun bad =
        runScheme(dma::SchemeKind::Strict, 42, /*corrupt_packet=*/7);
    const auto d = firstDivergence(good, bad);
    ASSERT_TRUE(d.has_value())
        << "comparison machinery missed an injected corruption";
    EXPECT_NE(d->find("packet 7"), std::string::npos) << *d;
}

TEST(Differential, InjectedReorderIsDetected)
{
    SchemeRun a = runScheme(dma::SchemeKind::IommuOff, 42);
    SchemeRun b = runScheme(dma::SchemeKind::Deferred, 42);
    ASSERT_GE(b.rx.size(), 2u);
    std::swap(b.rx[0], b.rx[1]); // a buggy scheme reorders delivery
    const auto d = firstDivergence(a, b);
    ASSERT_TRUE(d.has_value());
    EXPECT_NE(d->find("delivery order"), std::string::npos) << *d;
}

// ---------------------------------------------------------------------
// Faulting RDMA (ATS/PRI): payloads that land through the page-fault
// path — device stalls, page request, service, resume — must be just
// as scheme- and backend-invariant as the pinned-buffer paths above.
// ---------------------------------------------------------------------

namespace {

/** What the faulting-RDMA workload delivered into pageable memory. */
struct FaultingRun
{
    std::string label;
    std::vector<Delivered> messages; //!< bytes as they landed
    std::uint64_t faultsServiced = 0;
};

FaultingRun
runFaultingRdma(dma::SchemeKind kind, std::uint64_t seed,
                iommu::BackendKind backend = iommu::BackendKind::Vtd)
{
    net::SystemParams p;
    p.scheme = kind;
    p.backend = backend;
    net::System sys(p);
    sys.ctx.functionalData = true;

    dma::Device dev(sys.ctx, "rdmadiff", sys.mmu, sys.phys);
    iommu::SvaDomain sva(sys.ctx, sys.mmu, sys.pageAlloc,
                         /*residentLimitPages=*/8);
    iommu::AtsAgent ats(sys.ctx, sys.mmu, sva.domain());
    sim::CpuCursor cpu(sys.ctx.machine.core(0), 0);
    sim::Rng rng(seed);

    // One pinned descriptor page keeps the scheme-priced DMA-API
    // control path in the loop, as the real workload does.
    const mem::Pfn descPfn = sys.pageAlloc.allocPages(0, 0);
    const mem::Pa descPa = mem::pfnToPa(descPfn);

    FaultingRun out;
    out.label = std::string(dma::schemeKindName(kind)) + "/" +
                iommu::backendKindName(backend);
    constexpr iommu::Iova kBase = 0x7f0000000000ull;
    constexpr unsigned kMessages = 24;
    constexpr unsigned kWindowPages = 16; //!< > resident limit: evicts

    for (unsigned i = 0; i < kMessages; ++i) {
        const iommu::Iova d = sys.dmaApi->map(cpu, dev, descPa, 64,
                                              dma::Dir::ToDevice);
        if (d != dma::kMapFailed)
            sys.dmaApi->unmap(cpu, dev, d, 64, dma::Dir::ToDevice);

        const iommu::Iova va =
            kBase + rng.below(kWindowPages) * mem::kPageSize;
        const auto len =
            std::uint32_t(rng.between(1, 3 * mem::kPageSize));
        std::vector<std::uint8_t> wire(len);
        for (auto &b : wire)
            b = std::uint8_t(rng.below(256));

        const dma::FaultableDmaResult w = dma::faultableDma(
            cpu, dev, ats, sva, va, wire.data(), len,
            /*is_write=*/true);
        EXPECT_TRUE(w.ok) << out.label << " message " << i;
        out.faultsServiced += w.faultsServiced;

        // Read back through a second faultable DMA: pages the write
        // left resident hit the ATC, pages the LRU already evicted
        // re-fault — the full device-visible landing bytes either way.
        Delivered msg;
        msg.id = i;
        msg.payload.resize(len);
        const dma::FaultableDmaResult r = dma::faultableDma(
            cpu, dev, ats, sva, va, msg.payload.data(), len,
            /*is_write=*/false);
        EXPECT_TRUE(r.ok) << out.label << " message " << i;
        out.faultsServiced += r.faultsServiced;
        out.messages.push_back(std::move(msg));
    }
    sys.pageAlloc.freePages(descPfn, 0);
    return out;
}

std::optional<std::string>
faultingDivergence(const FaultingRun &a, const FaultingRun &b)
{
    if (a.messages.size() != b.messages.size())
        return std::string("message count differs");
    for (std::size_t i = 0; i < a.messages.size(); ++i) {
        if (a.messages[i].payload != b.messages[i].payload)
            return "message " + std::to_string(i) +
                   " payload diverges (" + a.label + " vs " + b.label +
                   ")";
    }
    return std::nullopt;
}

} // namespace

TEST(Differential, FaultingRdmaDeliversIdenticalPayloadsAcrossSchemes)
{
    for (const iommu::BackendKind bk :
         {iommu::BackendKind::Vtd, iommu::BackendKind::SmmuV3}) {
        const FaultingRun base =
            runFaultingRdma(dma::SchemeKind::IommuOff, 42, bk);
        EXPECT_GT(base.faultsServiced, 0u)
            << "workload never exercised the PRI path";
        for (const dma::SchemeKind k : kSchemes) {
            if (k == dma::SchemeKind::IommuOff)
                continue;
            const FaultingRun other = runFaultingRdma(k, 42, bk);
            const auto d = faultingDivergence(base, other);
            EXPECT_FALSE(d.has_value()) << *d;
            EXPECT_EQ(base.faultsServiced, other.faultsServiced)
                << other.label;
        }
    }
}

TEST(Differential, FaultingRdmaDeliversIdenticalPayloadsAcrossBackends)
{
    for (const dma::SchemeKind k : kSchemes) {
        const FaultingRun vtd =
            runFaultingRdma(k, 7, iommu::BackendKind::Vtd);
        const FaultingRun smmu =
            runFaultingRdma(k, 7, iommu::BackendKind::SmmuV3);
        const auto d = faultingDivergence(vtd, smmu);
        EXPECT_FALSE(d.has_value())
            << dma::schemeKindName(k) << ": " << *d;
    }
}

// ---------------------------------------------------------------------
// Security outcomes are NOT equivalent: the per-scheme attack matrix
// (paper Table 1) is part of the differential contract.
// ---------------------------------------------------------------------

TEST(Differential, SecurityOutcomesMatchTable1)
{
    struct Expect
    {
        dma::SchemeKind kind;
        bool colocation, staleWindow, tocttou;
    };
    const Expect table[] = {
        {dma::SchemeKind::IommuOff, true, true, true},
        {dma::SchemeKind::Strict, true, false, false},
        {dma::SchemeKind::Deferred, true, true, true},
        {dma::SchemeKind::Shadow, false, false, false},
    };
    // The protection matrix is a property of the *scheme*, not of the
    // IOMMU hardware model: pin it on both backends.
    for (const iommu::BackendKind bk :
         {iommu::BackendKind::Vtd, iommu::BackendKind::SmmuV3}) {
        for (const Expect &e : table) {
            const work::AttackReport r =
                work::runAttacks({.scheme = e.kind, .backend = bk});
            EXPECT_EQ(r.colocationTheft, e.colocation)
                << dma::schemeKindName(e.kind) << " on "
                << iommu::backendKindName(bk);
            EXPECT_EQ(r.staleWindowTheft, e.staleWindow)
                << dma::schemeKindName(e.kind) << " on "
                << iommu::backendKindName(bk);
            EXPECT_EQ(r.tocttou, e.tocttou)
                << dma::schemeKindName(e.kind) << " on "
                << iommu::backendKindName(bk);
        }
    }
}
