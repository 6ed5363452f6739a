/**
 * @file
 * Fuzz harness implementation: sequence generation, the cell executor,
 * and the invariant oracles.  See harness.hh for the oracle contracts
 * and the soundness argument for the stale-translation tracking.
 */

#include "fuzz/harness.hh"

#include <algorithm>
#include <cassert>

#include "core/audit.hh"
#include "dma/device.hh"
#include "dma/faultable.hh"
#include "fuzz/interval_set.hh"
#include "fuzz/rng.hh"
#include "iommu/ats.hh"
#include "iommu/backend_smmu.hh"
#include "iommu/sva.hh"
#include "net/system.hh"

namespace damn::fuzz {

namespace {

/** DMA buffer sizes the generator draws from (b-field modulo). */
constexpr std::uint32_t kLens[6] = {64, 512, 1024, 4096, 16384, 65536};

/** Live-mapping cap: a Map beyond this executes as an Unmap, keeping
 *  the working set bounded for arbitrarily long sequences. */
constexpr std::size_t kMaxLive = 400;

/** Watchdog budget: engine dispatches allowed without op progress. */
constexpr std::uint64_t kWatchdogBudget = 200000;

/**
 * The change stamps of one cache's last clean stale scan for one
 * domain.  Only a fill (the one way an entry becomes valid) or growth
 * of the must-not set (the one way coverage appears) can turn a clean
 * scan dirty, so an unchanged stamp means the scan may be skipped.
 */
struct CleanScan
{
    std::uint64_t fills = 0;
    std::uint64_t growth = 0;

    bool
    current(std::uint64_t f, std::uint64_t g) const
    {
        return f == fills && g == growth;
    }
};

/** One live DMA mapping the executor tracks. */
struct Mapping
{
    unsigned dev;          //!< device index (== domain id here)
    iommu::Iova iova;
    mem::Pfn pfn;
    unsigned order;        //!< buddy order of the backing block
    std::uint32_t len;
    dma::Dir dir;
};

unsigned
orderFor(unsigned pages)
{
    unsigned o = 0;
    while ((1u << o) < pages)
        ++o;
    return o;
}

// ---- Run digest (FNV-1a 64) ----------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
mixByte(std::uint64_t &h, std::uint8_t b)
{
    h ^= b;
    h *= kFnvPrime;
}

void
mixU64(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        mixByte(h, std::uint8_t(v >> (8 * i)));
}

void
mixStr(std::uint64_t &h, const std::string &s)
{
    for (const char c : s)
        mixByte(h, std::uint8_t(c));
    mixByte(h, 0);
}

} // namespace

std::vector<dma::SchemeKind>
fuzzSchemes()
{
    return {dma::SchemeKind::Strict, dma::SchemeKind::Deferred,
            dma::SchemeKind::Shadow, dma::SchemeKind::Damn};
}

std::vector<iommu::BackendKind>
fuzzBackends()
{
    return {iommu::BackendKind::Vtd, iommu::BackendKind::SmmuV3};
}

Sequence
generate(const FuzzConfig &cfg)
{
    // Weights indexed in OpKind declaration order.  InjectBug is never
    // drawn randomly — it only appears in the crafted trigger tail.
    static const std::vector<unsigned> kWeights = {
        30, // Map
        20, // Unmap
        4,  // BatchUnmap
        14, // Dma
        3,  // WildDma
        6,  // Flush
        4,  // Sync
        8,  // Advance
        2,  // Unplug
        3,  // Replug
        1,  // Teardown
        2,  // Reset
        2,  // Reclaim
        2,  // ArmFaults
        2,  // ClearFaults
        2,  // DrainEvents
        1,  // Quarantine
        0,  // InjectBug
        8,  // AtsTranslate
        8,  // TouchPageable
        3,  // UnmapWhileFaulting
        2,  // PrqOverflow
    };
    assert(kWeights.size() == kNumOpKinds);

    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 0xf022);
    Sequence seq;
    seq.reserve(cfg.ops + 16);
    for (unsigned i = 0; i < cfg.ops; ++i) {
        Op op;
        op.kind = OpKind(rng.weighted(kWeights));
        op.a = rng.u32();
        op.b = rng.u32();
        op.c = rng.u32();
        seq.push_back(op);
    }

    if (cfg.injectStaleBug) {
        // The crafted stale-TLB trigger: quiesce (no injected faults,
        // queue drained, device present, quarantine lifted), map a
        // page, warm its IOTLB entry, arm the test-only invalidation
        // drop, unmap — and for deferred-style schemes force the
        // (dropped) flush out.  Whatever the random prefix did, the
        // no-stale-translation oracle must trip on the tail.
        seq.push_back({OpKind::ClearFaults, 0, 0, 0});
        seq.push_back({OpKind::Flush, 0, 0, 0});
        seq.push_back({OpKind::Replug, 0, 0, 0});
        seq.push_back({OpKind::Reset, 0, 0, 0});
        seq.push_back({OpKind::Map, 0, 3, 2}); // dev0, 4 KiB, bidir
        seq.push_back({OpKind::Dma, 0, 0, 0}); // newest, 1-byte read
        seq.push_back({OpKind::InjectBug, 0, 0, 0}); // drop next inval
        seq.push_back({OpKind::Unmap, 0, 0, 0});     // newest
        seq.push_back({OpKind::Flush, 0, 0, 0});
    }

    if (cfg.injectDevTlbBug) {
        // The crafted stale-device-TLB trigger: quiesce, map a page,
        // warm the per-device ATC with an ATS translate, arm the
        // device-TLB invalidation drop (InjectBug with b odd), unmap,
        // then Sync — whose atsInvalidateAll the armed hook swallows
        // silently, so the promotion logic believes the ATC is clean
        // while the entry is still cached.  The stale-device-tlb
        // oracle must trip on the tail on either backend.
        seq.push_back({OpKind::ClearFaults, 0, 0, 0});
        seq.push_back({OpKind::Flush, 0, 0, 0});
        seq.push_back({OpKind::Replug, 0, 0, 0});
        seq.push_back({OpKind::Reset, 0, 0, 0});
        seq.push_back({OpKind::Map, 0, 3, 2});          // dev0, 4 KiB
        seq.push_back({OpKind::AtsTranslate, 0, 0, 0}); // warm the ATC
        seq.push_back({OpKind::InjectBug, 0, 1, 0});    // drop ATS inval
        seq.push_back({OpKind::Unmap, 0, 0, 0});        // newest
        seq.push_back({OpKind::Sync, 0, 0, 0});         // "certain" inval
    }
    return seq;
}

FuzzResult
runSequence(const FuzzConfig &cfg, const Sequence &seq)
{
    net::SystemParams p;
    p.scheme = cfg.scheme;
    p.backend = cfg.backend;
    p.physBytes = 1ull << 28; // 256 MiB: exhaustion is reachable
    p.sockets = 2;
    p.coresPerSocket = 2;
    p.iovaSpaceBytes = 64ull << 20;

    net::System sys(p);
    sys.ctx.functionalData = false; // timing/translation identical
    sim::Context &ctx = sys.ctx;
    sim::Engine &eng = ctx.engine;

    dma::Device dev0(ctx, "fz0", sys.mmu, sys.phys, 0);
    dma::Device dev1(ctx, "fz1", sys.mmu, sys.phys, 1);
    dma::Device *devs[2] = {&dev0, &dev1};
    audit::Auditor auditor(sys.mmu);

    // ATS/PRI state: one ATC per device over the regular mapping
    // population, plus one pageable SVA window (its own domain) that
    // TouchPageable / UnmapWhileFaulting / PrqOverflow fault through.
    iommu::AtsAgent ats0(ctx, sys.mmu, dev0.domain());
    iommu::AtsAgent ats1(ctx, sys.mmu, dev1.domain());
    iommu::AtsAgent *agents[2] = {&ats0, &ats1};
    iommu::SvaDomain sva(ctx, sys.mmu, sys.pageAlloc,
                         /*residentLimitPages=*/48);
    iommu::AtsAgent svaAts(ctx, sys.mmu, sva.domain());
    constexpr iommu::Iova kSvaBase = 0x7f0000000000ull;
    constexpr unsigned kSvaPages = 64;
    std::uint32_t priGroup = 0;

    auto *smmu = dynamic_cast<iommu::SmmuV3Backend *>(&sys.mmu.backend());
    const bool trackStale = net::System::schemeUsesIommu(p) &&
                            cfg.scheme != dma::SchemeKind::Shadow;
    const bool strictScheme = cfg.scheme == dma::SchemeKind::Strict;
    const unsigned ncores = ctx.machine.numCores();

    std::size_t opsDone = 0;
    eng.armWatchdog(kWatchdogBudget,
                    [&opsDone] { return std::uint64_t(opsDone); });

    sim::TimeNs t = 0;
    std::vector<Mapping> live;
    // The live mappings' [iova, iova + len) ranges.  No map has
    // clashed yet (a clash ends the run), so they are disjoint and
    // erasing one mapping's range leaves every other one whole.
    IntervalSet liveIovas;
    IntervalSet pending[2]; //!< unmapped, invalidation not yet certain
    IntervalSet mustNot[2]; //!< unmapped AND certainly invalidated
    // Same two-phase tracking for the per-device ATCs.  IOTLB flushes
    // never promote these — only a completed atsInvalidateAll does
    // (the Sync op), because the ATC lives outside the IOMMU.
    IntervalSet atsPending[2];
    IntervalSet atsMustNot[2];
    CleanScan tlbClean[2];
    CleanScan atsClean[2];

    FuzzResult res;
    const auto fail = [&res](std::size_t i, const char *oracle,
                             std::string detail) {
        if (res.violated)
            return;
        res.violated = true;
        res.violation = Violation{oracle, std::move(detail), i};
    };

    // Newest-first resolution of a live-mapping operand: a 0 always
    // names the most recent mapping, so crafted tails work no matter
    // how large the prefix left the working set.
    const auto liveAt = [&live](std::uint32_t a) -> std::size_t {
        return live.size() - 1 - (a % live.size());
    };

    const auto pageRange =
        [](const Mapping &m) -> std::pair<std::uint64_t, std::uint64_t> {
        const std::uint64_t lo = m.iova & ~std::uint64_t(mem::kPageSize - 1);
        const std::uint64_t pages =
            (m.len + mem::kPageSize - 1) >> mem::kPageShift;
        return {lo, lo + pages * mem::kPageSize};
    };

    const auto runOracles = [&](std::size_t i) {
        if (res.violated)
            return;
        // 1. No stale translation after a certain invalidation.  Only
        //    re-scanned after a change (see CleanScan): exact, because
        //    a violation needs a valid entry overlapping must-not.
        if (trackStale) {
            const std::uint64_t fills = sys.mmu.iotlb().fills();
            for (unsigned k = 0; k < 2 && !res.violated; ++k) {
                if (mustNot[k].empty() ||
                    tlbClean[k].current(fills, mustNot[k].growth()))
                    continue;
                tlbClean[k] = {fills, mustNot[k].growth()};
                const iommu::DomainId d = devs[k]->domain();
                // The first stale entry in slot order is the one named.
                sys.mmu.iotlb().forEachValid(d, [&](const iommu::TlbEntry &e) {
                    const std::uint64_t lo = e.iovaPage;
                    const std::uint64_t hi =
                        lo + (e.huge ? iommu::kHugePageSize
                                     : mem::kPageSize);
                    if (!res.violated && mustNot[k].overlaps(lo, hi))
                        fail(i, "stale-translation",
                             "domain " + std::to_string(d) +
                                 " still translates iova " +
                                 std::to_string(lo) +
                                 " after its invalidation completed");
                });
            }
        }
        // 1b. No stale device-TLB entry after a certain ATS inval.
        if (trackStale) {
            for (unsigned k = 0; k < 2 && !res.violated; ++k) {
                const std::uint64_t fills = agents[k]->fills();
                if (atsMustNot[k].empty() ||
                    atsClean[k].current(fills, atsMustNot[k].growth()))
                    continue;
                atsClean[k] = {fills, atsMustNot[k].growth()};
                for (const iommu::Iova page :
                     agents[k]->validEntries()) {
                    if (atsMustNot[k].overlaps(page,
                                               page + mem::kPageSize)) {
                        fail(i, "stale-device-tlb",
                             "device " + std::to_string(k) +
                                 " ATC still holds iova " +
                                 std::to_string(page) +
                                 " after its ATS invalidation "
                                 "completed");
                        break;
                    }
                }
            }
        }
        // 1c. PRI accounting conservation (both backends).
        if (!res.violated) {
            iommu::IommuBackend &be = sys.mmu.backend();
            const std::uint64_t posted = be.pageRequestsPosted();
            const std::uint64_t fetched = be.pageRequestsFetched();
            const std::uint64_t responded = be.pageRequestsResponded();
            const std::uint64_t autoResp =
                be.pageRequestAutoResponses();
            const std::uint64_t inq = be.pendingPageRequests();
            if (posted != autoResp + inq + fetched ||
                responded > fetched)
                fail(i, "pri-conservation",
                     std::to_string(posted) + " posted vs " +
                         std::to_string(autoResp) + " auto + " +
                         std::to_string(inq) + " queued + " +
                         std::to_string(fetched) + " fetched (" +
                         std::to_string(responded) + " responded)");
        }
        // 2. Audit ledger vs I/O page table.
        for (unsigned k = 0; k < 2 && !res.violated; ++k) {
            const iommu::DomainId d = devs[k]->domain();
            const std::uint64_t ledger = auditor.ledgerPages(d);
            const std::uint64_t table = sys.mmu.pageTable(d).mappedPages();
            if (ledger != table)
                fail(i, "ledger-mismatch",
                     "domain " + std::to_string(d) + ": ledger " +
                         std::to_string(ledger) + " vs page table " +
                         std::to_string(table));
        }
        // 3. Fault accounting conservation (facade log).
        if (!res.violated) {
            const std::uint64_t f = sys.mmu.faults();
            const std::uint64_t logged = sys.mmu.faultLog().size();
            const std::uint64_t lost = sys.mmu.faultLogOverflows();
            if (f != logged + lost)
                fail(i, "fault-conservation",
                     std::to_string(f) + " faults vs " +
                         std::to_string(logged) + " logged + " +
                         std::to_string(lost) + " overflowed");
        }
        // 4. SMMUv3 event-queue conservation (hardware-side ring).
        if (!res.violated && smmu) {
            const std::uint64_t f = sys.mmu.faults();
            const std::uint64_t inq = smmu->eventQueue().size();
            const std::uint64_t drained = smmu->eventQueueDrained();
            const std::uint64_t lost = smmu->eventQueueOverflows();
            if (f != inq + drained + lost)
                fail(i, "evtq-conservation",
                     std::to_string(f) + " faults vs " +
                         std::to_string(inq) + " queued + " +
                         std::to_string(drained) + " drained + " +
                         std::to_string(lost) + " overflowed");
        }
        // 5. Engine liveness.
        if (!res.violated && eng.stallsDetected() > 0)
            fail(i, "liveness",
                 "engine watchdog tripped: " +
                     std::to_string(eng.stallsDetected()) + " stalls");
    };

    // Per-op scratch, cleared where each op starts using it.
    // Ranges unmapped this op, awaiting classification.
    std::vector<std::pair<unsigned, std::pair<std::uint64_t,
                                              std::uint64_t>>>
        unmappedNow;
    std::vector<std::size_t> idxs;  //!< BatchUnmap's picked live slots
    std::vector<Mapping> picked;
    std::vector<dma::DmaApi::UnmapReq> reqs;

    for (std::size_t i = 0; i < seq.size() && !res.violated; ++i) {
        const Op &op = seq[i];
        sim::CpuCursor cpu(ctx.machine.core(op.c % ncores), t);

        const std::uint64_t droppedBefore =
            ctx.stats.get(sim::Ctr::IommuInvalDropped);
        const std::uint64_t flushedBefore =
            ctx.stats.get(sim::Ctr::DmaDeferredFlushes);
        bool promoteAll = false;   //!< global sync completed this op
        bool skipTracking = false; //!< op manages the sets itself
        unmappedNow.clear();

        const auto doUnmap = [&](const Mapping &m) {
            sys.dmaApi->unmap(cpu, *devs[m.dev], m.iova, m.len, m.dir);
            sys.pageAlloc.freePages(m.pfn, m.order);
            if (trackStale)
                unmappedNow.push_back({m.dev, pageRange(m)});
        };

        OpKind kind = op.kind;
        if (kind == OpKind::Map && live.size() >= kMaxLive)
            kind = OpKind::Unmap; // keep the working set bounded

        switch (kind) {
          case OpKind::Map: {
            const unsigned devIdx = op.a % 2;
            const std::uint32_t len = kLens[op.b % 6];
            const auto dir = static_cast<dma::Dir>(op.c % 3);
            const unsigned pages =
                (len + mem::kPageSize - 1) >> mem::kPageShift;
            const unsigned order = orderFor(pages);
            const mem::Pfn pfn =
                sys.pageAlloc.allocPages(order, op.c % p.sockets);
            if (pfn == mem::kInvalidPfn) {
                ctx.stats.add(sim::Ctr::FuzzMapOom);
                break;
            }
            const mem::Pa pa = mem::pfnToPa(pfn);
            const iommu::Iova iova =
                sys.dmaApi->map(cpu, *devs[devIdx], pa, len, dir);
            if (iova == dma::kMapFailed) {
                sys.pageAlloc.freePages(pfn, order);
                ctx.stats.add(sim::Ctr::FuzzMapFailed);
                break;
            }
            // On a clash, the first clashing mapping in live order is
            // the one the report names.
            if (liveIovas.overlaps(iova, iova + len)) {
                for (const Mapping &m : live) {
                    if (iova < m.iova + m.len && m.iova < iova + len) {
                        fail(i, "iova-overlap",
                             "map at " + std::to_string(iova) + "+" +
                                 std::to_string(len) +
                                 " overlaps live mapping at " +
                                 std::to_string(m.iova) + "+" +
                                 std::to_string(m.len));
                        break;
                    }
                }
            }
            if (trackStale) {
                // A recycled IOVA is live again: whatever history the
                // range had, it may translate now.
                const std::uint64_t lo =
                    iova & ~std::uint64_t(mem::kPageSize - 1);
                const std::uint64_t hi =
                    lo + std::uint64_t(pages) * mem::kPageSize;
                pending[devIdx].erase(lo, hi);
                mustNot[devIdx].erase(lo, hi);
                atsPending[devIdx].erase(lo, hi);
                atsMustNot[devIdx].erase(lo, hi);
            }
            live.push_back({devIdx, iova, pfn, order, len, dir});
            liveIovas.insert(iova, iova + len);
          } break;

          case OpKind::Unmap: {
            if (live.empty()) {
                ctx.stats.add(sim::Ctr::FuzzNoop);
                break;
            }
            const std::size_t idx = liveAt(op.a);
            const Mapping m = live[idx];
            live.erase(live.begin() + std::ptrdiff_t(idx));
            liveIovas.erase(m.iova, m.iova + m.len);
            doUnmap(m);
          } break;

          case OpKind::BatchUnmap: {
            if (live.empty()) {
                ctx.stats.add(sim::Ctr::FuzzNoop);
                break;
            }
            const unsigned want = 1 + op.b % 4;
            const unsigned devIdx = live[liveAt(op.a)].dev;
            idxs.clear();
            for (std::size_t k = 0;
                 k < live.size() && idxs.size() < want; ++k) {
                const std::size_t idx =
                    live.size() - 1 -
                    ((op.a % live.size()) + k) % live.size();
                if (live[idx].dev == devIdx)
                    idxs.push_back(idx);
            }
            picked.clear();
            for (const std::size_t idx : idxs)
                picked.push_back(live[idx]);
            std::sort(idxs.begin(), idxs.end(),
                      std::greater<std::size_t>());
            for (const std::size_t idx : idxs)
                live.erase(live.begin() + std::ptrdiff_t(idx));
            reqs.clear();
            for (const Mapping &m : picked) {
                liveIovas.erase(m.iova, m.iova + m.len);
                reqs.push_back({m.iova, m.len, m.dir});
            }
            sys.dmaApi->unmapBatch(cpu, *devs[devIdx], reqs);
            for (const Mapping &m : picked) {
                sys.pageAlloc.freePages(m.pfn, m.order);
                if (trackStale)
                    unmappedNow.push_back({m.dev, pageRange(m)});
            }
          } break;

          case OpKind::Dma: {
            if (live.empty()) {
                ctx.stats.add(sim::Ctr::FuzzNoop);
                break;
            }
            const Mapping &m = live[liveAt(op.a)];
            const std::uint32_t off = op.b % m.len;
            const std::uint64_t len = 1 + op.c % (m.len - off);
            // Access direction honors the mapping's permission so the
            // touch warms the IOTLB instead of perm-faulting.
            const bool isw = m.dir == dma::Dir::ToDevice ? false
                             : m.dir == dma::Dir::FromDevice
                                 ? true
                                 : (op.c & 1) != 0;
            const dma::DmaOutcome o =
                devs[m.dev]->dmaTouch(t, m.iova + off, len, isw);
            if (o.completes > t)
                t = o.completes;
          } break;

          case OpKind::WildDma: {
            const unsigned devIdx = op.a % 2;
            const iommu::Iova iova =
                (iommu::Iova(op.b) << 12) | (op.c & 0xfff);
            const dma::DmaOutcome o = devs[devIdx]->dmaTouch(
                t, iova, 1 + (op.c % 4096), (op.b & 1) != 0);
            if (o.completes > t)
                t = o.completes;
          } break;

          case OpKind::Flush:
            sys.dmaApi->flushPending(cpu);
            break;

          case OpKind::Sync: {
            const sim::TimeNs done =
                sys.mmu.backend().batchedFlushAll(*cpu.core, cpu.time);
            cpu.waitUntil(done);
            // Global sync also shoots down both device ATCs — the ATS
            // verbs ride the same droppable invalidation interface.
            for (unsigned k = 0; k < 2; ++k)
                cpu.waitUntil(sys.mmu.backend().atsInvalidateAll(
                    *cpu.core, cpu.time, *agents[k],
                    devs[k]->domain()));
            promoteAll = true; // gated on zero dropped invalidations
          } break;

          case OpKind::Advance: {
            const sim::TimeNs dur =
                sim::TimeNs(1 + op.a % 2000) * 1000; // 1 us .. 2 ms
            eng.run(t + dur);
            t += dur;
          } break;

          case OpKind::Unplug:
            devs[op.a % 2]->unplug();
            break;

          case OpKind::Replug:
            devs[op.a % 2]->replug();
            break;

          case OpKind::Teardown: {
            skipTracking = true;
            liveIovas.clear();
            while (!live.empty()) {
                const Mapping m = live.back();
                live.pop_back();
                sys.dmaApi->unmap(cpu, *devs[m.dev], m.iova, m.len,
                                  m.dir);
                sys.pageAlloc.freePages(m.pfn, m.order);
            }
            sys.dmaApi->flushPending(cpu);
            for (unsigned k = 0; k < 2; ++k)
                sys.dmaApi->drainDomain(cpu, *devs[k]);
            for (unsigned k = 0; k < 2 && !res.violated; ++k) {
                const iommu::DomainId d = devs[k]->domain();
                const std::uint64_t forced = sys.mmu.detachDomain(d);
                const audit::TeardownReport rep = auditor.verifyTeardown(
                    d, sys.liveIovaPages(d), forced);
                if (!rep.clean()) {
                    std::string detail =
                        "domain " + std::to_string(d) + ":";
                    for (const std::string &v : rep.violations)
                        detail += " [" + v + "]";
                    fail(i, "audit-teardown", detail);
                }
            }
            for (unsigned k = 0; k < 2; ++k) {
                sys.mmu.attachDomain(devs[k]->domain());
                devs[k]->replug();
            }
            for (unsigned k = 0; k < 2; ++k) {
                agents[k]->reset(); // detach implies device FLR
                pending[k].clear();
                mustNot[k].clear();
                atsPending[k].clear();
                atsMustNot[k].clear();
            }
          } break;

          case OpKind::Reset: {
            const unsigned k = op.a % 2;
            sys.mmu.resetDomain(devs[k]->domain());
            // resetDomain's IOTLB flush is a direct hardware call, not
            // a droppable queued command: promotion is unconditional.
            // FLR also clears the device's ATC outright.
            agents[k]->reset();
            if (trackStale) {
                mustNot[k].absorb(pending[k]);
                atsMustNot[k].absorb(atsPending[k]);
            }
          } break;

          case OpKind::Reclaim:
            ctx.pressure.reclaim(cpu);
            break;

          case OpKind::ArmFaults:
            ctx.faults.enable(cfg.seed * 1000003 + op.a);
            ctx.faults.setProbability(sim::FaultSite::IommuInval,
                                      double(op.b % 64) / 256.0);
            ctx.faults.setProbability(sim::FaultSite::DmaTranslate,
                                      double(op.c % 64) / 512.0);
            ctx.faults.setProbability(sim::FaultSite::PageAlloc,
                                      double((op.b >> 8) % 16) / 256.0);
            break;

          case OpKind::ClearFaults:
            ctx.faults.reset();
            break;

          case OpKind::DrainEvents:
            if (smmu)
                smmu->drainEventQueue();
            break;

          case OpKind::Quarantine:
            sys.mmu.setQuarantineThreshold(1 + op.a % 50);
            break;

          case OpKind::InjectBug:
            if ((op.b & 1) != 0) {
                // Odd b: plant the bug one cache out — the device
                // TLBs swallow the next ATS invalidations.
                agents[0]->debugDropInvalidations(1 + op.a % 4);
                agents[1]->debugDropInvalidations(1 + op.a % 4);
            } else {
                sys.mmu.iotlb().debugDropInvalidations(1 + op.a % 4);
            }
            break;

          case OpKind::AtsTranslate: {
            if (live.empty()) {
                ctx.stats.add(sim::Ctr::FuzzNoop);
                break;
            }
            const Mapping &m = live[liveAt(op.a)];
            const std::uint32_t off = op.b % m.len;
            const bool isw = m.dir == dma::Dir::ToDevice ? false
                             : m.dir == dma::Dir::FromDevice
                                 ? true
                                 : (op.c & 1) != 0;
            const iommu::AtsAgent::Result r =
                agents[m.dev]->translate(m.iova + off, isw);
            t += r.latencyNs;
          } break;

          case OpKind::TouchPageable: {
            const iommu::Iova va =
                kSvaBase +
                iommu::Iova(op.a % kSvaPages) * mem::kPageSize;
            const std::uint64_t len = 1 + op.b % (4 * mem::kPageSize);
            dma::faultableDma(cpu, *devs[op.c % 2], svaAts, sva, va,
                              nullptr, len, (op.b & 1) != 0,
                              /*maxFaults=*/8);
          } break;

          case OpKind::UnmapWhileFaulting: {
            const iommu::Iova va =
                kSvaBase +
                iommu::Iova(op.a % kSvaPages) * mem::kPageSize;
            // Queue the page's fault, then evict the page before the
            // handler runs — the unmap-while-faulting race.  The
            // handler must re-fault it cleanly (or auto-respond).
            sys.mmu.backend().postPageRequest(
                {sva.domain(), va, (op.b & 1) != 0, priGroup++,
                 cpu.time});
            sva.evict(cpu, va, &svaAts);
            for (const iommu::IommuBackend::PageRequest &r :
                 sys.mmu.backend().fetchPageRequests())
                sva.servicePageRequest(cpu, r, &svaAts);
          } break;

          case OpKind::PrqOverflow: {
            // Post past the queue bound and leave it full: the tail
            // posts must auto-respond, and the backlog stays queued
            // until the next TouchPageable drains it.
            const unsigned depth = std::max(ctx.cost.vtdPrqDepth,
                                            ctx.cost.smmuStallDepth);
            for (unsigned j = 0; j < depth + 4; ++j) {
                const iommu::Iova va =
                    kSvaBase + iommu::Iova((op.a + j) % kSvaPages) *
                                   mem::kPageSize;
                sys.mmu.backend().postPageRequest(
                    {sva.domain(), va, true, priGroup++, cpu.time});
            }
          } break;
        }

        if (cpu.time > t)
            t = cpu.time;

        // ---- Stale-translation bookkeeping --------------------------
        // Promote pending ranges to must-not-translate only when an
        // invalidation covering them observably completed this op with
        // zero drops; any drop poisons certainty for everything still
        // pending (conservative, hence sound).
        if (trackStale && !skipTracking) {
            const std::uint64_t dropped =
                ctx.stats.get(sim::Ctr::IommuInvalDropped) - droppedBefore;
            const std::uint64_t flushed =
                ctx.stats.get(sim::Ctr::DmaDeferredFlushes) - flushedBefore;
            if (dropped == 0) {
                if (strictScheme)
                    for (const auto &[k, r] : unmappedNow)
                        mustNot[k].insert(r.first, r.second);
                if (flushed > 0 || promoteAll)
                    for (unsigned k = 0; k < 2; ++k)
                        mustNot[k].absorb(pending[k]);
            } else {
                for (unsigned k = 0; k < 2; ++k)
                    pending[k].clear();
            }
            if (!strictScheme)
                for (const auto &[k, r] : unmappedNow)
                    pending[k].insert(r.first, r.second);
            // Device-TLB tracking: the DMA-API unmap path never
            // invalidates ATCs, so unmapped ranges always start
            // pending and only a completed global ATS shootdown (the
            // Sync op) promotes them; a dropped invalidation poisons
            // certainty exactly as for the IOTLB sets.
            if (dropped == 0) {
                if (promoteAll)
                    for (unsigned k = 0; k < 2; ++k)
                        atsMustNot[k].absorb(atsPending[k]);
            } else {
                for (unsigned k = 0; k < 2; ++k)
                    atsPending[k].clear();
            }
            for (const auto &[k, r] : unmappedNow)
                atsPending[k].insert(r.first, r.second);
        }

        ++opsDone;
        res.opsExecuted = opsDone;
        runOracles(i);
    }

    eng.disarmWatchdog();

    res.faults = sys.mmu.faults();
    res.watchdogStalls = eng.stallsDetected();
    res.stats = ctx.stats.snapshot();

    std::uint64_t h = kFnvOffset;
    mixStr(h, "damn-fuzz-v1");
    mixStr(h, dma::schemeKindName(cfg.scheme));
    mixStr(h, iommu::backendKindName(cfg.backend));
    mixU64(h, cfg.seed);
    mixU64(h, res.opsExecuted);
    mixU64(h, res.violated ? 1 : 0);
    mixStr(h, res.violation.oracle);
    mixStr(h, res.violation.detail);
    mixU64(h, res.violation.opIndex);
    mixU64(h, res.faults);
    mixU64(h, res.watchdogStalls);
    mixU64(h, std::uint64_t(eng.now()));
    for (const auto &[name, value] : res.stats) {
        mixStr(h, name);
        mixU64(h, value);
    }
    res.digest = h;
    return res;
}

} // namespace damn::fuzz
