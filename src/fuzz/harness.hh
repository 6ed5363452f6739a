/**
 * @file
 * Deterministic property-based chaos harness (the fuzzer core).
 *
 * generate() expands a seed into a weighted random Sequence of chaos
 * ops (ops.hh); runSequence() executes it against a freshly built
 * net::System — one {scheme} x {backend} cell — checking that the
 * invariant oracles hold after every step.  The two stale-entry
 * oracles re-scan a cache only after a change: when it filled an entry
 * (Iotlb::fills(), AtsAgent::fills()) or the domain's must-not set
 * grew since the last clean scan.  Filling is the only way an entry
 * becomes valid and promotion the only way must-not grows, so a clean
 * scan stays clean until one of them moves — skipping is exact.
 *
 *   stale-device-tlb    the same property one cache further out: an
 *                       ATS device-TLB (ATC) entry whose range was
 *                       unmapped and whose ATS invalidation is known
 *                       to have completed must be gone.  IOTLB flushes
 *                       never count — only completed atsInvalidate /
 *                       atsInvalidateAll verbs promote.
 *   pri-conservation    page-request accounting balances on both
 *                       backends: posted == auto-responses + pending +
 *                       fetched, and responded <= fetched.
 *   stale-translation   a mapping that was unmapped *and* whose IOTLB
 *                       invalidation is known to have completed must
 *                       never translate again (the Table-1 property).
 *                       Tracked conservatively: ranges move from a
 *                       per-domain "pending" set (unmapped, flush not
 *                       yet certain) to "must-not-translate" only on
 *                       ops whose invalidation observably completed
 *                       (strict unmap / explicit flush / global sync /
 *                       domain reset) with zero dropped invalidations.
 *   ledger-mismatch     audit::Auditor's map/unmap ledger vs the I/O
 *                       page table, cross-checked per domain.
 *   iova-overlap        no two live DMA mappings overlap in IOVA space.
 *   fault-conservation  Iommu::faults() == faultLog + overflows; on
 *                       SMMUv3 additionally faults == eventq in-ring +
 *                       drained + overflowed (satellite: evtq
 *                       accounting).
 *   liveness            the engine watchdog saw forward progress.
 *   audit-teardown      every Teardown op's full Auditor battery.
 *
 * Everything is virtual-time deterministic: the same (config, sequence)
 * yields a bit-identical FuzzResult, including the digest — the
 * property the shrinker, the corpus replays and the --jobs determinism
 * check all lean on.
 */

#ifndef DAMN_FUZZ_HARNESS_HH
#define DAMN_FUZZ_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dma/schemes.hh"
#include "fuzz/ops.hh"
#include "iommu/backend.hh"

namespace damn::fuzz {

/** One fuzz cell: a scheme x backend pair plus generator knobs. */
struct FuzzConfig
{
    dma::SchemeKind scheme = dma::SchemeKind::Strict;
    iommu::BackendKind backend = iommu::BackendKind::Vtd;
    std::uint64_t seed = 42;
    unsigned ops = 1000;

    /**
     * Append the crafted stale-TLB trigger tail (map, warm the IOTLB,
     * arm Iotlb::debugDropInvalidations, unmap) so the injected bug is
     * exercised — the oracle self-check the acceptance criteria pin.
     */
    bool injectStaleBug = false;

    /**
     * Append the crafted stale-*device*-TLB trigger tail instead: map,
     * warm the per-device ATC via an ATS translate, arm
     * AtsAgent::debugDropInvalidations, unmap, global sync (whose ATS
     * invalidation the armed hook swallows).  The stale-device-tlb
     * oracle must trip on the tail on either backend.
     */
    bool injectDevTlbBug = false;
};

/** An oracle violation, pinned to the op that exposed it. */
struct Violation
{
    std::string oracle;   //!< e.g. "stale-translation"
    std::string detail;   //!< deterministic human-readable specifics
    std::size_t opIndex = 0;
};

/** Outcome of one executed sequence. */
struct FuzzResult
{
    bool violated = false;
    Violation violation;
    std::size_t opsExecuted = 0;  //!< ops run (stops at a violation)
    std::uint64_t digest = 0;     //!< FNV-1a fingerprint of the run
    std::map<std::string, std::uint64_t> stats;
    std::uint64_t faults = 0;
    std::uint64_t watchdogStalls = 0;
};

/** Expand (seed, ops) into the weighted random op sequence. */
Sequence generate(const FuzzConfig &cfg);

/** Execute @p seq against a fresh cell and run the oracles. */
FuzzResult runSequence(const FuzzConfig &cfg, const Sequence &seq);

/** generate() + runSequence() in one step. */
inline FuzzResult
run(const FuzzConfig &cfg)
{
    return runSequence(cfg, generate(cfg));
}

/** The four protected schemes the fuzz matrix sweeps. */
std::vector<dma::SchemeKind> fuzzSchemes();

/** Both hardware backends. */
std::vector<iommu::BackendKind> fuzzBackends();

} // namespace damn::fuzz

#endif // DAMN_FUZZ_HARNESS_HH
