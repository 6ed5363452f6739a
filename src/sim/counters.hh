/**
 * @file
 * The counter table: every sim::Stats counter, named once.
 *
 * One row per counter gives its enum id, its "layer.name" (the key in
 * a stats snapshot and the JSON report) and a one-line meaning.  Rows
 * are in name order, which is the order snapshot() emits them in; a
 * static_assert rejects a duplicate, misordered or malformed name.
 * Code names a counter only by its Ctr id, so a misspelt counter fails
 * to build instead of silently reading 0.
 */

#ifndef DAMN_SIM_COUNTERS_HH
#define DAMN_SIM_COUNTERS_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace damn::sim {

#define DAMN_COUNTERS(X)                                                       \
    X(AtsDevtlbHits, "ats.devtlb_hits", "ATS lookups a device TLB served")     \
    X(AtsDevtlbMisses, "ats.devtlb_misses", "ATS lookups a device TLB missed") \
    X(AttackColocationFaults, "attack.colocation_faults",                      \
      "IOMMU faults the sub-page co-location replay hit")                      \
    X(AttackStaleWindowFaults, "attack.stale_window_faults",                   \
      "IOMMU faults the stale-IOTLB-window replay hit")                        \
    X(AttackTocttouFaults, "attack.tocttou_faults",                            \
      "IOMMU faults the TOCTTOU replay hit")                                   \
    X(BfsBytes, "bfs.bytes", "bytes BFS teams processed in the window")        \
    X(BfsQuanta, "bfs.quanta", "work quanta BFS teams ran in the window")      \
    X(DamnAllocFails, "damn.alloc_fails", "damn_allocs that found no chunk")   \
    X(DamnAllocs, "damn.allocs", "buffers damn_alloc handed out")              \
    X(DamnChunkAllocFails, "damn.chunk_alloc_fails",                           \
      "chunk refills the page allocator or IOVA region refused")               \
    X(DamnChunksAllocated, "damn.chunks_allocated",                            \
      "chunks DAMN caches took from the page allocator")                       \
    X(DamnChunksRecycled, "damn.chunks_recycled",                              \
      "fully freed chunks returned to a magazine")                             \
    X(DamnChunksReleased, "damn.chunks_released",                              \
      "chunks DAMN caches gave back to the page allocator")                    \
    X(DamnFrees, "damn.frees", "buffers damn_free released")                   \
    X(DamnIovaRegionExhausted, "damn.iova_region_exhausted",                   \
      "chunk slots refused: encoded-IOVA region full")                         \
    X(DamnMapHits, "damn.map_hits", "dma_maps of DAMN buffers (lookup only)")  \
    X(DamnUnmapHits, "damn.unmap_hits", "dma_unmaps of DAMN IOVAs (no-ops)")   \
    X(DmaDeferredFlushedUnmaps, "dma.deferred_flushed_unmaps",                 \
      "deferred unmaps a batched flush retired")                               \
    X(DmaDeferredFlushes, "dma.deferred_flushes",                              \
      "batched IOTLB flushes the deferred scheme ran")                         \
    X(DmaMap, "dma.map", "DMA-API maps the scheme completed")                  \
    X(DmaMapFails, "dma.map_fails", "maps failed after flush and reclaim")     \
    X(DmaMapPages, "dma.map_pages", "IOMMU pages the DMA-API maps covered")    \
    X(DmaStrictInvalidations, "dma.strict_invalidations",                      \
      "synchronous IOTLB invalidations at unmap")                              \
    X(DmaSurpriseUnplugs, "dma.surprise_unplugs", "injected device unplugs")   \
    X(DmaUnmap, "dma.unmap", "DMA-API unmaps the scheme completed")            \
    X(DmaUnpluggedAborts, "dma.unplugged_aborts", "DMAs by unplugged devices") \
    X(DmaUnplugs, "dma.unplugs", "device unplugs, surprise or orderly")        \
    X(FuzzMapFailed, "fuzz.map_failed", "fuzz map ops the DMA API refused")    \
    X(FuzzMapOom, "fuzz.map_oom", "fuzz map ops with no page to map")          \
    X(FuzzNoop, "fuzz.noop", "fuzz ops that found no live mapping to act on")  \
    X(GuardSecuredBytes, "guard.secured_bytes", "bytes the RX guard copied")   \
    X(IommuInvalDropped, "iommu.inval_dropped",                                \
      "invalidations an injected fault dropped")                               \
    X(IommuIovaExhausted, "iommu.iova_exhausted",                              \
      "IOVA allocations that found the space full")                            \
    X(IommuIovaFlushRecoveries, "iommu.iova_flush_recoveries",                 \
      "IOVA allocations a forced flush rescued")                               \
    X(IommuIovaForcedFlushes, "iommu.iova_forced_flushes",                     \
      "pending-unmap flushes forced by a full space")                          \
    X(IommuIovaReclaimRecoveries, "iommu.iova_reclaim_recoveries",             \
      "IOVA allocations pressure reclaim rescued")                             \
    X(KbuildBursts, "kbuild.bursts", "kbuild co-runner allocation bursts")     \
    X(KbuildPages, "kbuild.pages", "pages the kbuild co-runner allocated")     \
    X(MemInjectedAllocFails, "mem.injected_alloc_fails",                       \
      "RX buffer allocations failed by injection")                             \
    X(MemPageFragFails, "mem.page_frag_fails", "failed page_frag refills")     \
    X(NetRingTeardowns, "net.ring_teardowns", "RX/TX ring teardowns")          \
    X(NetRxAbortedBuffers, "net.rx_aborted_buffers",                           \
      "posted RX buffers freed unused at teardown")                            \
    X(NetRxBytes, "net.rx_bytes", "bytes of RX segments the stack processed")  \
    X(NetRxMapFails, "net.rx_map_fails", "RX buffers dropped: dma_map failed") \
    X(NetRxRefillFails, "net.rx_refill_fails",                                 \
      "RX ring refills deferred by memory pressure")                           \
    X(NetRxSegments, "net.rx_segments", "RX segments the stack processed")     \
    X(NetTxAbortedSegments, "net.tx_aborted_segments",                         \
      "TX segments freed unsent at teardown")                                  \
    X(NetTxAllocFails, "net.tx_alloc_fails", "TX skbs not built: no memory")   \
    X(NetTxBytes, "net.tx_bytes", "bytes of TX segments built")                \
    X(NetTxMapFails, "net.tx_map_fails", "TX skbs dropped: dma_map failed")    \
    X(NetTxSegments, "net.tx_segments", "TX segments built")                   \
    X(NetTxThrottled, "net.tx_throttled", "TX submits backed off by pressure") \
    X(NetTxZerocopySegments, "net.tx_zerocopy_segments",                       \
      "zero-copy (sendfile) TX segments built")                                \
    X(NetUserReadBytes, "net.user_read_bytes", "bytes recvmsg copied to user") \
    X(NicLinkDownDrops, "nic.link_down_drops", "transfers dropped, link down") \
    X(NicLinkFlaps, "nic.link_flaps", "injected NIC link flaps")               \
    X(NicRxInjectedDrops, "nic.rx_injected_drops",                             \
      "RX transfers dropped by injection")                                     \
    X(NicTxInjectedDrops, "nic.tx_injected_drops",                             \
      "TX transfers dropped by injection")                                     \
    X(NvmeAbortedCmds, "nvme.aborted_cmds", "commands aborted after a fault")  \
    X(NvmeBufferAllocFails, "nvme.buffer_alloc_fails",                         \
      "fio buffer allocations the allocator refused")                          \
    X(NvmeCmdDrops, "nvme.cmd_drops", "commands lost in flight by injection")  \
    X(NvmeFailedCmds, "nvme.failed_cmds", "NVMe commands completed in error")  \
    X(NvmeFailedIos, "nvme.failed_ios", "fio IOs given up as failed")          \
    X(NvmeMapFailRetries, "nvme.map_fail_retries",                             \
      "fio IOs retried after a failed dma_map")                                \
    X(NvmeThrottled, "nvme.throttled", "fio submits backed off by pressure")   \
    X(PressureDamnToCritical, "pressure.damn.to_critical",                     \
      "DAMN caches' moves to Critical")                                        \
    X(PressureDamnToLow, "pressure.damn.to_low", "DAMN caches' moves to Low")  \
    X(PressureDamnToOk, "pressure.damn.to_ok", "DAMN caches' moves to Ok")     \
    X(PressureIovaToCritical, "pressure.iova.to_critical",                     \
      "IOVA space's moves to Critical")                                        \
    X(PressureIovaToLow, "pressure.iova.to_low", "IOVA space's moves to Low")  \
    X(PressureIovaToOk, "pressure.iova.to_ok", "IOVA space's moves to Ok")     \
    X(PressureKmallocToCritical, "pressure.kmalloc.to_critical",               \
      "kmalloc heap's moves to Critical")                                      \
    X(PressureKmallocToLow, "pressure.kmalloc.to_low",                         \
      "kmalloc heap's moves to Low")                                           \
    X(PressureKmallocToOk, "pressure.kmalloc.to_ok",                           \
      "kmalloc heap's moves to Ok")                                            \
    X(PressurePagesToCritical, "pressure.pages.to_critical",                   \
      "page allocator's moves to Critical")                                    \
    X(PressurePagesToLow, "pressure.pages.to_low",                             \
      "page allocator's moves to Low")                                         \
    X(PressurePagesToOk, "pressure.pages.to_ok",                               \
      "page allocator's moves to Ok")                                          \
    X(PressureReclaimFutile, "pressure.reclaim_futile",                        \
      "reclaim passes that freed nothing")                                     \
    X(PressureReclaimNs, "pressure.reclaim_ns", "virtual ns spent reclaiming") \
    X(PressureReclaimedDamnShrink, "pressure.reclaimed.damn_shrink",           \
      "bytes DAMN magazine shrinking freed")                                   \
    X(PressureReclaimedFlushPending, "pressure.reclaimed.flush_pending",       \
      "IOVA pages forced flushes freed")                                       \
    X(PressureReclaimedShadowShrink, "pressure.reclaimed.shadow_shrink",       \
      "pages idle shadow-pool release freed")                                  \
    X(PressureReclaims, "pressure.reclaims", "reclaim passes run")             \
    X(PressureShadowToCritical, "pressure.shadow.to_critical",                 \
      "shadow pools' moves to Critical")                                       \
    X(PressureShadowToLow, "pressure.shadow.to_low",                           \
      "shadow pools' moves to Low")                                            \
    X(PressureShadowToOk, "pressure.shadow.to_ok",                             \
      "shadow pools' moves to Ok")                                             \
    X(PriAutoResponses, "pri.auto_responses", "page requests auto-answered")   \
    X(PriRequests, "pri.requests", "page requests posted")                     \
    X(PriResponses, "pri.responses", "page requests the host answered")        \
    X(ShadowAbortedMaps, "shadow.aborted_maps",                                \
      "in-flight shadow maps aborted at drain")                                \
    X(ShadowDrainedPages, "shadow.drained_pages", "pool pages freed at drain") \
    X(ShadowPoolGrow, "shadow.pool_grow", "shadow-pool blocks added")          \
    X(ShadowPoolGrowFails, "shadow.pool_grow_fails",                           \
      "shadow-pool growths the allocator refused")                             \
    X(ShadowRxCopiedBytes, "shadow.rx_copied_bytes",                           \
      "bytes copied out of shadow buffers at unmap")                           \
    X(ShadowShrunkPages, "shadow.shrunk_pages", "pool pages reclaim released") \
    X(ShadowTxCopiedBytes, "shadow.tx_copied_bytes",                           \
      "bytes copied into shadow buffers at map")                               \
    X(SkbSecureFails, "skb.secure_fails", "skb ranges not secured: no memory") \
    X(SmmuAtcInvals, "smmu.atc_invals", "CMD_ATC_INV commands issued")         \
    X(SmmuCdFetches, "smmu.cd_fetches", "STE+CD fetches on a config miss")     \
    X(SmmuCfgiSte, "smmu.cfgi_ste", "CFGI_STE config invalidations")           \
    X(SmmuCmdResumes, "smmu.cmd_resumes", "CMD_RESUMEs for stalled faults")    \
    X(SmmuCmdqStalls, "smmu.cmdq_stalls", "producer stalls on a full cmdq")    \
    X(SmmuCmds, "smmu.cmds", "commands written to the command queue")          \
    X(SmmuEvtqDrained, "smmu.evtq_drained", "event records the host drained")  \
    X(SmmuEvtqOverflows, "smmu.evtq_overflows", "events lost to a full queue") \
    X(SmmuEvtqRecords, "smmu.evtq_records", "event records queued")            \
    X(SmmuStallAutoTerms, "smmu.stall_auto_terms",                             \
      "stalled transactions terminated: table full")                           \
    X(SmmuStallEvents, "smmu.stall_events", "transactions stalled for PRI")    \
    X(SmmuSteWrites, "smmu.ste_writes", "STE installs at domain attach")       \
    X(SmmuSyncs, "smmu.syncs", "CMD_SYNC completions waited for")              \
    X(SvaEvictions, "sva.evictions", "SVA pages evicted to stay under limit")  \
    X(SvaFaultAllocFails, "sva.fault_alloc_fails", "SVA faults with no page")  \
    X(SvaFaultsServiced, "sva.faults_serviced", "SVA page faults serviced")    \
    X(SvaSpuriousFaults, "sva.spurious_faults", "faults on resident pages")    \
    X(VtdDevtlbInvals, "vtd.devtlb_invals", "device-TLB invalidations issued") \
    X(VtdPrqAutoResponses, "vtd.prq_auto_responses",                           \
      "page requests auto-answered: PRQ full")                                 \
    X(VtdPrqPosts, "vtd.prq_posts", "page requests written to the PRQ")        \
    X(VtdPrqResponses, "vtd.prq_responses", "page-group responses sent")

/** Counter id: one enumerator per DAMN_COUNTERS row, in name order. */
enum class Ctr : std::uint16_t
{
#define X(id, name, meaning) id,
    DAMN_COUNTERS(X)
#undef X
};

/** One row of the table. */
struct CounterInfo
{
    std::string_view name;    //!< "layer.name"
    std::string_view meaning; //!< one line
};

/** The table, indexed by Ctr. */
inline constexpr CounterInfo kCounters[] = {
#define X(id, name, meaning) {name, meaning},
    DAMN_COUNTERS(X)
#undef X
};

inline constexpr std::size_t kNumCounters = std::size(kCounters);

namespace detail {

/** "layer.name[.more]": lower-case [a-z0-9_] words joined by dots. */
constexpr bool
wellFormedCounterName(std::string_view n)
{
    if (n.empty() || n.front() == '.' || n.back() == '.' ||
        n.find('.') == std::string_view::npos ||
        n.find("..") != std::string_view::npos)
        return false;
    for (const char ch : n)
        if (!((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
              ch == '_' || ch == '.'))
            return false;
    return true;
}

/** Every name well formed, every meaning given, names strictly
 *  ascending (so unique, and already in snapshot order). */
constexpr bool
counterTableValid()
{
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        if (!wellFormedCounterName(kCounters[i].name) ||
            kCounters[i].meaning.empty())
            return false;
        if (i > 0 && !(kCounters[i - 1].name < kCounters[i].name))
            return false;
    }
    return true;
}

} // namespace detail

static_assert(detail::counterTableValid(),
              "DAMN_COUNTERS: names must be unique, in ascending order, "
              "and of the form layer.name; every meaning non-empty");

} // namespace damn::sim

#endif // DAMN_SIM_COUNTERS_HH
