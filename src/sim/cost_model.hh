/**
 * @file
 * Calibrated cost model for the simulated kernel + hardware.
 *
 * Every virtual-time charge in the system comes from a named constant
 * here.  Constants are calibrated against the paper's *own* single-core
 * measurements (figure 4) on the 2 GHz Broadwell evaluation server, so
 * that the multi-core and bidirectional experiments *emerge* from the
 * closed-loop simulation rather than being dialed in.  Derivations:
 *
 *  - iommu-off RX sustains 67 Gb/s on one 100%-busy core with 64 KiB
 *    LRO segments => 7.8 us of CPU per segment.  Of that, the 64 KiB
 *    kernel->user copy at an effective ~11 GB/s (DDIO keeps freshly
 *    DMAed data in LLC) is ~6.0 us, leaving ~1.8 us for driver + TCP +
 *    ACK processing => kStackPerSegmentNs + kDriverPerBufferNs.
 *  - strict RX drops to 50 Gb/s => ~2.6 us extra per segment; with one
 *    receive buffer per LRO segment that is one synchronous IOTLB
 *    invalidation (queue lock + wait-descriptor round trip) =>
 *    kStrictInvalidateNs ~ 1.6-2.6 us; we use 1.9 us, mid-range, which
 *    also reproduces the ~80 Gb/s multi-core ceiling of figure 5 (the
 *    invalidation engine serializes at 1/kStrictInvalidateNs ops/s).
 *  - shadow-buffer RX drops to 26 Gb/s => ~12 us extra per segment for
 *    one additional 64 KiB copy into cache-cold kmalloc buffers =>
 *    kColdCopyBytesPerNs ~ 5.5 GB/s.  Shadow TX copies data the sender
 *    just wrote (LLC-resident) => kShadowTxCopyBytesPerNs ~ 14 GB/s,
 *    matching the paper's 1.7x TX improvement and its footnote that the
 *    RX/TX gap is a cache-footprint effect.
 *  - deferred map+unmap costs ~55 ns per buffer (Linux 4.7 per-CPU IOVA
 *    caching per Peleg et al. [34]); its IOTLB flush is batched over
 *    kDeferredBatch unmaps or kDeferredFlushNs, whichever first.
 *
 * Absolute numbers on different (or real) hardware will differ; the
 * shapes — who wins, by what factor, where crossovers fall — are what
 * the model preserves.  See EXPERIMENTS.md for measured-vs-paper.
 */

#ifndef DAMN_SIM_COST_MODEL_HH
#define DAMN_SIM_COST_MODEL_HH

#include <cstdint>

#include "sim/types.hh"

namespace damn::sim {

/** All tunable virtual-time costs, in one place. */
struct CostModel
{
    // ---- CPU clock ------------------------------------------------
    /** Core clock, GHz (E5-2660 v4, Turbo disabled). */
    double cpuGhz = 2.0;

    /** Convert cycles to ns at the model clock. */
    TimeNs
    cyclesToNs(double cycles) const
    {
        return TimeNs(cycles / cpuGhz);
    }

    // ---- Copy costs (CPU side) ------------------------------------
    /** Kernel<->user copy of freshly-DMAed (DDIO/LLC-warm) data, B/ns. */
    double warmCopyBytesPerNs = 11.0;
    /** copy_from_user on TX: netperf reuses one small send buffer, so
     *  the source stays cache-hot, B/ns. */
    double txUserCopyBytesPerNs = 14.0;
    /** Copy into cache-cold destination buffers (shadow RX path), B/ns. */
    double coldCopyBytesPerNs = 5.5;
    /** Shadow TX copy: source just written by the app, LLC->LLC, B/ns. */
    double shadowTxCopyBytesPerNs = 16.5;
    /** Fixed per-copy-call overhead (function call, checks), ns. */
    TimeNs copyCallNs = 40;

    /** CPU time of a warm copy of @p bytes. */
    TimeNs
    warmCopyNs(std::uint64_t bytes) const
    {
        return copyCallNs + TimeNs(double(bytes) / warmCopyBytesPerNs);
    }

    /** CPU time of a cold copy of @p bytes. */
    TimeNs
    coldCopyNs(std::uint64_t bytes) const
    {
        return copyCallNs + TimeNs(double(bytes) / coldCopyBytesPerNs);
    }

    // ---- Memory-system traffic factors ----------------------------
    /**
     * Fraction of copy read+write traffic that actually reaches the
     * memory controller (the rest is LLC-resident thanks to DDIO and
     * short reuse distances).
     */
    double copyMemTrafficFactor = 0.7;
    /** Fraction of NIC DMA traffic that reaches DRAM (DDIO absorbs
     *  part of the RX write stream). */
    double dmaMemTrafficFactor = 0.85;
    /** Cache-cold copies (shadow RX) miss the LLC on both streams, so
     *  their full read+write traffic reaches DRAM. */
    double coldCopyMemFactor = 1.0;

    // ---- Network stack / driver -----------------------------------
    /** TCP/IP + socket processing per segment (any size), ns. */
    TimeNs stackPerSegmentNs = 1100;
    /** Driver work per posted/completed buffer (descriptor handling,
     *  skb setup/teardown), ns. */
    TimeNs driverPerBufferNs = 250;
    /** Interrupt entry/exit + NAPI poll amortized per segment, ns. */
    TimeNs irqPerSegmentNs = 300;
    /** ACK build/parse cost per data segment (delayed ACK, 1 per 2
     *  segments, folded in), ns. */
    TimeNs ackPerSegmentNs = 150;
    /** Lightweight per-byte packet inspection (figure 8's XOR with a
     *  constant -- vectorized, cache-resident), B/ns. */
    double xorBytesPerNs = 64.0;
    /**
     * Multi-flow inefficiency factor applied to per-segment stack and
     * driver costs when many flows share the machine (cache and
     * scheduler interference; calibrated against fig. 5's CPU%).
     */
    double multiFlowFactor = 2.5;

    // ---- Allocator costs ------------------------------------------
    /** kmalloc/kfree pair for a packet buffer, ns. */
    TimeNs kmallocNs = 90;
    /** Page-fragment (sk_page_frag) alloc or free, ns. */
    TimeNs pageFragNs = 35;
    /** Page allocator order-k allocation, ns. */
    TimeNs pageAllocNs = 180;
    /** DAMN fast path: bump-pointer carve + refcount, ns (section 5.4:
     *  a handful of arithmetic ops and one atomic). */
    TimeNs damnFastAllocNs = 25;
    /** DAMN free fast path: refcount decrement, ns. */
    TimeNs damnFastFreeNs = 20;
    /** Magazine hit (pop/push on per-core stack), ns. */
    TimeNs magazineOpNs = 30;
    /** Depot exchange (global lock + list splice), ns: lock hold time. */
    TimeNs depotExchangeNs = 250;
    /** Zeroing freshly acquired chunk pages, B/ns (streaming stores). */
    double zeroBytesPerNs = 16.0;
    /** Cost to disable+enable interrupts around a critical section, ns.
     *  Used only by the single-cache ablation (design decision 2). */
    TimeNs irqDisableNs = 60;

    // ---- DMA API / IOMMU ------------------------------------------
    /** IOVA range allocation via the kernel allocator with per-CPU
     *  caching (Linux >= 4.7), ns. */
    TimeNs iovaAllocNs = 35;
    /** IOVA allocation slow path: global rbtree under lock, ns (lock
     *  hold time; pre-4.7 behaviour and cache misses). */
    TimeNs iovaAllocSlowNs = 400;
    /** Probability that an IOVA alloc misses the per-CPU cache. */
    double iovaSlowPathRate = 0.02;
    /** Writing/clearing one PTE in the I/O page table, ns. */
    TimeNs ptePerPageNs = 12;
    /**
     * Strict-mode synchronous invalidation: queue-lock hold +
     * invalidation descriptor + wait descriptor round trip, ns.
     * This whole duration holds the global invalidation-queue lock.
     */
    TimeNs strictInvalidateNs = 1650;
    /**
     * Fraction of strict-mode invalidation *spin-wait* time that OS
     * accounting books as busy (the wait loop issues pause/cpu_relax;
     * calibrated to the paper's 64% CPU at the 80 Gb/s strict ceiling).
     */
    double strictSpinBusyFraction = 0.55;
    /**
     * Extra out-of-lock completion wait per strict invalidation, ns.
     * IOMMUs with pipelined invalidation engines (the NVMe testbed's)
     * have a short submission slot (the lock hold above) but a longer
     * round-trip latency that the unmapping CPU still spins through
     * without blocking other submitters.  Zero on the NIC server,
     * where the wait happens under the lock.
     */
    TimeNs strictPostWaitNs = 0;
    /** Deferred-mode per-unmap bookkeeping (add to flush queue), ns. */
    TimeNs deferredUnmapNs = 20;
    /** Deferred flush: one batched invalidation for the whole queue. */
    TimeNs deferredFlushNs = 2200;
    /** Deferred batching threshold (Linux: ~250 pending). */
    unsigned deferredBatch = 250;
    /** Deferred flush timer (Linux: 10 ms). */
    TimeNs deferredFlushTimerNs = 10 * kNsPerMs;
    /**
     * IOTLB miss page walk, ns of *DMA-engine occupancy* per miss.
     * The raw 4-level walk takes ~100-150 ns, but the NIC pipelines
     * many outstanding DMAs, hiding most of it; the residual engine
     * stall is what throttles line rate when the IOTLB thrashes
     * (Table 3's huge-page variant recovers exactly this).
     */
    TimeNs iotlbWalkNs = 60;
    /** Walk with hot upper levels (page-walk-cache hit), ns. */
    TimeNs iotlbWalkPwcNs = 15;
    /** Shadow-buffer pool alloc/free per buffer, ns. */
    TimeNs shadowPoolOpNs = 110;
    /** DAMN dma_map interposition: page-flag check + IOVA lookup, ns. */
    TimeNs damnMapLookupNs = 15;
    /** DAMN dma_unmap interposition: IOVA MSB check, ns. */
    TimeNs damnUnmapCheckNs = 5;

    // ---- ARM SMMUv3 backend ----------------------------------------
    // The command-queue architecture splits what VT-d prices as one
    // locked round trip (strictInvalidateNs) into a cheap *producer*
    // slot under the cmdq lock and an asynchronous *consumer* drain
    // awaited outside it — the contention asymmetry the backend_matrix
    // experiment measures.
    //
    // Calibration sources (published ARM SMMUv3 numbers; the model
    // keeps their *shape* — cheap contended producer, latency-bound
    // CMD_SYNC, DRAM-bound walks — at our 2 GHz reference clock):
    //
    //  [S1] Arm SMMUv3 Architecture Specification (IHI 0070): command
    //       queue producer protocol (two 64-bit dwords + PROD update),
    //       CMD_SYNC completion by MSI or SEV polling, STE→CD indirection
    //       on the config path, CMDQS/EVTQS log2 ring sizing.
    //  [S2] Linux `iommu/arm-smmu-v3` lock-free command-queue series
    //       (Will Deacon, 2019, merged v5.4): insertion of a command
    //       batch is tens of ns when uncontended — the series exists
    //       because the *lock*, not the 2-dword write, dominated at
    //       high core counts.  Anchors smmuCmdSubmitNs ≈ 35 ns
    //       (~70 cycles: slot reservation + 2 stores + doorbell).
    //  [S3] "Optimizing the performance of SMMUv3" (John Garry,
    //       HiSilicon, Linux Plumbers / upstream threads, Kunpeng 920
    //       measurements): strict-mode per-unmap cost is dominated by
    //       the CMD_SYNC round trip (sub-microsecond once the queue
    //       ahead has drained) and the consumer's TLBI drain rate
    //       (~10 M invalidations/s ceiling).  Anchors
    //       smmuCmdSyncNs ≈ 750 ns and smmuTlbiNs ≈ 110 ns.
    //  [S4] Arm MMU-600 TRM: TBU translation latency — single-digit
    //       cycles on TLB hit, walk-cache hits save the upper-level
    //       walks; a cold stage-1 4 KiB walk is 3-4 dependent memory
    //       reads of which the PWC typically leaves ~2 DRAM touches.
    //       Anchors smmuWalkNs ≈ 105 ns (≈ 2 × ~50 ns DRAM + fabric),
    //       smmuWalkPwcNs ≈ 22 ns, smmuCdFetchNs ≈ 140 ns (STE then
    //       CD: two dependent cold reads).
    //  [S5] WFE-based CMD_SYNC polling (smmu_queue_poll in Linux)
    //       parks the core between events rather than pause-spinning
    //       like VT-d's wait-descriptor loop — we book 30% of the
    //       wait as busy vs VT-d's 55% (strictSpinBusyFraction).
    //
    /** Producing one command into the queue (slot reservation + two
     *  64-bit writes + PROD update), held under the cmdq lock, ns.
     *  [S1][S2] */
    TimeNs smmuCmdSubmitNs = 35;
    /** CMD_SYNC completion round trip once the queue ahead of it has
     *  drained (MSI or sev-based wakeup), ns.  [S1][S3] */
    TimeNs smmuCmdSyncNs = 750;
    /** Consuming one CMD_TLBI_* (walking and nuking TLB tags), ns.
     *  [S3] */
    TimeNs smmuTlbiNs = 110;
    /** Fraction of the out-of-lock CMD_SYNC wait booked as busy
     *  (wfe-based polling is gentler than VT-d's pause loop).  [S5] */
    double smmuSyncSpinBusyFraction = 0.30;
    /** SMMUv3 translation-table walk on a walk-cache miss, ns.  ARM
     *  walks are 3-4 levels like VT-d but the SMMU shares the
     *  interconnect path with device traffic.  [S4] */
    TimeNs smmuWalkNs = 105;
    /** Walk with hot upper levels (walk-cache hit), ns.  [S4] */
    TimeNs smmuWalkPwcNs = 22;
    /** STE + CD fetch on a config-cache miss (first walk after
     *  attach/CFGI), ns.  [S1][S4] */
    TimeNs smmuCdFetchNs = 140;
    /** Command-queue ring capacity, commands (2^CMDQS = 2^8; typical
     *  MMU-600 configuration and the Linux driver's default ring
     *  allocation).  [S1] */
    unsigned smmuCmdqDepth = 256;
    /** Event-queue ring capacity, fault records (2^EVTQS = 2^7).
     *  [S1] */
    unsigned smmuEvtqDepth = 128;

    // ---- ATS / PRI (page-faultable DMA, both backends) -------------
    // PCIe Address Translation Services let an endpoint cache
    // translations in its own device TLB (ATC) and — with the Page
    // Request Interface — recover from misses by faulting to the OS
    // and resuming.  The IOMMU side is VT-d's page-request queue and
    // SMMUv3's stall/CMD_RESUME model.
    /** Device-TLB (ATC) capacity, 4 KiB translations.  Endpoint ATCs
     *  are small (tens of entries on ConnectX-class NICs). */
    unsigned atsDevTlbEntries = 64;
    /** Device-TLB hit: the translation resolves inside the endpoint,
     *  no fabric round trip, ns. */
    TimeNs atsDevTlbHitNs = 5;
    /** ATS translation-request round trip over PCIe (miss path),
     *  excluding the IOMMU-side walk itself, ns.  Roughly one
     *  non-posted PCIe transaction. */
    TimeNs atsTranslateNs = 250;
    /** Device-TLB invalidation: the invalidation message to the
     *  endpoint plus its completion response, charged on top of the
     *  producer-side queue submission, ns. */
    TimeNs atsInvalidateNs = 520;
    /** Producing the page-request response (VT-d page_group_response
     *  descriptor / SMMUv3 CMD_RESUME), ns. */
    TimeNs priResponseNs = 150;
    /** OS page-fault service CPU per request (PRQ IRQ, mm locking,
     *  PTE install) excluding the page allocation itself, ns.
     *  Calibrated to the few-microsecond I/O-page-fault service
     *  latencies reported for virtual-address RDMA prototypes. */
    TimeNs priFaultServiceNs = 2400;
    /** Endpoint back-off before retrying a request that got a failure
     *  auto-response (queue overflow), ns. */
    TimeNs priRetryBackoffNs = 1200;
    /** VT-d page-request queue capacity, records (PRQ ring). */
    unsigned vtdPrqDepth = 32;
    /** SMMUv3 stalled-transaction capacity: how many faulting
     *  transactions can wait for CMD_RESUME, records. */
    unsigned smmuStallDepth = 32;

    // ---- NIC / PCIe / memory ceilings ------------------------------
    /** Per-port line rate, Gb/s (ConnectX-4). */
    double nicPortGbps = 100.0;
    /** Practical PCIe 3.0 x16 per-direction ceiling, Gb/s (the paper
     *  observes 106 Gb/s despite the 128 Gb/s spec). */
    double pcieGbps = 106.0;
    /** Aggregate memory bandwidth, B/ns (GB/s). */
    double memBwGBps = 80.0;
    /** Wire overhead per MTU frame (preamble/Ethernet/IP/TCP), bytes. */
    unsigned perFrameOverheadBytes = 90;
    /** MTU (jumbo frames), bytes. */
    unsigned mtuBytes = 9000;
    /** How long a port stays down after an injected link flap, ns.
     *  Real flaps are ms-scale; shortened (like nvmeTimeoutNs) so
     *  recovery is observable inside millisecond-scale runs. */
    TimeNs nicLinkFlapDownNs = 50 * kNsPerUs;

    // ---- NVMe -------------------------------------------------------
    /** Device IOPS ceiling (Intel DC P3700 400G: ~900k read IOPS). */
    double nvmeMaxIops = 900e3;
    /** Device throughput ceiling, B/ns (~3.2 GiB/s). */
    double nvmeMaxBytesPerNs = 3.2 * 1.073741824;
    /** Kernel block-layer + driver CPU per IO (submit+complete), ns. */
    TimeNs nvmePerIoCpuNs = 1800;
    /** Command timeout before the driver retries a lost IO, ns.  Real
     *  NVMe timeouts are seconds; the model shortens the constant so
     *  retry behaviour is observable inside millisecond-scale runs. */
    TimeNs nvmeTimeoutNs = 50 * kNsPerUs;
    /** Bounded retries after a timed-out command before the error is
     *  surfaced to the submitter. */
    unsigned nvmeMaxRetries = 3;
};

} // namespace damn::sim

#endif // DAMN_SIM_COST_MODEL_HH
