/**
 * @file
 * Closed-loop streaming engine: drives N TCP flows through the NIC,
 * the driver, and the stack under a chosen protection scheme, and
 * measures throughput / CPU / memory bandwidth over a steady-state
 * window.
 *
 * Everything is closed-loop: receive flows stall the (infinitely fast)
 * traffic peer when no receive buffers are posted (lossless Ethernet
 * flow control), and transmit flows stall the application when the TX
 * ring window is full.  Throughput therefore *emerges* from whichever
 * resource binds: CPU, NIC line rate, PCIe, memory bandwidth, or the
 * IOTLB invalidation lock.
 */

#ifndef DAMN_NET_STREAM_HH
#define DAMN_NET_STREAM_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "net/stack.hh"
#include "sim/histogram.hh"

namespace damn::net {

/** One netperf-like flow. */
struct FlowSpec
{
    Traffic kind = Traffic::Rx;
    sim::CoreId core = 0;
    unsigned port = 0;
    std::uint32_t segBytes = 64 * 1024; //!< effective TSO/LRO aggregate
    unsigned window = 32;               //!< ring credit (outstanding segs)
    /**
     * TCP-lite loss recovery: a segment whose DMA faults (IOMMU fault
     * or injected drop) is retransmitted after an exponentially
     * backed-off timeout, up to @ref maxRetries times; past that the
     * flow is marked failed and stops making progress.
     */
    unsigned maxRetries = 10;
    sim::TimeNs rtoNs = 100 * sim::kNsPerUs; //!< base retransmit timeout
};

/** Measurement window configuration. */
struct StreamConfig
{
    sim::TimeNs warmupNs = 30 * sim::kNsPerMs;
    sim::TimeNs measureNs = 200 * sim::kNsPerMs;
    double costFactor = 1.0; //!< multi-flow inefficiency factor
};

/** Per-flow measurement. */
struct FlowResult
{
    std::uint64_t segments = 0;
    std::uint64_t bytes = 0;
    double gbps = 0.0;
    std::uint64_t drops = 0;       //!< segments lost to faulted DMA
    std::uint64_t retransmits = 0; //!< recovery resends issued
    bool failed = false;           //!< retry budget exhausted
};

/** Whole-run measurement. */
struct StreamResult
{
    double rxGbps = 0.0;
    double txGbps = 0.0;
    double totalGbps = 0.0;
    double cpuPct = 0.0;    //!< machine-wide (100% == all cores busy)
    double memGBps = 0.0;   //!< achieved memory-controller bandwidth
    std::vector<FlowResult> flows;
    std::uint64_t drops = 0;       //!< total faulted segments
    std::uint64_t retransmits = 0; //!< total recovery resends
    unsigned failedFlows = 0;      //!< flows that exhausted retries
    /** Per-segment end-to-end latency (wire start -> app consumed). */
    sim::LatencyHistogram latency;
};

/** Drives flows against one System + NIC + stack. */
class StreamEngine
{
  public:
    StreamEngine(System &sys, NicDevice &nic, TcpStack &stack,
                 StreamConfig config = {})
        : sys_(sys), nic_(nic), stack_(stack), config_(config)
    {}

    /** Register a flow before run(). */
    void addFlow(const FlowSpec &spec) { flows_.push_back(State{spec}); }

    /** Run warmup + measurement; returns aggregated results. */
    StreamResult run();

    /**
     * Start all flows without running the engine — for callers that
     * step virtual time themselves (e.g., to sample statistics at
     * intervals).  Counting windows are left wide open.
     */
    void
    startAll()
    {
        windowStart_ = 0;
        windowEnd_ = ~sim::TimeNs{0};
        for (std::size_t fi = 0; fi < flows_.size(); ++fi)
            startFlow(fi);
    }

    /**
     * Ring teardown (device removal): stop every flow, unmap and free
     * all posted RX buffers, and let in-flight work abort as its
     * events fire.  Run the engine forward afterwards, then check
     * quiesced().  The engine object must stay alive until the
     * simulation no longer holds events that reference it.
     */
    void teardown(sim::CpuCursor &cpu);

    /** True when no RX/TX segment or posted buffer is outstanding. */
    bool
    quiesced() const
    {
        for (const State &f : flows_)
            if (f.txInflight != 0 || f.rxInflight != 0 ||
                !f.posted.empty())
                return false;
        return true;
    }

    bool tornDown() const { return tornDown_; }
    /** Segments/buffers completed-with-error during teardown. */
    std::uint64_t abortedSegments() const { return abortedSegments_; }

    // Live recovery accounting, for callers that drive the engine
    // themselves via startAll() and never get a StreamResult.
    std::uint64_t
    totalDrops() const
    {
        std::uint64_t n = 0;
        for (const State &f : flows_)
            n += f.drops;
        return n;
    }

    std::uint64_t
    totalBytes() const
    {
        std::uint64_t n = 0;
        for (const State &f : flows_)
            n += f.bytes;
        return n;
    }

    std::uint64_t
    totalRetransmits() const
    {
        std::uint64_t n = 0;
        for (const State &f : flows_)
            n += f.retransmits;
        return n;
    }

    unsigned
    failedFlows() const
    {
        unsigned n = 0;
        for (const State &f : flows_)
            n += f.failed ? 1 : 0;
        return n;
    }

  private:
    /**
     * An RX flow's posted buffers, oldest first, in a ring of the
     * flow's window: a flow never has more than `window` buffers
     * posted, in flight to the stack, or awaiting a refill retry.
     */
    class PostedRing
    {
      public:
        explicit PostedRing(unsigned capacity) : slots_(capacity) {}

        bool empty() const { return size_ == 0; }
        const RxBuffer &front() const { return slots_[head_]; }

        void
        push_back(const RxBuffer &buf)
        {
            assert(size_ < slots_.size());
            slots_[(head_ + size_++) % slots_.size()] = buf;
        }

        void
        pop_front()
        {
            assert(size_ > 0);
            head_ = (head_ + 1) % slots_.size();
            --size_;
        }

      private:
        std::vector<RxBuffer> slots_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    struct State
    {
        explicit State(FlowSpec s) : spec(s), posted(s.window) {}

        FlowSpec spec;
        PostedRing posted;           //!< RX: buffers owned by the NIC
        unsigned txInflight = 0;
        unsigned rxInflight = 0;     //!< segments between DMA and stack
        bool generatorStalled = false;
        bool appStalled = false;
        std::uint64_t segments = 0;  //!< counted inside the window
        std::uint64_t bytes = 0;
        unsigned rxRetries = 0;      //!< consecutive faults, this segment
        unsigned txAllocRetries = 0; //!< consecutive build/map failures
        std::uint64_t drops = 0;     //!< whole-run recovery accounting
        std::uint64_t retransmits = 0;
        bool failed = false;
    };

    void startFlow(std::size_t fi);
    void pumpRx(std::size_t fi);
    void rxProcess(std::size_t fi, const RxBuffer &buf,
                   sim::TimeNs started);
    void refillRx(std::size_t fi);
    void pumpTx(std::size_t fi);
    void txSend(std::size_t fi, std::uint32_t slot, sim::TimeNs when,
                sim::TimeNs started, unsigned attempt);
    void txDone(std::size_t fi, std::uint32_t slot, sim::TimeNs started);
    bool inWindow() const;

    System &sys_;
    NicDevice &nic_;
    TcpStack &stack_;
    StreamConfig config_;
    std::vector<State> flows_;
    /** In-flight TX skbs of every flow; events carry a slot index.  A
     *  slot is reused once its skb completes or aborts. */
    std::vector<SkBuff> txSkbs_;
    std::vector<std::uint32_t> freeTxSlots_;
    sim::LatencyHistogram latency_;
    sim::TimeNs windowStart_ = 0;
    sim::TimeNs windowEnd_ = 0;
    bool tornDown_ = false;
    std::uint64_t abortedSegments_ = 0;
};

} // namespace damn::net

#endif // DAMN_NET_STREAM_HH
