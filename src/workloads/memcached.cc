/**
 * @file
 * memcached workload implementation.
 *
 * Modeled at *operation* granularity, matching how memslap drives the
 * server: each instance serves one outstanding operation at a time
 * (request -> value transfer -> response), so throughput is bound by
 * per-op latency (server CPU + wire time + client turnaround), not by
 * line rate — the paper's configuration moves only ~74 Gb/s on a
 * 200 Gb/s machine.
 *
 * A SET streams the value *into* the server (RX segments), a GET
 * streams it *out* (TX segments).  The server's socket writes are
 * push-style and flushed per event-loop iteration, so TX aggregates
 * are small (8 KiB) — which is what makes the *strict* scheme's
 * per-segment IOTLB invalidations the bottleneck (paper: half the
 * TPS at 70% CPU).
 */

#include "workloads/memcached.hh"

#include <memory>

namespace damn::work {

namespace {

constexpr std::uint32_t kValueBytes = 512 * 1024;
/** Socket-write flush granularity of the server's event loop (no full
 *  TSO aggregation on push-style writes). */
constexpr std::uint32_t kSegBytes = 8 * 1024;
/** memcached-side CPU per operation (parse, hash, slab churn for
 *  512 KiB objects, syscalls). */
constexpr sim::TimeNs kOpCpuNs = 100 * sim::kNsPerUs;
/** memslap-side turnaround between response and next request (client
 *  parse + build + RTT). */
constexpr sim::TimeNs kClientTurnaroundNs = 700 * sim::kNsPerUs;

/** One memcached instance: alternating GET/SET closed loop. */
class Instance
{
  public:
    Instance(net::System &sys, net::NicDevice &nic, net::TcpStack &stack,
             unsigned idx)
        : sys_(sys), nic_(nic), stack_(stack),
          core_(idx % sys.ctx.machine.numCores()), port_(idx % 2)
    {}

    void start() { nextOp(); }

    std::uint64_t opsDone = 0;
    sim::TimeNs windowStart = 0;

  private:
    void
    nextOp()
    {
        isGet_ = !isGet_;
        segsLeft_ = kValueBytes / kSegBytes;
        // Request arrival + parse + hash lookup / slab work.
        sim::CpuCursor cpu(sys_.ctx.machine.core(core_),
                           sys_.ctx.now());
        cpu.charge(kOpCpuNs);
        sys_.ctx.engine.schedule(cpu.time, [this] { moveSegment(); });
    }

    void
    moveSegment()
    {
        if (segsLeft_ == 0) {
            finishOp();
            return;
        }
        --segsLeft_;
        sim::CpuCursor cpu(sys_.ctx.machine.core(core_),
                           sys_.ctx.now());
        if (isGet_) {
            // Server transmits a value chunk.
            txSkb_ = stack_.txBuild(cpu, kSegBytes, 1.3);
            if (txSkb_.allocFailed) {
                // Memory/IOVA pressure: retry this chunk later.
                ++segsLeft_;
                sys_.ctx.stats.add(sim::Ctr::NetTxThrottled);
                sys_.ctx.engine.schedule(
                    cpu.time + 100 * sim::kNsPerUs,
                    [this] { moveSegment(); });
                return;
            }
            const dma::DmaOutcome out = nic_.transferSegmentSg(
                cpu.time, port_, net::Traffic::Tx, txSkb_);
            sys_.ctx.engine.schedule(out.completes, [this] {
                sim::CpuCursor c2(sys_.ctx.machine.core(core_),
                                  sys_.ctx.now());
                stack_.txComplete(c2, txSkb_, 1.3);
                sys_.ctx.engine.schedule(c2.time,
                                         [this] { moveSegment(); });
            });
        } else {
            // Server receives a value chunk into a posted buffer.
            net::RxBuffer buf = stack_.driver.allocRxBuffer(
                cpu, kSegBytes, core::AllocCtx::Interrupt);
            if (!buf.valid()) {
                // Memory/IOVA pressure: retry the post later.
                ++segsLeft_;
                sys_.ctx.stats.add(sim::Ctr::NetRxRefillFails);
                sys_.ctx.engine.schedule(
                    cpu.time + 100 * sim::kNsPerUs,
                    [this] { moveSegment(); });
                return;
            }
            const dma::DmaOutcome out = nic_.transferSegment(
                cpu.time, port_, net::Traffic::Rx, buf.seg.dmaAddr,
                kSegBytes);
            sys_.ctx.engine.schedule(out.completes, [this, buf] {
                sim::CpuCursor c2(sys_.ctx.machine.core(core_),
                                  sys_.ctx.now());
                net::SkBuff skb =
                    stack_.driver.rxBuild(c2, buf, kSegBytes);
                stack_.rxSegment(c2, skb, 1.3);
                stack_.appRead(c2, skb, 1.3, core::AllocCtx::Interrupt);
                sys_.ctx.engine.schedule(c2.time,
                                         [this] { moveSegment(); });
            });
        }
    }

    void
    finishOp()
    {
        if (sys_.ctx.now() >= windowStart)
            ++opsDone;
        // Client-side turnaround before the next request (memslap
        // parses the response, builds the next op, RTT).
        sys_.ctx.engine.scheduleIn(kClientTurnaroundNs,
                                   [this] { nextOp(); });
    }

    net::System &sys_;
    net::NicDevice &nic_;
    net::TcpStack &stack_;
    unsigned core_;
    unsigned port_;
    bool isGet_ = false;
    unsigned segsLeft_ = 0;
    /** The one TX segment in flight (an instance moves one at a time). */
    net::SkBuff txSkb_;
};

} // namespace

MemcachedResult
runMemcached(const MemcachedOpts &opts)
{
    net::System sys(opts.sysParams);
    sys.ctx.functionalData = false;
    net::NicDevice nic(sys, "mlx5_0");
    net::TcpStack stack(sys, nic);

    std::vector<std::unique_ptr<Instance>> instances;
    for (unsigned i = 0; i < opts.instances; ++i) {
        instances.push_back(
            std::make_unique<Instance>(sys, nic, stack, i));
    }
    for (auto &inst : instances) {
        inst->windowStart = opts.runWindow.warmupNs;
        inst->start();
    }

    opts.runWindow.settle(sys.ctx);
    opts.runWindow.finish(sys.ctx);

    MemcachedResult r;
    std::uint64_t ops = 0;
    for (const auto &inst : instances)
        ops += inst->opsDone;
    r.common.opsPerSec = opts.runWindow.perSecond(ops);
    r.common.cpuPct = opts.runWindow.cpuPct(sys.ctx);
    r.common.gbps = opts.runWindow.perSecond(ops * kValueBytes) *
        8.0 / 1e9;
    r.common.memGBps =
        sys.ctx.memBw.achievedGBps(opts.runWindow.measureNs);
    r.common.capture(sys.ctx);
    return r;
}

} // namespace damn::work
