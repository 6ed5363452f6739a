/**
 * @file
 * fio/NVMe workload implementation.
 */

#include "workloads/fio.hh"

#include <cassert>

namespace damn::work {

namespace {

constexpr unsigned kJobs = 12;
constexpr unsigned kQueueDepth = 32; //!< outstanding IOs per job

/** One fio job's asynchronous IO pump. */
class FioJob
{
  public:
    FioJob(net::System &sys, nvme::NvmeDevice &dev, const FioOpts &opts,
           unsigned core)
        : sys_(sys), dev_(dev), opts_(opts), core_(core)
    {
        // fio preallocates its IO buffers once and reuses them.  Under
        // memory pressure the job runs at whatever queue depth the
        // allocator can back, rather than asserting.
        unsigned order = 0;
        while ((mem::kPageSize << order) < opts.blockBytes)
            ++order;
        for (unsigned i = 0; i < kQueueDepth; ++i) {
            mem::Pfn pfn = sys_.pageAlloc.allocPages(order, 0);
            if (pfn == mem::kInvalidPfn) {
                sim::CpuCursor cpu(sys_.ctx.machine.core(core_),
                                   sys_.ctx.now());
                sys_.ctx.pressure.reclaim(cpu);
                pfn = sys_.pageAlloc.allocPages(order, 0);
            }
            if (pfn == mem::kInvalidPfn) {
                sys_.ctx.stats.add(sim::Ctr::NvmeBufferAllocFails);
                break;
            }
            buffers_.push_back(mem::pfnToPa(pfn));
        }
    }

    void
    start()
    {
        for (unsigned i = 0; i < unsigned(buffers_.size()); ++i)
            submit(i);
    }

    std::uint64_t completed = 0; //!< IOs finished inside the window
    std::uint64_t failedIos = 0; //!< retry budget exhausted / unmappable
    sim::TimeNs windowStart = 0;

  private:
    /** Backoff budget for pressure-throttled / unmappable submissions. */
    static constexpr unsigned kMaxBackoffs = 8;

    void
    submit(unsigned slot, unsigned backoffs = 0)
    {
        sim::CpuCursor cpu(sys_.ctx.machine.core(core_),
                           sys_.ctx.now());
        // Admission throttle: when the system is critically short on
        // memory or IOVA space, hold new IOs back (bounded) and give
        // the reclaimers a chance instead of piling onto the queue.
        if (backoffs < kMaxBackoffs &&
            sys_.ctx.pressure.poll() == sim::PressureLevel::Critical) {
            sys_.ctx.pressure.reclaim(cpu);
            if (sys_.ctx.pressure.poll() ==
                sim::PressureLevel::Critical) {
                sys_.ctx.stats.add(sim::Ctr::NvmeThrottled);
                sys_.ctx.engine.schedule(
                    cpu.time + sys_.ctx.cost.nvmeTimeoutNs,
                    [this, slot, backoffs] {
                        submit(slot, backoffs + 1);
                    });
                return;
            }
        }
        sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::Nvme,
                            "nvme.submit_io");
        span.bytes(opts_.blockBytes);
        // Block layer + driver submission half.
        cpu.charge(sys_.ctx.cost.nvmePerIoCpuNs / 2);
        // O_DIRECT: the user buffer is DMA-mapped for this request.
        const iommu::Iova dma = sys_.dmaApi->map(
            cpu, dev_, buffers_[slot], opts_.blockBytes,
            dma::Dir::FromDevice);
        if (dma == dma::kMapFailed) {
            // IOVA space exhausted past forced reclaim: back off and
            // retry; past the budget the IO fails and the slot parks
            // (graceful queue-depth degradation).
            if (backoffs < kMaxBackoffs) {
                sys_.ctx.stats.add(sim::Ctr::NvmeMapFailRetries);
                sys_.ctx.engine.schedule(
                    cpu.time + sys_.ctx.cost.nvmeTimeoutNs,
                    [this, slot, backoffs] {
                        submit(slot, backoffs + 1);
                    });
            } else {
                ++failedIos;
                sys_.ctx.stats.add(sim::Ctr::NvmeFailedIos);
            }
            return;
        }

        const nvme::NvmeCmdResult out =
            dev_.submitRead(cpu.time, dma, opts_.blockBytes);
        if (!out.ok) {
            // Retry budget exhausted (or device unplugged): count the
            // failed IO and error-complete it so the mapping is not
            // leaked; a healthy device gets the slot back.
            ++failedIos;
            sys_.ctx.stats.add(sim::Ctr::NvmeFailedIos);
            const bool aborted = out.aborted;
            sys_.ctx.engine.schedule(
                out.completes, [this, slot, dma, aborted] {
                    sim::CpuCursor c2(sys_.ctx.machine.core(core_),
                                      sys_.ctx.now());
                    sys_.dmaApi->unmap(c2, dev_, dma, opts_.blockBytes,
                                       dma::Dir::FromDevice);
                    if (!aborted)
                        submit(slot);
                });
            return;
        }

        sys_.ctx.engine.schedule(out.completes, [this, slot, dma] {
            complete(slot, dma);
        });
    }

    void
    complete(unsigned slot, iommu::Iova dma)
    {
        sim::CpuCursor cpu(sys_.ctx.machine.core(core_),
                           sys_.ctx.now());
        sim::TraceSpan span(sys_.ctx.tracer, cpu, sim::TraceCat::Nvme,
                            "nvme.complete_io");
        cpu.charge(sys_.ctx.cost.nvmePerIoCpuNs / 2);
        sys_.dmaApi->unmap(cpu, dev_, dma, opts_.blockBytes,
                           dma::Dir::FromDevice);
        if (sys_.ctx.now() >= windowStart)
            ++completed;
        sys_.ctx.engine.schedule(cpu.time,
                                 [this, slot] { submit(slot); });
    }

    net::System &sys_;
    nvme::NvmeDevice &dev_;
    FioOpts opts_;
    unsigned core_;
    std::vector<mem::Pa> buffers_;
};

} // namespace

FioResult
runFio(const FioOpts &opts)
{
    assert(opts.sysParams.scheme != dma::SchemeKind::Damn &&
           "DAMN does not apply to storage (paper section 2.2)");

    // The NVMe testbed is the Dell R430: 2 x 12-core Haswell at
    // 2.4 GHz; its (newer-stepping) IOMMU completes invalidations
    // faster than the Broadwell server's.
    net::SystemParams p = opts.sysParams;
    p.sockets = 2;
    p.coresPerSocket = 12;
    p.cost.cpuGhz = 2.4;
    // The R430's IOMMU pipelines invalidations: short submission slot,
    // ~1.2 us out-of-lock completion wait (sustains the device's IOPS
    // while costing the unmapping CPU -- figure 11's 2x CPU at 512 B).
    p.cost.strictInvalidateNs = 600;
    p.cost.strictPostWaitNs = 1200;
    net::System sys(p);
    sys.ctx.functionalData = false;

    nvme::NvmeDevice dev(sys.ctx, "nvme0", sys.mmu, sys.phys);

    std::vector<std::unique_ptr<FioJob>> jobs;
    for (unsigned j = 0; j < kJobs; ++j) {
        jobs.push_back(std::make_unique<FioJob>(
            sys, dev, opts, j % sys.ctx.machine.numCores()));
    }
    for (auto &job : jobs) {
        job->windowStart = opts.runWindow.warmupNs;
        job->start();
    }

    opts.runWindow.settle(sys.ctx);
    opts.runWindow.finish(sys.ctx);

    FioResult r;
    std::uint64_t ios = 0;
    for (const auto &job : jobs) {
        ios += job->completed;
        r.failedIos += job->failedIos;
    }
    r.common.opsPerSec = opts.runWindow.perSecond(ios);
    r.common.cpuPct = opts.runWindow.cpuPct(sys.ctx);
    r.common.memGBps =
        sys.ctx.memBw.achievedGBps(opts.runWindow.measureNs);
    r.common.capture(sys.ctx);
    r.throughputGBps = r.common.opsPerSec * opts.blockBytes / 1e9;
    return r;
}

} // namespace damn::work
