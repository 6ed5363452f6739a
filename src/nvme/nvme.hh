/**
 * @file
 * NVMe SSD model (the paper's Intel DC P3700 400 GiB, section 6.5).
 *
 * The paper's point about storage is that its DMA *rate* is high in
 * IOPS terms but bounded by the device (~900 K IOPS, ~3.2 GiB/s), so
 * DMA-API-based schemes — which DAMN deliberately leaves in place for
 * storage — keep up.  The model therefore needs exactly two ceilings
 * (IOPS and bytes/s), per-IO DMA through the IOMMU, and submission/
 * completion queue semantics.
 */

#ifndef DAMN_NVME_NVME_HH
#define DAMN_NVME_NVME_HH

#include "dma/device.hh"
#include "sim/sim_mutex.hh"

namespace damn::nvme {

/** Result of a driver-level command submission (with retry). */
struct NvmeCmdResult
{
    bool ok = false;
    bool aborted = false;        //!< device unplugged; no point retrying
    unsigned attempts = 0;       //!< total device-side submissions
    unsigned timeouts = 0;       //!< attempts that timed out
    sim::TimeNs completes = 0;   //!< success or final-failure time
    std::uint64_t bytesDone = 0; //!< bytes DMAed on the winning attempt
};

/** NVMe device: per-IO pacing against IOPS and bandwidth ceilings. */
class NvmeDevice : public dma::Device
{
  public:
    NvmeDevice(sim::Context &ctx, std::string name, iommu::Iommu &mmu,
               mem::PhysicalMemory &pm)
        : dma::Device(ctx, std::move(name), mmu, pm)
    {}

    /**
     * Device-side execution of one read IO: the device DMA-writes
     * @p bytes of block data to @p dma_addr.  Pacing: one slot of the
     * IOPS engine plus the media/bus bandwidth, plus host memory
     * bandwidth.
     *
     * @return DMA outcome; `completes` is the completion-queue entry
     *         time.
     */
    dma::DmaOutcome
    readIo(sim::TimeNs now, iommu::Iova dma_addr, std::uint32_t bytes)
    {
        if (ctx_.faults.shouldFail(sim::FaultSite::NvmeCmd)) {
            // The command is lost in flight: no DMA, no completion
            // entry.  The driver notices only via its timeout.
            ++cmdDrops_;
            ctx_.stats.add(sim::Ctr::NvmeCmdDrops);
            dma::DmaOutcome out;
            out.fault = true;
            out.completes = now;
            return out;
        }
        dma::DmaOutcome out = dmaTouch(now, dma_addr, bytes, true);
        const auto &c = ctx_.cost;
        const sim::TimeNs iop_ns = sim::TimeNs(1e9 / c.nvmeMaxIops);
        const sim::TimeNs bw_ns =
            sim::TimeNs(double(bytes) / c.nvmeMaxBytesPerNs);
        const sim::TimeNs iops_done = iopsEngine_.submit(now, iop_ns);
        const sim::TimeNs media_done = media_.submit(now, bw_ns);
        out.completes = std::max({out.completes, iops_done, media_done});
        ++ios_;
        return out;
    }

    /**
     * Driver-level submission: issue the read, and on a faulted or
     * lost command wait out the timeout and retry, up to the cost
     * model's bounded retry budget.  Surfaces `ok = false` after the
     * budget instead of hanging forever.
     */
    NvmeCmdResult
    submitRead(sim::TimeNs now, iommu::Iova dma_addr,
               std::uint32_t bytes)
    {
        const auto &c = ctx_.cost;
        NvmeCmdResult r;
        sim::TimeNs t = now;
        for (unsigned attempt = 0; attempt <= c.nvmeMaxRetries;
             ++attempt) {
            if (!attached()) {
                // Surprise unplug: the driver sees the controller gone
                // and aborts instead of burning the timeout budget.
                r.aborted = true;
                ++abortedCmds_;
                ctx_.stats.add(sim::Ctr::NvmeAbortedCmds);
                ctx_.tracer.instant(0, sim::TraceCat::Nvme,
                                    "nvme.abort", t, 0, attempt);
                r.completes = t;
                return r;
            }
            ++r.attempts;
            // Device-side events; core 0's ring by convention.
            ctx_.tracer.instant(0, sim::TraceCat::Nvme, "nvme.submit",
                                t, bytes, attempt);
            const dma::DmaOutcome out = readIo(t, dma_addr, bytes);
            if (!out.fault) {
                r.ok = true;
                r.completes = out.completes;
                r.bytesDone = out.bytesDone;
                ctx_.tracer.instant(0, sim::TraceCat::Nvme,
                                    "nvme.complete", r.completes,
                                    r.bytesDone, attempt);
                return r;
            }
            if (!attached()) {
                // The fault *was* the unplug; abort without waiting.
                r.aborted = true;
                ++abortedCmds_;
                ctx_.stats.add(sim::Ctr::NvmeAbortedCmds);
                ctx_.tracer.instant(0, sim::TraceCat::Nvme,
                                    "nvme.abort", out.completes, 0,
                                    attempt);
                r.completes = out.completes;
                return r;
            }
            ++r.timeouts;
            ++timeouts_;
            ctx_.tracer.instant(0, sim::TraceCat::Nvme, "nvme.timeout",
                                out.completes, 0, attempt);
            t = out.completes + c.nvmeTimeoutNs;
        }
        ++failedCmds_;
        ctx_.stats.add(sim::Ctr::NvmeFailedCmds);
        ctx_.tracer.instant(0, sim::TraceCat::Nvme, "nvme.fail", t, 0,
                            r.attempts);
        r.completes = t;
        return r;
    }

    std::uint64_t completedIos() const { return ios_; }
    std::uint64_t cmdDrops() const { return cmdDrops_; }
    std::uint64_t timeouts() const { return timeouts_; }
    std::uint64_t failedCmds() const { return failedCmds_; }
    std::uint64_t abortedCmds() const { return abortedCmds_; }

  private:
    sim::SerialResource iopsEngine_;
    sim::SerialResource media_;
    std::uint64_t ios_ = 0;
    std::uint64_t cmdDrops_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t failedCmds_ = 0;
    std::uint64_t abortedCmds_ = 0;
};

} // namespace damn::nvme

#endif // DAMN_NVME_NVME_HH
