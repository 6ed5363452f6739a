/**
 * @file
 * fio NVMe workload (paper section 6.5 / figure 11).
 *
 * 12 fio jobs perform asynchronous direct sequential reads (O_DIRECT,
 * so the page cache is bypassed and every read is a device DMA into a
 * freshly mapped buffer).  Sweeps the block size; the NVMe device's
 * IOPS / bandwidth ceilings bind everywhere, so the question is only
 * how much CPU each protection scheme burns per IO.
 */

#ifndef DAMN_WORK_FIO_HH
#define DAMN_WORK_FIO_HH

#include <memory>

#include "net/system.hh"
#include "nvme/nvme.hh"
#include "workloads/run_window.hh"

namespace damn::work {

struct FioOpts
{
    std::uint32_t blockBytes = 512;
    RunWindow runWindow{20 * sim::kNsPerMs, 150 * sim::kNsPerMs};
    /** Scheme, backend and trace recording; runFio sets the machine
     *  shape to the NVMe testbed's. */
    net::SystemParams sysParams{};
};

/** Uniform result: opsPerSec is the IO completion rate. */
struct FioResult
{
    CommonResult common;
    double throughputGBps = 0.0;
    /** IOs that failed (retry budget / resources exhausted). */
    std::uint64_t failedIos = 0;

    double kiops() const { return common.opsPerSec / 1e3; }
};

/** Run the figure-11 experiment for one scheme + block size. */
FioResult runFio(const FioOpts &opts);

} // namespace damn::work

#endif // DAMN_WORK_FIO_HH
