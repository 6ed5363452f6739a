/**
 * @file
 * memcached + memslap workload (paper section 6.1 / figure 7).
 *
 * 28 single-threaded memcached instances (one per core) serve a
 * 50%/50% GET/SET mix of 512 KiB keys+values driven by memslap clients
 * on the traffic-generator machines.  A SET moves 512 KiB *into* the
 * server (RX-heavy); a GET moves 512 KiB *out* (TX-heavy); each op
 * additionally costs hashing + slab bookkeeping CPU.
 */

#ifndef DAMN_WORK_MEMCACHED_HH
#define DAMN_WORK_MEMCACHED_HH

#include "workloads/netperf.hh"

namespace damn::work {

struct MemcachedOpts
{
    unsigned instances = 28;
    RunWindow runWindow{};
    net::SystemParams sysParams{};  //!< scheme, backend, trace, shape
};

/** Uniform result: opsPerSec is the memcached TPS. */
struct MemcachedResult
{
    CommonResult common;
};

/** Run the figure-7 experiment for one scheme. */
MemcachedResult runMemcached(const MemcachedOpts &opts);

} // namespace damn::work

#endif // DAMN_WORK_MEMCACHED_HH
