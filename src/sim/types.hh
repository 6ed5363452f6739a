/**
 * @file
 * Fundamental simulation types shared by every module.
 */

#ifndef DAMN_SIM_TYPES_HH
#define DAMN_SIM_TYPES_HH

#include <cstdint>

namespace damn::sim {

/** Virtual time, in nanoseconds since simulation start. */
using TimeNs = std::uint64_t;

/** Identifier of a simulated core (0-based, dense). */
using CoreId = std::uint32_t;

/** Identifier of a NUMA domain. */
using NumaId = std::uint32_t;

/** Handy time-unit literals (virtual time). */
constexpr TimeNs kNsPerUs = 1000;
constexpr TimeNs kNsPerMs = 1000 * 1000;
constexpr TimeNs kNsPerSec = 1000ull * 1000 * 1000;

/** Convert gigabits/second to bytes/nanosecond. */
constexpr double
gbpsToBytesPerNs(double gbps)
{
    return gbps * 1e9 / 8.0 / 1e9;
}

/** Convert bytes/nanosecond to gigabits/second. */
constexpr double
bytesPerNsToGbps(double bpn)
{
    return bpn * 8.0;
}

/** Convert gigabytes/second (1e9 bytes) to bytes/nanosecond. */
constexpr double
gBpsToBytesPerNs(double gBps)
{
    return gBps;
}

} // namespace damn::sim

#endif // DAMN_SIM_TYPES_HH
