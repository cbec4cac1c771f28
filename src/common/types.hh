/**
 * @file
 * Fundamental scalar types and constants shared across the simulator.
 */

#ifndef LAPERM_COMMON_TYPES_HH
#define LAPERM_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace laperm {

/** Simulation time in SMX-clock cycles. */
using Cycle = std::uint64_t;

/** A 64-bit simulated global-memory address. */
using Addr = std::uint64_t;

/** Monotonically increasing identifier of a kernel instance (grid). */
using KernelId = std::uint32_t;

/** Globally unique thread-block identifier (never reused). */
using TbUid = std::uint64_t;

/** Index of an SMX on the device. */
using SmxId = std::uint32_t;

/** Sentinel for "no cycle" / "not scheduled yet". */
constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** Sentinel TB uid used for host-launched (parent-less) kernels. */
constexpr TbUid kNoTb = std::numeric_limits<TbUid>::max();

/** Sentinel SMX id. */
constexpr SmxId kNoSmx = std::numeric_limits<SmxId>::max();

/** Sentinel tenant id: no tenant (e.g. none gated). */
constexpr std::uint32_t kNoTenant = std::numeric_limits<std::uint32_t>::max();

/** SIMT width: threads per warp. */
constexpr std::uint32_t kWarpSize = 32;

/** Cache line (and memory transaction) size in bytes, per Table I. */
constexpr std::uint32_t kLineBytes = 128;

/** Round @p addr down to its 128-byte cache-line address. */
constexpr Addr
lineAddr(Addr addr)
{
    return addr & ~static_cast<Addr>(kLineBytes - 1);
}

} // namespace laperm

#endif // LAPERM_COMMON_TYPES_HH
