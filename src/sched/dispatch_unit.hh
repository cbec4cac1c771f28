/**
 * @file
 * A dispatch unit: the scheduler-visible handle on a contiguous range
 * of TBs awaiting dispatch. A host kernel is one unit; a CDP device
 * kernel is one unit; a DTBL TB group coalesced onto a KDU kernel is
 * one unit. This matches the paper's priority-queue entries (PC /
 * configuration / parameters / NextTB, 24 bytes each).
 */

#ifndef LAPERM_SCHED_DISPATCH_UNIT_HH
#define LAPERM_SCHED_DISPATCH_UNIT_HH

#include <cstdint>

#include "common/types.hh"
#include "kernels/kernel_program.hh"

namespace laperm {

struct KernelInstance;

/** Scheduler-visible record of a pending TB range. */
struct DispatchUnit
{
    KernelInstance *kernel = nullptr;
    /** The launch's node in a trace forest: what every TB replays. */
    LaunchTraces *traces = nullptr;

    /** First TB of this unit within the kernel's global TB pool. */
    std::uint32_t firstTb = 0;
    /** TBs in this unit (the launch's gridDim). */
    std::uint32_t count = 0;
    /** Next TB (relative) to dispatch; == count when exhausted. */
    std::uint32_t nextTb = 0;
    std::uint32_t threadsPerTb = 0;
    /**
     * Per-TB resource demand, hoisted from the program at unit
     * creation: fit probes run per unit x per SMX x per cycle and must
     * not pay two virtual calls each time.
     */
    std::uint32_t regsPerTb = 0;
    std::uint32_t smemPerTb = 0;

    /** Priority level: 0 = host kernel, children = parent + 1 (<= L). */
    std::uint32_t priority = 0;
    /** Owning tenant stream (inherited by device-launched children). */
    std::uint32_t tenant = 0;
    /** Direct parent TB uid (kNoTb for host kernels). */
    TbUid directParent = kNoTb;
    /** SMX that executed the direct parent (binding target). */
    SmxId boundSmx = kNoSmx;

    /** Not dispatchable before this cycle (launch latency, fetches). */
    Cycle readyAt = 0;
    /** Entry spilled to the global-memory overflow queue. */
    bool overflowed = false;
    /** FCFS sequence number within a priority level. */
    std::uint64_t seq = 0;

    bool exhausted() const { return nextTb >= count; }
    std::uint32_t remaining() const { return count - nextTb; }
};

} // namespace laperm

#endif // LAPERM_SCHED_DISPATCH_UNIT_HH
