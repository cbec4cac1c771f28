/**
 * @file
 * Runtime state of one warp resident on an SMX.
 */

#ifndef LAPERM_GPU_WARP_HH
#define LAPERM_GPU_WARP_HH

#include <cstdint>
#include <span>

#include "common/types.hh"
#include "kernels/warp_trace.hh"

namespace laperm {

class ThreadBlock;

/** Which WarpScheduler structure currently holds a warp. */
enum class WarpLoc : std::uint8_t
{
    None,    ///< not filed (at a barrier, retired, or not yet added)
    Ready,   ///< in its slot's ready list (readyAt has passed)
    Pending, ///< in its slot's pending heap, keyed by readyAt
    Held,    ///< its slot's greedy warp, held beside the heap
};

/**
 * A warp: a view of its instruction stream plus scheduling state. A
 * dispatched TB's warps view their launch's node in a trace forest
 * (gpu/trace_forest.hh), which outlives their residency. Only the
 * callers of buildThreadBlockInto (the forest build, perfbench and
 * tests) point warps at the WarpTraces their own ThreadBlock keeps.
 * Either way moving a warp keeps its view valid. Move-only all the
 * same: the warp scheduler files warps by address, and a copy would be
 * a second warp with the same stream and state.
 */
class Warp
{
  public:
    Warp() = default;
    Warp(Warp &&) = default;
    Warp &operator=(Warp &&) = default;
    Warp(const Warp &) = delete;
    Warp &operator=(const Warp &) = delete;

    std::span<const WarpOp> ops;
    std::size_t pc = 0;

    /** Earliest cycle the next op may issue. */
    Cycle readyAt = 0;
    /** Waiting at a TB barrier (not schedulable until release). */
    bool atBarrier = false;
    /** All ops issued and drained; the warp has retired. */
    bool done = false;

    /** Which scheduler structure files this warp (see WarpScheduler). */
    WarpLoc loc = WarpLoc::None;
    /** Index into the ready list while loc == Ready (else unused). */
    std::uint32_t readyIx = 0;

    /** Global dispatch-order stamp; GTO "oldest" tie-break. */
    std::uint64_t age = 0;
    /** Last cycle this warp issued (LRR recency). */
    Cycle lastIssue = 0;
    /** Warp-scheduler slot this warp is pinned to. */
    std::uint32_t slot = 0;
    /** Threads alive in this warp. */
    std::uint32_t numThreads = 0;

    ThreadBlock *tb = nullptr;

    bool finishedOps() const { return pc >= ops.size(); }
};

} // namespace laperm

#endif // LAPERM_GPU_WARP_HH
