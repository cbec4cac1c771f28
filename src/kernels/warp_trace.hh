/**
 * @file
 * SIMT front end: zips per-thread op traces into warp instructions with
 * kind-grouped lockstep (divergent op kinds serialize) and coalesces
 * memory ops into unique 128-byte line transactions.
 */

#ifndef LAPERM_KERNELS_WARP_TRACE_HH
#define LAPERM_KERNELS_WARP_TRACE_HH

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "kernels/isa.hh"
#include "kernels/thread_ctx.hh"

namespace laperm {

/**
 * One warp instruction. Its lines and launches are views into the
 * WarpTrace that built it, valid while that trace lives and is not
 * rebuilt, or into the LaunchTraces that holds it.
 */
struct WarpOp
{
    OpKind kind;
    std::uint32_t activeLanes = 0; ///< threads participating
    std::uint32_t aluCycles = 0;   ///< Alu: max over active lanes
    /** Load/Store: coalesced unique lines, ascending. */
    std::span<const Addr> lines;
    /** Launch: one per active lane, in lane order. */
    std::span<const LaunchRequest> launches;
};

/**
 * One warp's instruction stream plus the arrays its ops' spans point
 * into. Move-only: moving keeps the arrays' buffers, so the spans stay
 * valid, while a copy's spans would still point into the original.
 */
struct WarpTrace
{
    std::vector<WarpOp> ops;
    std::vector<Addr> lines;
    std::vector<LaunchRequest> launches;

    WarpTrace() = default;
    WarpTrace(WarpTrace &&) = default;
    WarpTrace &operator=(WarpTrace &&) = default;
    WarpTrace(const WarpTrace &) = delete;
    WarpTrace &operator=(const WarpTrace &) = delete;
};

/**
 * The TBs of one launch: one node of a trace forest
 * (gpu/trace_forest.hh). A node is created unbuilt, carrying the shape
 * its build needs, because its parent's arrays may be freed before it
 * is built. One build fills its arrays, creates one unbuilt child node
 * per launch its TBs make, and publishes it Ready with release
 * semantics; readers acquire that state before they touch the arrays.
 *
 * Each TB has the same number of warps, ceil(threadsPerTb / 32), so
 * warp w of TB t is warp t * warpsPerTb + w. Its ops are
 * ops[warpOps[i], warpOps[i + 1]), and their lines and launches are
 * spans into the lines and launches arrays here; each of those
 * launches points at its child node in children. A Ready node is
 * immutable, so concurrent runs may share it; a private run frees its
 * arrays once its last TB retires (Retired), but never its children.
 */
struct LaunchTraces
{
    enum class State : std::uint8_t
    {
        Unbuilt,  ///< shape only; claimable by any thread
        Building, ///< claimed: one thread is building it
        Ready,    ///< arrays and children published
        Retired,  ///< arrays freed; children still live
    };

    /** The launch's shape: what a build needs. */
    std::shared_ptr<const KernelProgram> program;
    std::uint32_t numTbs = 0;
    std::uint32_t threadsPerTb = 0;

    std::atomic<State> state{State::Unbuilt};

    // Written by the build before it publishes Ready.
    /** Built ahead of its dispatch: its bytes count against a budget. */
    bool builtAhead = false;
    std::uint32_t warpsPerTb = 0;
    std::vector<WarpOp> ops;
    std::vector<Addr> lines;
    std::vector<LaunchRequest> launches;
    /** Per-warp offsets into ops, one past the last warp included. */
    std::vector<std::uint32_t> warpOps;
    /** One node per entry of launches, in order. */
    std::unique_ptr<LaunchTraces[]> children;
    std::uint32_t numChildren = 0;

    /** TBs not yet retired, counted down by the private run only. */
    std::uint32_t tbsLeft = 0;
    /** Next in the forest's list of retired nodes to free. */
    LaunchTraces *nextRetired = nullptr;

    /** Whether the arrays are published (acquires them if so). */
    bool ready() const
    {
        return state.load(std::memory_order_acquire) == State::Ready;
    }

    /** The ops of warp @p w of TB @p tb. */
    std::span<const WarpOp> warp(std::uint32_t tb, std::uint32_t w) const
    {
        const std::size_t i = std::size_t(tb) * warpsPerTb + w;
        return std::span(ops).subspan(warpOps[i],
                                      warpOps[i + 1] - warpOps[i]);
    }
};

/**
 * Rebuild @p out from the traces of one warp's threads (1 to 32
 * @p lanes), reusing the capacity of its arrays. Each lane's launch
 * requests are moved into out.launches, so the lanes' launches() are
 * left moved-from.
 *
 * At each step the earliest lane with remaining ops leads; all lanes
 * whose next op has the same kind execute together (the active mask);
 * other kinds execute in later steps — a simple serialization model of
 * SIMT branch divergence. A barrier issues only once every live lane
 * has reached it.
 */
void zipWarp(WarpTrace &out, std::span<ThreadCtx> lanes);

} // namespace laperm

#endif // LAPERM_KERNELS_WARP_TRACE_HH
