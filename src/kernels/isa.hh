/**
 * @file
 * The op-trace "ISA" kernels are expressed in. A kernel program emits a
 * per-thread sequence of ops (compute, loads, stores, barriers, device
 * launches); the SIMT front end groups them into warp instructions.
 */

#ifndef LAPERM_KERNELS_ISA_HH
#define LAPERM_KERNELS_ISA_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"

namespace laperm {

class KernelProgram;
struct LaunchTraces;

/** Kinds of per-thread operations. */
enum class OpKind : std::uint8_t
{
    Alu,    ///< compute for N cycles
    Load,   ///< global-memory load
    Store,  ///< global-memory store
    Bar,    ///< TB-wide barrier (__syncthreads)
    Launch, ///< device-side kernel / TB-group launch
};

/**
 * One per-thread operation. A Launch op carries no index: its request
 * is the thread's next one in ThreadCtx::launches(), which holds them
 * in op order.
 */
struct ThreadOp
{
    Addr addr = 0;               ///< Load/Store: line address
    std::uint32_t aluCycles = 0; ///< Alu: busy cycles
    OpKind kind;
};

// Traces are the front end's largest buffers: keep an op at 16 bytes.
static_assert(sizeof(ThreadOp) == 16);

/**
 * A device-side launch request: the child grid (CDP) or TB group (DTBL).
 * The same request feeds both models; the launcher interprets it
 * according to the configured DynParModel.
 */
struct LaunchRequest
{
    std::shared_ptr<const KernelProgram> program;
    std::uint32_t numTbs = 1;
    std::uint32_t threadsPerTb = kWarpSize;
    /** Owning tenant stream (0 = the default single-tenant stream). */
    std::uint32_t tenant = 0;
    /**
     * The launch's node in a trace forest (gpu/trace_forest.hh) that
     * outlives the run. A host launch without one is adopted into the
     * Gpu's own forest; a device launch always has one.
     */
    LaunchTraces *traces = nullptr;
};

} // namespace laperm

#endif // LAPERM_KERNELS_ISA_HH
