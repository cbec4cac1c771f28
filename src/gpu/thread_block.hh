/**
 * @file
 * Runtime state of a thread block resident on an SMX, and construction
 * of its warps from a kernel program.
 */

#ifndef LAPERM_GPU_THREAD_BLOCK_HH
#define LAPERM_GPU_THREAD_BLOCK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "gpu/warp.hh"
#include "kernels/kernel_program.hh"
#include "kernels/thread_ctx.hh"

namespace laperm {

struct KernelInstance;

/** A resident thread block. */
class ThreadBlock
{
  public:
    TbUid uid = 0;
    KernelInstance *kernel = nullptr;
    /** blockIdx within its launch (CDP grid / DTBL group / host grid). */
    std::uint32_t tbIndex = 0;
    SmxId smx = kNoSmx;
    Cycle dispatchCycle = 0;

    /** Scheduling priority inherited from the dispatch unit. */
    std::uint32_t priority = 0;
    /** Direct parent TB (kNoTb for host-launched kernels). */
    TbUid directParent = kNoTb;
    /** True for dynamically launched (child) TBs. */
    bool isDynamic = false;
    /** Owning tenant stream, inherited from the dispatch unit. */
    std::uint32_t tenant = 0;

    std::uint32_t numThreads = 0;
    std::uint32_t regs = 0; ///< registers reserved on the SMX
    std::uint32_t smem = 0; ///< shared memory reserved on the SMX

    /** The launch whose traces its warps replay. */
    LaunchTraces *launch = nullptr;

    std::vector<Warp> warps;
    /**
     * The arrays of a build (buildThreadBlockInto): warps[w] views
     * traces[w]. Never shrinks, so a block rebuilt again and again
     * reuses every warp's buffers whatever the size of its TBs.
     */
    std::vector<WarpTrace> traces;
    std::uint32_t warpsAtBarrier = 0;
    std::uint32_t warpsDone = 0;

    bool allWarpsDone() const { return warpsDone == warps.size(); }
};

/**
 * Build TB @p tb_index of a launch of @p num_tbs TBs into @p tb: run
 * @p program for each thread and zip each warp's threads into its
 * WarpTrace in tb.traces, which the warp then views. @p tb is typically
 * reused from build to build (a trace forest's builder, a benchmark),
 * and so is @p thread_scratch, one warp's worth of thread contexts: each
 * warp's threads are emitted and zipped before the next warp's.
 * Every ThreadBlock and Warp field is reinitialized, so a reused
 * block is indistinguishable from a freshly allocated one.
 *
 * @return the thread ops the program emitted.
 */
std::size_t buildThreadBlockInto(ThreadBlock &tb,
                                 const KernelProgram &program,
                                 std::uint32_t tb_index,
                                 std::uint32_t threads_per_tb,
                                 std::uint32_t num_tbs,
                                 std::vector<ThreadCtx> &thread_scratch);

/**
 * Reinitialize @p tb as TB @p tb_index of a launch whose TBs were built
 * in advance: its warps view @p traces, and no program runs.
 * @p regs and @p smem are the TB's demand (the program's, as a build
 * would compute it).
 */
void viewThreadBlockInto(ThreadBlock &tb, const LaunchTraces &traces,
                         std::uint32_t tb_index,
                         std::uint32_t threads_per_tb, std::uint32_t regs,
                         std::uint32_t smem);

} // namespace laperm

#endif // LAPERM_GPU_THREAD_BLOCK_HH
