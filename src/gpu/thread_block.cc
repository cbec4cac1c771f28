#include "gpu/thread_block.hh"

#include <algorithm>
#include <span>

#include "common/log.hh"
#include "kernels/thread_ctx.hh"
#include "kernels/warp_trace.hh"

namespace laperm {

namespace {

/**
 * Every ThreadBlock field set for TB @p tb_index, and one blank warp
 * per 32 threads (each knowing its thread count and its TB) for the
 * caller to point at its ops.
 */
void
resetThreadBlock(ThreadBlock &tb, std::uint32_t tb_index,
                 std::uint32_t threads_per_tb, std::uint32_t regs,
                 std::uint32_t smem)
{
    laperm_assert(threads_per_tb > 0, "empty TB");

    tb.uid = 0;
    tb.kernel = nullptr;
    tb.launch = nullptr;
    tb.tbIndex = tb_index;
    tb.smx = kNoSmx;
    tb.dispatchCycle = 0;
    tb.priority = 0;
    tb.directParent = kNoTb;
    tb.isDynamic = false;
    tb.tenant = 0;
    tb.numThreads = threads_per_tb;
    tb.regs = regs;
    tb.smem = smem;
    tb.warpsAtBarrier = 0;
    tb.warpsDone = 0;

    const std::uint32_t num_warps =
        (threads_per_tb + kWarpSize - 1) / kWarpSize;
    tb.warps.resize(num_warps);
    for (std::uint32_t w = 0; w < num_warps; ++w) {
        Warp &warp = tb.warps[w];
        warp = Warp();
        warp.numThreads = std::min(kWarpSize, threads_per_tb - w * kWarpSize);
        warp.tb = &tb;
    }
}

} // namespace

std::size_t
buildThreadBlockInto(ThreadBlock &tb, const KernelProgram &program,
                     std::uint32_t tb_index, std::uint32_t threads_per_tb,
                     std::uint32_t num_tbs,
                     std::vector<ThreadCtx> &thread_scratch)
{
    resetThreadBlock(tb, tb_index, threads_per_tb,
                     program.regsPerThread() * threads_per_tb,
                     program.smemPerTb());
    if (tb.traces.size() < tb.warps.size())
        tb.traces.resize(tb.warps.size());

    std::size_t thread_ops = 0;
    for (std::size_t w = 0; w < tb.warps.size(); ++w) {
        Warp &warp = tb.warps[w];
        const auto first = static_cast<std::uint32_t>(w) * kWarpSize;
        // Emit this warp's threads (still in thread order across the
        // TB), then zip them while their traces are hot.
        for (std::uint32_t l = 0; l < warp.numThreads; ++l) {
            if (l < thread_scratch.size())
                thread_scratch[l].reset(tb_index, first + l,
                                        threads_per_tb, num_tbs);
            else
                thread_scratch.emplace_back(tb_index, first + l,
                                            threads_per_tb, num_tbs);
            program.emitThread(thread_scratch[l]);
            thread_ops += thread_scratch[l].ops().size();
        }
        zipWarp(tb.traces[w],
                std::span(thread_scratch).first(warp.numThreads));
        warp.ops = tb.traces[w].ops;
    }
    return thread_ops;
}

void
viewThreadBlockInto(ThreadBlock &tb, const LaunchTraces &traces,
                    std::uint32_t tb_index, std::uint32_t threads_per_tb,
                    std::uint32_t regs, std::uint32_t smem)
{
    resetThreadBlock(tb, tb_index, threads_per_tb, regs, smem);
    laperm_assert(tb.warps.size() == traces.warpsPerTb,
                  "TB of %u threads viewing %u-warp traces",
                  threads_per_tb, traces.warpsPerTb);
    for (std::uint32_t w = 0; w < traces.warpsPerTb; ++w)
        tb.warps[w].ops = traces.warp(tb_index, w);
}

} // namespace laperm
