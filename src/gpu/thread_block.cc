#include "gpu/thread_block.hh"

#include <algorithm>
#include <span>

#include "common/log.hh"
#include "kernels/thread_ctx.hh"
#include "kernels/warp_trace.hh"

namespace laperm {

void
buildThreadBlockInto(ThreadBlock &tb, const KernelProgram &program,
                     std::uint32_t tb_index, std::uint32_t threads_per_tb,
                     std::uint32_t num_tbs,
                     std::vector<ThreadCtx> &thread_scratch)
{
    laperm_assert(threads_per_tb > 0, "empty TB");

    tb.uid = 0;
    tb.kernel = nullptr;
    tb.tbIndex = tb_index;
    tb.smx = kNoSmx;
    tb.dispatchCycle = 0;
    tb.priority = 0;
    tb.directParent = kNoTb;
    tb.isDynamic = false;
    tb.tenant = 0;
    tb.numThreads = threads_per_tb;
    tb.regs = program.regsPerThread() * threads_per_tb;
    tb.smem = program.smemPerTb();
    tb.warpsAtBarrier = 0;
    tb.warpsDone = 0;

    const std::uint32_t num_warps =
        (threads_per_tb + kWarpSize - 1) / kWarpSize;
    // Resize through the spare pool: dropping a warp would free its op
    // and line buffers, and a new one would allocate them again.
    while (tb.warps.size() > num_warps) {
        tb.spareWarps.push_back(std::move(tb.warps.back()));
        tb.warps.pop_back();
    }
    tb.warps.reserve(num_warps);
    while (tb.warps.size() < num_warps) {
        if (tb.spareWarps.empty()) {
            tb.warps.emplace_back();
        } else {
            tb.warps.push_back(std::move(tb.spareWarps.back()));
            tb.spareWarps.pop_back();
        }
    }
    for (std::uint32_t w = 0; w < num_warps; ++w) {
        const std::uint32_t first = w * kWarpSize;
        const std::uint32_t count =
            std::min(kWarpSize, threads_per_tb - first);
        // Emit this warp's threads (still in thread order across the
        // TB), then zip them while their traces are hot.
        for (std::uint32_t l = 0; l < count; ++l) {
            if (l < thread_scratch.size())
                thread_scratch[l].reset(tb_index, first + l,
                                        threads_per_tb, num_tbs);
            else
                thread_scratch.emplace_back(tb_index, first + l,
                                            threads_per_tb, num_tbs);
            program.emitThread(thread_scratch[l]);
        }
        Warp &warp = tb.warps[w];
        zipWarp(warp, std::span(thread_scratch).first(count));
        warp.pc = 0;
        warp.readyAt = 0;
        warp.atBarrier = false;
        warp.done = false;
        warp.loc = WarpLoc::None;
        warp.readyIx = 0;
        warp.age = 0;
        warp.lastIssue = 0;
        warp.slot = 0;
        warp.numThreads = count;
        warp.tb = &tb;
    }
}

std::unique_ptr<ThreadBlock>
buildThreadBlock(const KernelProgram &program, std::uint32_t tb_index,
                 std::uint32_t threads_per_tb, std::uint32_t num_tbs)
{
    auto tb = std::make_unique<ThreadBlock>();
    std::vector<ThreadCtx> threads;
    buildThreadBlockInto(*tb, program, tb_index, threads_per_tb, num_tbs,
                         threads);
    return tb;
}

} // namespace laperm
