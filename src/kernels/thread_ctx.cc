#include "kernels/thread_ctx.hh"

#include "common/log.hh"

namespace laperm {

ThreadCtx::ThreadCtx(std::uint32_t tb_index, std::uint32_t thread_index,
                     std::uint32_t threads_per_tb, std::uint32_t num_tbs)
    : tbIndex_(tb_index), threadIndex_(thread_index),
      threadsPerTb_(threads_per_tb), numTbs_(num_tbs)
{
}

void
ThreadCtx::reset(std::uint32_t tb_index, std::uint32_t thread_index,
                 std::uint32_t threads_per_tb, std::uint32_t num_tbs)
{
    tbIndex_ = tb_index;
    threadIndex_ = thread_index;
    threadsPerTb_ = threads_per_tb;
    numTbs_ = num_tbs;
    ops_.clear();
    launches_.clear();
}

void
ThreadCtx::launch(LaunchRequest req)
{
    laperm_assert(req.program != nullptr, "launch without a program");
    laperm_assert(req.numTbs > 0 && req.threadsPerTb > 0,
                  "degenerate launch %ux%u", req.numTbs, req.threadsPerTb);
    launches_.push_back(std::move(req));
    ops_.push_back({.kind = OpKind::Launch});
}

} // namespace laperm
