/**
 * @file
 * The device API visible to kernel programs while emitting one thread's
 * op trace: loads, stores, compute, barriers and device launches.
 */

#ifndef LAPERM_KERNELS_THREAD_CTX_HH
#define LAPERM_KERNELS_THREAD_CTX_HH

#include <cstdint>
#include <vector>

#include "kernels/isa.hh"

namespace laperm {

/**
 * Trace-building context for a single thread. A KernelProgram's
 * emitThread() calls these methods in program order.
 */
class ThreadCtx
{
  public:
    ThreadCtx(std::uint32_t tb_index, std::uint32_t thread_index,
              std::uint32_t threads_per_tb, std::uint32_t num_tbs);

    /**
     * Reinitialize for a new thread, keeping the trace buffers'
     * capacity (arena reuse in the TB build hot path).
     */
    void reset(std::uint32_t tb_index, std::uint32_t thread_index,
               std::uint32_t threads_per_tb, std::uint32_t num_tbs);

    /** Index of this thread's TB within its launch (blockIdx.x). */
    std::uint32_t tbIndex() const { return tbIndex_; }
    /** Index of this thread within its TB (threadIdx.x). */
    std::uint32_t threadIndex() const { return threadIndex_; }
    /** Threads per TB (blockDim.x). */
    std::uint32_t threadsPerTb() const { return threadsPerTb_; }
    /** TBs in this launch (gridDim.x). */
    std::uint32_t numTbs() const { return numTbs_; }
    /** Flattened global thread index. */
    std::uint32_t globalThreadIndex() const
    {
        return tbIndex_ * threadsPerTb_ + threadIndex_;
    }

    /** Load the line(s) covering [addr, addr+bytes). */
    void ld(Addr addr, std::uint32_t bytes = 4);
    /** Store to the line(s) covering [addr, addr+bytes). */
    void st(Addr addr, std::uint32_t bytes = 4);
    /** Compute for @p cycles cycles. */
    void alu(std::uint32_t cycles = 4);
    /** TB-wide barrier; every thread of the TB must emit it. */
    void bar();
    /** Launch a child kernel (CDP) / TB group (DTBL). */
    void launch(LaunchRequest req);

    const std::vector<ThreadOp> &ops() const { return ops_; }
    const std::vector<LaunchRequest> &launches() const { return launches_; }
    /** Mutable requests: the warp zip moves them out (zipWarp). */
    std::vector<LaunchRequest> &launches() { return launches_; }

  private:
    std::uint32_t tbIndex_;
    std::uint32_t threadIndex_;
    std::uint32_t threadsPerTb_;
    std::uint32_t numTbs_;
    std::vector<ThreadOp> ops_;
    std::vector<LaunchRequest> launches_;
};

// The emitters below run once per thread op; defining them here lets
// every kernel's emitThread inline them.

inline void
ThreadCtx::ld(Addr addr, std::uint32_t bytes)
{
    Addr first = lineAddr(addr);
    Addr last = lineAddr(addr + (bytes ? bytes - 1 : 0));
    for (Addr line = first; line <= last; line += kLineBytes)
        ops_.push_back({.addr = line, .kind = OpKind::Load});
}

inline void
ThreadCtx::st(Addr addr, std::uint32_t bytes)
{
    Addr first = lineAddr(addr);
    Addr last = lineAddr(addr + (bytes ? bytes - 1 : 0));
    for (Addr line = first; line <= last; line += kLineBytes)
        ops_.push_back({.addr = line, .kind = OpKind::Store});
}

inline void
ThreadCtx::alu(std::uint32_t cycles)
{
    if (cycles == 0)
        return;
    // Merge back-to-back compute into one op to keep traces compact.
    if (!ops_.empty() && ops_.back().kind == OpKind::Alu) {
        ops_.back().aluCycles += cycles;
        return;
    }
    ops_.push_back({.aluCycles = cycles, .kind = OpKind::Alu});
}

inline void
ThreadCtx::bar()
{
    ops_.push_back({.kind = OpKind::Bar});
}

} // namespace laperm

#endif // LAPERM_KERNELS_THREAD_CTX_HH
