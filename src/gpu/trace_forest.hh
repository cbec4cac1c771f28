/**
 * @file
 * A trace forest: every TB of a workload's host waves and, recursively,
 * of every launch those TBs make, built once. A TB's trace depends only
 * on its program, index and launch shape, never on when or where it
 * runs, so runs that differ only in TB policy or DynPar model can all
 * replay one forest instead of rebuilding every TB at dispatch.
 */

#ifndef LAPERM_GPU_TRACE_FOREST_HH
#define LAPERM_GPU_TRACE_FOREST_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "kernels/isa.hh"
#include "kernels/warp_trace.hh"

namespace laperm {

/** Immutable once constructed, so concurrent runs may share it. */
class TraceForest
{
  public:
    /** Build the traces of @p waves and of everything they launch. */
    explicit TraceForest(const std::vector<LaunchRequest> &waves);

    TraceForest(const TraceForest &) = delete;
    TraceForest &operator=(const TraceForest &) = delete;

    /**
     * The host waves, each carrying its launch's traces: what a run
     * launches instead of the workload's own waves.
     */
    const std::vector<LaunchRequest> &waves() const { return waves_; }

    /** TBs the construction built, each exactly once. */
    std::uint64_t tbsBuilt() const { return tbsBuilt_; }
    /** Thread ops the programs emitted while building them. */
    std::uint64_t threadOps() const { return threadOps_; }

  private:
    std::vector<LaunchRequest> waves_;
    /** One node per launch; a deque, so nodes never move. */
    std::deque<LaunchTraces> launches_;
    std::uint64_t tbsBuilt_ = 0;
    std::uint64_t threadOps_ = 0;
};

} // namespace laperm

#endif // LAPERM_GPU_TRACE_FOREST_HH
