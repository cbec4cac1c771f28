/**
 * @file
 * A builder that builds trace forests ahead of their dispatch
 * (TraceForest::buildAhead) on a worker of its own, so simulation
 * threads mostly replay traces they find ready: a private run's
 * forest, or a sweep's shared forests in the order its cells start.
 * The engine knows no threads; this is the one place that gives
 * buildAhead() one.
 */

#ifndef LAPERM_HARNESS_TRACE_BUILDER_HH
#define LAPERM_HARNESS_TRACE_BUILDER_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "gpu/trace_forest.hh"
#include "harness/thread_pool.hh"

namespace laperm {

/**
 * Runs buildAhead() over a sequence of forests as the one job of a
 * one-worker ThreadPool, from construction until finish() or
 * destruction, both of which stop the forests and wait for the job, so
 * no exit path of a run or a sweep (a FatalError thrown by the
 * simulation included) leaves the builder running. The builder starts
 * each forest after the first only once the one before it has started
 * a run (TraceForest::awaitStart), so it holds at most one forest that
 * no run has started. It holds each forest until it is done with it.
 * A fatal in the builder comes back from finish(), as a pool job's
 * does from wait(); the simulation thread meets the same error when
 * it builds the node itself.
 */
class TraceBuilder
{
  public:
    /** Build @p forest, a private run's, which must outlive the builder. */
    explicit TraceBuilder(
        TraceForest &forest,
        std::size_t budget = TraceForest::kBuildAheadBytes);
    /** Build @p forests in order, sharing their ownership. */
    explicit TraceBuilder(
        std::vector<std::shared_ptr<TraceForest>> forests,
        std::size_t budget = TraceForest::kBuildAheadBytes);
    /** Stops and joins; drops an error finish() did not raise. */
    ~TraceBuilder();

    TraceBuilder(const TraceBuilder &) = delete;
    TraceBuilder &operator=(const TraceBuilder &) = delete;

    /**
     * Stop the builder, wait for it, then raise on this thread what it
     * threw (ThreadPool::wait).
     */
    void finish();

  private:
    void run(std::size_t budget);
    void stop();

    std::mutex mu_;
    bool stopping_ = false; ///< guarded by mu_
    /** The forests it is not done with; guarded by mu_. */
    std::vector<std::shared_ptr<TraceForest>> forests_;
    /** Declared last: its worker is joined before the forests go. */
    ThreadPool pool_{1};
};

} // namespace laperm

#endif // LAPERM_HARNESS_TRACE_BUILDER_HH
