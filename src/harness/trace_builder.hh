/**
 * @file
 * A builder thread that builds trace forests ahead of their dispatch
 * (TraceForest::buildAhead), so simulation threads mostly replay
 * traces they find ready: a private run's forest, or a sweep's shared
 * forests in the order its cells start. The engine knows no threads;
 * this is the one place that gives buildAhead() one.
 */

#ifndef LAPERM_HARNESS_TRACE_BUILDER_HH
#define LAPERM_HARNESS_TRACE_BUILDER_HH

#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gpu/trace_forest.hh"

namespace laperm {

/**
 * Runs buildAhead() over a sequence of forests on its own thread, from
 * construction until finish() or destruction, both of which stop and
 * join it, so no exit path of a run or a sweep (a FatalError thrown by
 * the simulation included) leaves a joinable thread behind. The builder
 * starts each forest after the first only once the one before it has
 * started a run (TraceForest::awaitStart), so it holds at most one
 * forest that no run has started. It holds each forest until it is done
 * with it. The builder runs under FatalThrows and captures what it
 * throws; finish() raises it on the calling thread.
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
     * Stop and join the builder, then raise on this thread what it
     * threw: a FatalError through laperm_fatal, so this thread's
     * FatalThrows scope decides between throwing and exiting.
     */
    void finish();

  private:
    void run(std::size_t budget);
    void join();

    std::mutex mu_;
    bool stopping_ = false; ///< guarded by mu_
    /** The forests it is not done with; guarded by mu_. */
    std::vector<std::shared_ptr<TraceForest>> forests_;
    std::exception_ptr error_;
    std::thread thread_;
};

} // namespace laperm

#endif // LAPERM_HARNESS_TRACE_BUILDER_HH
