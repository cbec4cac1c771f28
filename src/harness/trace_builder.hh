/**
 * @file
 * A second thread that builds a private run's trace forest ahead of its
 * dispatch (TraceForest::buildAhead), so the simulation thread mostly
 * replays traces it finds ready. The engine knows no threads; this is
 * the one place that gives buildAhead() one.
 */

#ifndef LAPERM_HARNESS_TRACE_BUILDER_HH
#define LAPERM_HARNESS_TRACE_BUILDER_HH

#include <cstddef>
#include <exception>
#include <thread>

#include "gpu/trace_forest.hh"

namespace laperm {

/**
 * Runs @p forest.buildAhead() on its own thread from construction until
 * finish() or destruction, both of which stop and join it, so no exit
 * path of a run (a FatalError thrown by the simulation included) leaves
 * a joinable thread behind. The forest must outlive it. The builder
 * runs under FatalThrows and captures what it throws; finish() raises
 * it on the calling thread.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(
        TraceForest &forest,
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
    void join();

    TraceForest &forest_;
    std::exception_ptr error_;
    std::thread thread_;
};

} // namespace laperm

#endif // LAPERM_HARNESS_TRACE_BUILDER_HH
