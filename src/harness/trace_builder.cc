#include "harness/trace_builder.hh"

#include <utility>

#include "common/log.hh"

namespace laperm {

TraceBuilder::TraceBuilder(TraceForest &forest, std::size_t budget)
    : forest_(forest), thread_([this, budget] {
          try {
              // A fatal here must not end the process: the simulation
              // thread meets the same error when it builds the node.
              const FatalThrows fatal_throws;
              forest_.buildAhead(budget);
          } catch (...) {
              error_ = std::current_exception();
          }
      })
{
}

TraceBuilder::~TraceBuilder() { join(); }

void
TraceBuilder::join()
{
    if (!thread_.joinable())
        return;
    forest_.stop();
    thread_.join();
}

void
TraceBuilder::finish()
{
    join();
    if (!error_)
        return;
    const std::exception_ptr error = std::exchange(error_, nullptr);
    try {
        std::rethrow_exception(error);
    } catch (const FatalError &e) {
        laperm_fatal("%s", e.what());
    }
}

} // namespace laperm
