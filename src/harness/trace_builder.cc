#include "harness/trace_builder.hh"

#include <utility>

namespace laperm {

TraceBuilder::TraceBuilder(TraceForest &forest, std::size_t budget)
    // An owner-less pointer: the caller's forest outlives the builder.
    : TraceBuilder({std::shared_ptr<TraceForest>(
                       std::shared_ptr<TraceForest>(), &forest)},
                   budget)
{
}

TraceBuilder::TraceBuilder(std::vector<std::shared_ptr<TraceForest>> forests,
                           std::size_t budget)
    : forests_(std::move(forests))
{
    pool_.submit([this, budget] { run(budget); });
}

TraceBuilder::~TraceBuilder() { stop(); }

void
TraceBuilder::run(std::size_t budget)
{
    for (std::size_t i = 0; i < forests_.size(); ++i) {
        std::shared_ptr<TraceForest> forest;
        {
            const std::lock_guard<std::mutex> lock(mu_);
            if (stopping_)
                return;
            forest = forests_[i];
        }
        forest->buildAhead(budget);
        // The next forest waits for a run of this one, so at most one
        // forest that no run has started is being built.
        if (i + 1 < forests_.size() && !forest->awaitStart())
            return;
        const std::lock_guard<std::mutex> lock(mu_);
        forests_[i].reset();
    }
}

void
TraceBuilder::stop()
{
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (const std::shared_ptr<TraceForest> &forest : forests_) {
        if (forest)
            forest->stop();
    }
}

void
TraceBuilder::finish()
{
    stop();
    pool_.wait();
}

} // namespace laperm
