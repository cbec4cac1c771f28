#include "gpu/kmu.hh"

#include <algorithm>

#include "common/log.hh"

namespace laperm {

void
Kmu::push(PendingLaunch launch)
{
    launch.seq = nextSeq_++;
    std::uint32_t slot;
    if (free_.empty()) {
        slot = static_cast<std::uint32_t>(store_.size());
        store_.push_back(std::move(launch));
    } else {
        slot = free_.back();
        free_.pop_back();
        store_[slot] = std::move(launch);
    }
    latent_.push({store_[slot].readyAt, store_[slot].seq, slot});
    ++count_;
}

void
Kmu::promote(Cycle now)
{
    while (!latent_.empty() && latent_.top().readyAt <= now) {
        const std::uint32_t slot = latent_.top().slot;
        latent_.pop();
        std::uint32_t level = store_[slot].priority;
        if (ready_.size() <= level)
            ready_.resize(level + 1);
        ready_[level].push_back(slot);
        ++readyCount_;
    }
}

PendingLaunch *
Kmu::peekReady(Cycle now, bool priority_order)
{
    promote(now);
    if (readyCount_ == 0)
        return nullptr;
    if (priority_order) {
        for (std::size_t level = ready_.size(); level-- > 0;) {
            if (!ready_[level].empty())
                return &store_[ready_[level].front()];
        }
        return nullptr;
    }
    // FCFS: the minimum sequence number over the level fronts (launch
    // latency is constant per model, so readiness order == seq order
    // within a level).
    PendingLaunch *best = nullptr;
    for (auto &level : ready_) {
        if (!level.empty()) {
            PendingLaunch *cand = &store_[level.front()];
            if (!best || cand->seq < best->seq)
                best = cand;
        }
    }
    return best;
}

void
Kmu::pop(PendingLaunch *launch)
{
    auto &level = ready_[launch->priority];
    laperm_assert(!level.empty() && &store_[level.front()] == launch,
                  "pop must target the peeked launch");
    const std::uint32_t slot = level.front();
    level.pop_front();
    --readyCount_;
    // Release the launch's program reference now, not at slot reuse.
    store_[slot] = PendingLaunch{};
    free_.push_back(slot);
    --count_;
}

Cycle
Kmu::nextReadyAt() const
{
    if (readyCount_ > 0) {
        for (const auto &level : ready_) {
            if (!level.empty())
                return store_[level.front()].readyAt;
        }
    }
    if (!latent_.empty())
        return latent_.top().readyAt;
    return kNoCycle;
}

} // namespace laperm
