#include "sched/priority_queues.hh"

#include <algorithm>

#include "common/log.hh"

namespace laperm {

PriorityQueues::PriorityQueues(std::uint32_t levels,
                               std::uint32_t onchip_capacity)
    : onchipCapacity_(onchip_capacity), levels_(levels)
{
    laperm_assert(levels > 0, "priority queues need at least one level");
}

void
PriorityQueues::push(DispatchUnit *unit, GpuStats &stats, Cycle now,
                     Cycle fetch_latency)
{
    std::uint32_t level = std::min<std::uint32_t>(
        unit->priority, static_cast<std::uint32_t>(levels_.size()) - 1);
    if (onchipCapacity_ != 0 && entries_ >= onchipCapacity_) {
        // The SRAM is full: the entry takes the global-memory overflow
        // path and becomes dispatchable one memory round-trip later.
        unit->overflowed = true;
        ++stats.queueOverflows;
        if (fetch_latency > 0) {
            unit->readyAt = std::max(unit->readyAt, now + fetch_latency);
            delayed_.insert(unit->readyAt);
        }
    }
    levels_[level].push_back(unit);
    ++entries_;
}

void
PriorityQueues::prune(std::uint32_t level)
{
    auto &q = levels_[level];
    while (!q.empty() && q.front()->exhausted()) {
        q.pop_front();
        laperm_assert(entries_ > 0, "priority-queue entry underflow");
        --entries_;
    }
}

DispatchUnit *
PriorityQueues::front(Cycle now, bool &blocked_out, std::uint32_t gated)
{
    blocked_out = false;
    if (entries_ == 0)
        return nullptr;
    for (std::uint32_t level = static_cast<std::uint32_t>(levels_.size());
         level-- > 0;) {
        prune(level);
        auto &q = levels_[level];
        if (q.empty())
            continue;
        if (gated == kNoTenant) {
            DispatchUnit *unit = q.front();
            if (unit->readyAt > now) {
                // Still in flight from the overflow buffer: not visible
                // to the dispatcher yet, so lower levels may proceed.
                // Entries within a level are FIFO, so a delayed head
                // implies the whole level is delayed.
                blocked_out = true;
                continue;
            }
            return unit;
        }
        // Gated scan: the first live ungated entry is the level's only
        // candidate — FIFO is preserved among each tenant's own
        // entries, the gated tenant is passed over like not-yet-ready
        // ones. Mid-queue exhausted entries (possible once non-head
        // units dispatch) are skipped and reclaimed by prune() when
        // they reach the front.
        for (DispatchUnit *unit : q) {
            if (unit->exhausted())
                continue;
            if (unit->tenant == gated)
                continue;
            if (unit->readyAt > now) {
                blocked_out = true;
                break; // delayed head of the ungated sub-queue
            }
            return unit;
        }
    }
    return nullptr;
}

void
PriorityQueues::popIfExhausted(DispatchUnit *unit)
{
    if (!unit->exhausted())
        return;
    std::uint32_t level = std::min<std::uint32_t>(
        unit->priority, static_cast<std::uint32_t>(levels_.size()) - 1);
    prune(level);
}

bool
PriorityQueues::empty() const
{
    if (entries_ == 0)
        return true;
    for (const auto &q : levels_) {
        for (const DispatchUnit *unit : q) {
            if (!unit->exhausted())
                return false;
        }
    }
    return true;
}

Cycle
PriorityQueues::nextReadyAt(Cycle now) const
{
    while (!delayed_.empty() && *delayed_.begin() <= now)
        delayed_.erase(delayed_.begin());
    return delayed_.empty() ? kNoCycle : *delayed_.begin();
}

} // namespace laperm
