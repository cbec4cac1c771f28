#include "sched/policies.hh"

#include <algorithm>

namespace laperm {

RrScheduler::RrScheduler(const GpuConfig &cfg, DispatchContext &ctx)
    : TbScheduler(cfg, ctx)
{
}

void
RrScheduler::enqueue(DispatchUnit *unit, Cycle)
{
    units_.push_back(unit);
    stuck_ = false;
}

bool
RrScheduler::dispatchOne(Cycle now)
{
    // A failed scan stays a failure until the machine state it read
    // changes (see the memo's invariant in policies.hh); skip the
    // rescan outright. Deferring the queue compaction below is fine —
    // it only drops units the scan would ignore anyway.
    if (stuck_ && now < stuckReadyAt_)
        return false;
    stuck_ = false;

    while (!units_.empty() && units_.front()->exhausted())
        units_.pop_front();
    // Amortized compaction of mid-queue exhausted units so the
    // per-cycle scan stays proportional to live work (units exhaust
    // out of order because later kernels dispatch concurrently while
    // earlier ones block on resources).
    if (units_.size() > compactAbove_) {
        std::erase_if(units_,
                      [](const DispatchUnit *u) { return u->exhausted(); });
        compactAbove_ = std::max<std::size_t>(128, units_.size() * 2);
    }

    const std::uint32_t n = ctx_.numSmx();
    const std::uint32_t gated = ctx_.gatedTenant();
    std::uint32_t examined = 0;
    Cycle earliestDelayed = kNoCycle;
    blockedShapes_.clear();
    for (DispatchUnit *unit : units_) {
        if (unit->exhausted())
            continue;
        if (unit->readyAt > now) {
            earliestDelayed = std::min(earliestDelayed, unit->readyAt);
            continue;
        }
        // The gated tenant's units are skipped like not-yet-ready ones;
        // Gpu::setGatedTenant invalidates the memo.
        if (unit->tenant == gated)
            continue;
        // The hardware KDU exposes a bounded window of concurrent
        // kernels; do not scan arbitrarily deep past blocked units.
        if (++examined > 64)
            break;
        // A demand that already failed on every SMX this scan fails
        // again: the cursor and SMX occupancy are unchanged since, so
        // the probe sequence — and its outcome — would be identical.
        const Shape shape{unit->threadsPerTb, unit->regsPerTb,
                          unit->smemPerTb};
        if (std::find(blockedShapes_.begin(), blockedShapes_.end(),
                      shape) != blockedShapes_.end()) {
            continue;
        }
        // Next SMX with enough available resources, starting from the
        // rotation cursor (Section II-B).
        for (std::uint32_t j = 0; j < n; ++j) {
            SmxId smx = (cursor_ + j) % n;
            if (ctx_.fits(smx, *unit)) {
                ctx_.dispatchTb(*unit, smx, now);
                cursor_ = (smx + 1) % n;
                return true;
            }
        }
        blockedShapes_.push_back(shape);
        // This kernel's TB fits nowhere; concurrent kernel execution
        // lets the next KDU kernel try (Section II-B).
    }
    // Delayed units past the 64-unit window can't invalidate the memo:
    // the window's members are fixed until a dispatch or enqueue, and
    // both of those clear it.
    stuck_ = true;
    stuckReadyAt_ = earliestDelayed;
    return false;
}

Cycle
RrScheduler::nextReadyAt(Cycle) const
{
    // RR units are always immediately dispatchable (no priority-queue
    // overflow in the baseline); blocked dispatch resumes on SMX
    // events, which the GPU's clock-skip logic already tracks.
    return kNoCycle;
}

} // namespace laperm
