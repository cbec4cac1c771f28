#include "sched/policies.hh"

namespace laperm {

namespace {

/** On-chip capacity for a queue set under the active model (0 = none). */
std::uint32_t
queueCapacity(const GpuConfig &cfg)
{
    // CDP keeps its priority queues in global memory managed by the
    // KMU (Section IV-A); DTBL reuses the on-chip TB-group SRAM with
    // global-memory overflow (Section IV-E).
    if (cfg.dynParModel == DynParModel::DTBL)
        return cfg.onchipQueueEntries;
    return 0;
}

} // namespace

TbPriScheduler::TbPriScheduler(const GpuConfig &cfg, DispatchContext &ctx)
    : TbScheduler(cfg, ctx),
      queues_(cfg.maxPriorityLevels + 1, queueCapacity(cfg))
{
}

void
TbPriScheduler::enqueue(DispatchUnit *unit, Cycle now)
{
    queues_.push(unit, ctx_.mutableStats(), now,
                 cfg_.overflowFetchLatency);
}

bool
TbPriScheduler::dispatchOne(Cycle now)
{
    bool blocked = false;
    DispatchUnit *unit = queues_.front(now, blocked, ctx_.gatedTenant());
    if (!unit)
        return false;
    const std::uint32_t n = ctx_.numSmx();
    for (std::uint32_t j = 0; j < n; ++j) {
        SmxId smx = (cursor_ + j) % n;
        if (ctx_.fits(smx, *unit)) {
            ctx_.dispatchTb(*unit, smx, now);
            cursor_ = (smx + 1) % n;
            queues_.popIfExhausted(unit);
            return true;
        }
    }
    // Strict priority: the highest-priority TB waits for capacity
    // rather than letting lower-priority TBs overtake it.
    return false;
}

Cycle
TbPriScheduler::nextReadyAt(Cycle now) const
{
    return queues_.nextReadyAt(now);
}

} // namespace laperm
