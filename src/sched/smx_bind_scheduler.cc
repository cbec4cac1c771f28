#include "sched/policies.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/observer.hh"

namespace laperm {

namespace {

std::uint32_t
clusterCapacity(const GpuConfig &cfg)
{
    if (cfg.dynParModel == DynParModel::DTBL)
        return cfg.onchipQueueEntries * cfg.smxPerCluster;
    // CDP: per-SMX on-chip queues are bounded by the KDU entry count
    // (Section IV-E), which the KDU already enforces globally, so no
    // additional overflow modeling applies here.
    return 0;
}

} // namespace

SmxBindScheduler::SmxBindScheduler(const GpuConfig &cfg,
                                   DispatchContext &ctx, bool adaptive)
    : TbScheduler(cfg, ctx), adaptive_(adaptive),
      hostQueue_(1, 0),
      backup_(cfg.numSmx / cfg.smxPerCluster, -1),
      rng_(cfg.seed ^ 0xB1D0F00Dull)
{
    const std::uint32_t clusters = cfg.numSmx / cfg.smxPerCluster;
    perCluster_.reserve(clusters);
    for (std::uint32_t c = 0; c < clusters; ++c)
        perCluster_.emplace_back(cfg.maxPriorityLevels + 1,
                                 clusterCapacity(cfg));
}

void
SmxBindScheduler::enqueue(DispatchUnit *unit, Cycle now)
{
    if (unit->priority == 0 || unit->boundSmx == kNoSmx) {
        hostQueue_.push(unit, ctx_.mutableStats());
        return;
    }
    laperm_assert(unit->boundSmx < cfg_.numSmx, "bad bound SMX");
    perCluster_[cluster(unit->boundSmx)].push(
        unit, ctx_.mutableStats(), now, cfg_.overflowFetchLatency);
}

bool
SmxBindScheduler::dispatchOne(Cycle now)
{
    // One SMX examined per cycle (Figure 6).
    const SmxId smx = cursor_;
    cursor_ = (cursor_ + 1) % cfg_.numSmx;
    const std::uint32_t c = cluster(smx);

    // Stage 1: highest-priority TB bound to this SMX's cluster.
    const std::uint32_t gated = ctx_.gatedTenant();
    bool blocked = false;
    if (DispatchUnit *unit = perCluster_[c].front(now, blocked, gated)) {
        if (!ctx_.fits(smx, *unit))
            return false; // the SMX is full; the TB stays bound
        ctx_.dispatchTb(*unit, smx, now);
        ++ctx_.mutableStats().boundDispatches;
        perCluster_[c].popIfExhausted(unit);
        return true;
    }

    // Stage 2: the shared level-0 queue of host-kernel TBs.
    bool host_blocked = false;
    if (DispatchUnit *unit = hostQueue_.front(now, host_blocked, gated)) {
        if (!ctx_.fits(smx, *unit))
            return false;
        ctx_.dispatchTb(*unit, smx, now);
        hostQueue_.popIfExhausted(unit);
        return true;
    }

    if (!adaptive_)
        return false; // SMX-Bind idles here (the imbalance of Fig. 4d)

    // Stage 3 (Adaptive-Bind): adopt a backup SMX's queues.
    const std::uint32_t clusters =
        static_cast<std::uint32_t>(perCluster_.size());
    int b = backup_[c];
    if (cfg_.backupPolicy == BackupPolicy::Random) {
        b = -1; // always re-pick (ablation variant)
    }
    if (b >= 0 && perCluster_[static_cast<std::size_t>(b)].empty())
        b = -1;
    if (b < 0) {
        if (cfg_.backupPolicy == BackupPolicy::Random) {
            std::vector<std::uint32_t> nonempty;
            for (std::uint32_t i = 0; i < clusters; ++i) {
                if (i != c && !perCluster_[i].empty())
                    nonempty.push_back(i);
            }
            if (!nonempty.empty())
                b = static_cast<int>(
                    nonempty[rng_.nextBounded(nonempty.size())]);
        } else {
            // Find and record the next non-empty cluster (Figure 6).
            for (std::uint32_t j = 1; j < clusters; ++j) {
                std::uint32_t cand = (c + j) % clusters;
                if (!perCluster_[cand].empty()) {
                    b = static_cast<int>(cand);
                    break;
                }
            }
        }
        if (b >= 0) {
            backup_[c] = b;
            ++ctx_.mutableStats().backupAdoptions;
            if (ctx_.observers().enabled()) {
                ctx_.observers().steal(
                    {now, smx, c, static_cast<std::uint32_t>(b), true});
            }
        }
    }
    if (b < 0)
        return false;

    const std::size_t bi = static_cast<std::size_t>(b);
    bool backup_blocked = false;
    DispatchUnit *unit = perCluster_[bi].front(now, backup_blocked, gated);
    if (!unit)
        return false;
    if (!ctx_.fits(smx, *unit))
        return false;
    ctx_.dispatchTb(*unit, smx, now);
    ++ctx_.mutableStats().unboundDispatches;
    if (ctx_.observers().enabled()) {
        ctx_.observers().steal(
            {now, smx, c, static_cast<std::uint32_t>(bi), false});
    }
    perCluster_[bi].popIfExhausted(unit);
    return true;
}

Cycle
SmxBindScheduler::nextReadyAt(Cycle now) const
{
    Cycle best = hostQueue_.nextReadyAt(now);
    for (const auto &q : perCluster_)
        best = std::min(best, q.nextReadyAt(now));
    return best;
}

} // namespace laperm
