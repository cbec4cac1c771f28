#include "gpu/gpu.hh"

#include <algorithm>

#include "common/log.hh"

namespace laperm {

Gpu::Gpu(const GpuConfig &cfg)
    : cfg_(cfg), mem_(cfg), kdu_(cfg.kduEntries)
{
    cfg_.validate();
    sched_ = TbScheduler::create(cfg_, *this);
    launcher_ = std::make_unique<Launcher>(cfg_, kdu_, *sched_, stats_,
                                           undispatchedTbs_, hub_);
    for (SmxId i = 0; i < cfg_.numSmx; ++i)
        smxs_.push_back(std::make_unique<Smx>(i, cfg_, mem_, *this));
    stats_.smx.resize(cfg_.numSmx);
    activeSmxs_.reserve(cfg_.numSmx);
    smxActive_.assign(cfg_.numSmx, false);
    smxArmedAt_.assign(cfg_.numSmx, kNoCycle);
}

Gpu::~Gpu() = default;

void
Gpu::setLocalityTracker(obs::MemObserver *tracker)
{
    mem_.setLocalityTracker(tracker);
}

void
Gpu::launchHostKernel(const LaunchRequest &req)
{
    if (!own_)
        own_ = std::make_unique<TraceForest>();
    laperm_assert(forest_ == nullptr || forest_ == own_.get(),
                  "adopting a launch into a run of another forest");
    forest_ = own_.get();
    launcher_->hostLaunch(own_->adopt(req), cycle_);
}

bool
Gpu::idle() const
{
    return undispatchedTbs_ == 0 && activeTbs_ == 0 && launcher_->idle();
}

void
Gpu::noteSmxBusy(SmxId id)
{
    if (smxActive_[id])
        return;
    smxActive_[id] = true;
    activeSmxs_.insert(
        std::lower_bound(activeSmxs_.begin(), activeSmxs_.end(), id),
        id);
}

void
Gpu::runToIdle()
{
    run(kNoCycle);
}

void
Gpu::runUntil(Cycle stop)
{
    laperm_assert(stop != kNoCycle, "runUntil without a stop cycle");
    run(stop);
}

void
Gpu::run(Cycle stop)
{
    const Cycle start = cycle_;
    while (!idle() && cycle_ < stop) {
        step();
        if (cycle_ - start > kMaxRunCycles) {
            laperm_panic("simulation exceeded %llu cycles "
                         "(undispatched=%llu active=%llu pending=%zu)",
                         static_cast<unsigned long long>(kMaxRunCycles),
                         static_cast<unsigned long long>(undispatchedTbs_),
                         static_cast<unsigned long long>(activeTbs_),
                         launcher_->kmu().size());
        }
    }
    // A no-progress jump may have overshot the slice boundary; the gap
    // it skipped is eventless, so resuming at stop is timing-neutral
    // (the next slice recomputes the very same jump).
    if (cycle_ > stop)
        cycle_ = stop;
}

/**
 * One visited cycle t = cycle_ of either tick mode, in dense phase
 * order: the front end, the SMX phase, the MSHR trim, then the next
 * visited cycle. Both modes visit the same cycles by construction,
 * so the front end — whose failed dispatch attempts have observable
 * side effects (SMX-Bind cursor rotation, Adaptive-Bind adoption,
 * KDU-full stall accounting) — runs at exactly the same cycles. The
 * modes differ only in which SMXs tick: dense ticks every active SMX,
 * event only those armed for t. An SMX tick with no warp due is
 * side-effect-free, so the event core skips it.
 */
void
Gpu::step()
{
    const Cycle t = cycle_;
    const bool event = cfg_.tickMode == TickMode::Event;
    laperm_assert(!event || smxNextAt_ >= t, "SMX armed in the past");
    ++work_.batches;
    bool progress = launcher_->tick(t);
    progress |= sched_->dispatchOne(t);

    // SMX phase, in ascending id, compacting SMXs that drain. Event
    // mode re-arms each ticked SMX and recomputes the minimum; only a
    // dispatch arms an SMX for t itself, and the front end ran above.
    // dispatchOne is the only way an SMX gains work, so the list is
    // stable during this loop.
    if (!event || smxNextAt_ == t) {
        Cycle next_at = kNoCycle;
        std::size_t out = 0;
        for (std::size_t i = 0; i < activeSmxs_.size(); ++i) {
            const SmxId id = activeSmxs_[i];
            Cycle &at = smxArmedAt_[id];
            if (!event || at == t) {
                Smx &smx = *smxs_[id];
                progress |= smx.tick(t);
                ++work_.smxTicks;
                if (smx.drained()) {
                    smxActive_[id] = false;
                    at = kNoCycle;
                    continue;
                }
                if (event)
                    at = smx.nextEventAt(t + 1);
            }
            next_at = std::min(next_at, at);
            activeSmxs_[out++] = id;
        }
        activeSmxs_.resize(out);
        smxNextAt_ = next_at;
    }

    trimMshrsIfDue(t);

    if (progress) {
        cycle_ = t + 1;
        return;
    }
    ++work_.noProgressSteps;

    // Nothing happened: jump to the next event (warp wakeup, launch
    // readiness, or an overflow-fetch completion). The event core has
    // the SMX term cached as the earliest armed cycle.
    Cycle next = kNoCycle;
    if (event) {
        next = smxNextAt_;
    } else {
        for (SmxId id : activeSmxs_)
            next = std::min(next, smxs_[id]->nextEventAt(t));
    }
    next = std::min(next, launcher_->nextReadyAt(t));
    next = std::min(next, sched_->nextReadyAt(t));
    cycle_ = next == kNoCycle || next <= t ? t + 1 : next;
}

void
Gpu::trimMshrsIfDue(Cycle now)
{
    // Periodically drop MSHR entries no cache client can merge with
    // anymore. The device clock lower-bounds every future access
    // timestamp (LSU issue and downstream latencies only add to it),
    // so trimming at it is invisible to the timing model — unlike
    // trimming at access time, where out-of-order L2 timestamps would
    // turn some merges into misses. It runs in the first visited cycle
    // at or past its deadline, the same cycle in both tick modes.
    if (now >= nextMshrTrimAt_) {
        mem_.trimMshrs(now);
        nextMshrTrimAt_ = now + cfg_.mshrTrimInterval;
    }
}

void
Gpu::advanceTo(Cycle cycle)
{
    laperm_assert(idle(), "advanceTo with live work");
    laperm_assert(cycle >= cycle_, "advanceTo moving backwards");
    cycle_ = cycle;
}

std::uint64_t
Gpu::residentThreads() const
{
    std::uint64_t total = 0;
    for (SmxId id : activeSmxs_)
        total += smxs_[id]->threadsUsed();
    return total;
}

void
Gpu::armSmx(SmxId id, Cycle cycle)
{
    smxArmedAt_[id] = std::min(smxArmedAt_[id], cycle);
    smxNextAt_ = std::min(smxNextAt_, cycle);
}

void
Gpu::runWaves(const std::vector<LaunchRequest> &waves)
{
    for (const LaunchRequest &wave : waves) {
        launchHostKernel(wave);
        runToIdle();
    }
}

void
Gpu::runForest(TraceForest &forest)
{
    laperm_assert(forest_ == nullptr || forest_ == &forest,
                  "running a second forest");
    forest_ = &forest;
    forest.start();
    for (const LaunchRequest &wave : forest.waves()) {
        launcher_->hostLaunch(wave, cycle_);
        runToIdle();
    }
}

WorkCounters
Gpu::workCounters() const
{
    WorkCounters w = work_;
    w.mshrInserts = mem_.mshrInserts();
    return w;
}

const GpuStats &
Gpu::stats()
{
    stats_.cycles = cycle_;
    for (SmxId i = 0; i < cfg_.numSmx; ++i)
        stats_.smx[i] = smxs_[i]->stats();
    mem_.exportStats(stats_);
    return stats_;
}

bool
Gpu::fits(SmxId smx, const DispatchUnit &unit) const
{
    return smxs_[smx]->canAccommodate(unit.threadsPerTb, unit.regsPerTb,
                                      unit.smemPerTb);
}

void
Gpu::dispatchTb(DispatchUnit &unit, SmxId smx, Cycle now)
{
    laperm_assert(!unit.exhausted(), "dispatching an exhausted unit");
    const std::uint32_t ix = unit.nextTb++;

    LaunchTraces &launch = *unit.traces;
    if (!launch.ready()) {
        laperm_assert(forest_ != nullptr, "dispatching unbuilt traces");
        const TraceForest::Built built = forest_->ensure(launch, scratch_);
        work_.tbsBuilt += built.tbs;
        work_.threadOps += built.threadOps;
    }
    ThreadBlock *tb = smxs_[smx]->acquireTb();
    viewThreadBlockInto(*tb, launch, ix, unit.threadsPerTb, unit.regsPerTb,
                        unit.smemPerTb);
    tb->launch = &launch;
    ++work_.tbsReplayed;
    tb->uid = nextTbUid_++;
    tb->kernel = unit.kernel;
    tb->priority = unit.priority;
    tb->directParent = unit.directParent;
    tb->isDynamic = unit.directParent != kNoTb;
    tb->tenant = unit.tenant;

    ++unit.kernel->dispatchedTbs;
    laperm_assert(undispatchedTbs_ > 0, "undispatched TB underflow");
    --undispatchedTbs_;
    ++activeTbs_;

    tb->smx = smx;
    tb->dispatchCycle = now;
    if (hub_.enabled()) {
        hub_.tbDispatch({now, tb->uid, tb->kernel->id, tb->tbIndex, smx,
                         tb->priority, tb->isDynamic, tb->directParent,
                         now, tb->tenant});
    }
    smxs_[smx]->acceptTb(tb, now);
    // A TB whose warps are all empty completes inside acceptTb; only
    // track the SMX while it actually holds work.
    if (!smxs_[smx]->drained()) {
        noteSmxBusy(smx);
        // Same-cycle hand-off: the SMX-tick phase of this very cycle
        // must see the new TB (the dense loop ticks SMXs after
        // dispatch).
        if (cfg_.tickMode == TickMode::Event)
            armSmx(smx, now);
    }
}

void
Gpu::deviceLaunch(const LaunchRequest &req, const ThreadBlock &parent,
                  Cycle now)
{
    // A child TB that no SMX can ever hold would otherwise wait for
    // dispatch until the cycle cap.
    const std::string misfit = launchMisfit(cfg_, req);
    if (!misfit.empty())
        laperm_fatal("device launch: %s", misfit.c_str());
    launcher_->deviceLaunch(req, parent, now);
}

void
Gpu::tbCompleted(ThreadBlock &tb, Cycle now)
{
    if (hub_.enabled()) {
        hub_.tbRetire({now, tb.uid, tb.kernel->id, tb.tbIndex, tb.smx,
                       tb.priority, tb.isDynamic, tb.directParent,
                       tb.dispatchCycle, tb.tenant});
    }
    kdu_.tbFinished(tb.kernel);
    // A private run frees a launch's traces with its last TB; every
    // warp of it has retired, and its pending children hold their own
    // requests. A shared forest's runs retire nothing, so two of them
    // never count down one tbsLeft.
    if (!forest_->shared() && --tb.launch->tbsLeft == 0)
        forest_->retire(*tb.launch);
    laperm_assert(activeTbs_ > 0, "active TB underflow");
    --activeTbs_;
    // The SMX just freed this TB's resources; a memoized scheduler
    // must retry its dispatch scan.
    sched_->noteCapacityFreed();
}

void
Gpu::dispatchCapacityFreed()
{
    sched_->noteCapacityFreed();
}

} // namespace laperm
