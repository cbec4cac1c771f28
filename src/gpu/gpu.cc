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
    launcher_->hostLaunch(req, cycle_);
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
Gpu::noteSmxDrained(SmxId id)
{
    smxActive_[id] = false;
    auto it =
        std::lower_bound(activeSmxs_.begin(), activeSmxs_.end(), id);
    laperm_assert(it != activeSmxs_.end() && *it == id,
                  "draining an inactive SMX");
    activeSmxs_.erase(it);
}

void
Gpu::runToIdle(Cycle max_cycles)
{
    run(kNoCycle, max_cycles);
}

void
Gpu::runUntil(Cycle stop, Cycle max_cycles)
{
    laperm_assert(stop != kNoCycle, "runUntil without a stop cycle");
    run(stop, max_cycles);
}

void
Gpu::run(Cycle stop, Cycle max_cycles)
{
    const Cycle start = cycle_;
    const bool event = cfg_.tickMode == TickMode::Event;
    if (event)
        armFrontEnd(cycle_);
    while (!idle() && cycle_ < stop) {
        if (event)
            runBatch(stop);
        else
            tick();
        if (cycle_ - start > max_cycles) {
            laperm_panic("simulation exceeded %llu cycles "
                         "(undispatched=%llu active=%llu pending=%zu)",
                         static_cast<unsigned long long>(max_cycles),
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

void
Gpu::tick()
{
    bool launched = launcher_->tick(cycle_);
    bool dispatched = sched_->dispatchOne(cycle_);
    bool progress = launched || dispatched;

    // Tick only SMXs with resident TBs (ticking a drained SMX is a
    // no-op), compacting ones that drained this cycle. dispatchOne
    // above is the only way an SMX gains work, so the list is stable
    // during this loop.
    std::size_t out = 0;
    for (std::size_t i = 0; i < activeSmxs_.size(); ++i) {
        const SmxId id = activeSmxs_[i];
        Smx &smx = *smxs_[id];
        progress |= smx.tick(cycle_);
        ++work_.smxTicks;
        if (smx.drained())
            smxActive_[id] = false;
        else
            activeSmxs_[out++] = id;
    }
    activeSmxs_.resize(out);

    trimMshrsIfDue(cycle_);

    if (progress) {
        ++cycle_;
        return;
    }

    // Nothing happened: jump to the next event (warp wakeup, launch
    // readiness, or an overflow-fetch completion).
    Cycle next = kNoCycle;
    for (SmxId id : activeSmxs_)
        next = std::min(next, smxs_[id]->nextEventAt(cycle_));
    next = std::min(next, launcher_->nextReadyAt(cycle_));
    next = std::min(next, sched_->nextReadyAt(cycle_));
    if (next == kNoCycle || next <= cycle_)
        ++cycle_;
    else
        cycle_ = next;
}

void
Gpu::trimMshrsIfDue(Cycle now)
{
    // Periodically drop MSHR entries no cache client can merge with
    // anymore. The device clock lower-bounds every future access
    // timestamp (LSU issue and downstream latencies only add to it),
    // so trimming at it is invisible to the timing model — unlike
    // trimming at access time, where out-of-order L2 timestamps would
    // turn some merges into misses. Being invisible, the trim runs in
    // the first visited cycle at or past its deadline, which differs
    // between tick modes.
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
    // A drained device has no SMX armed, but the front end may be armed
    // inside the skipped gap; the next run re-arms it at the new clock.
    feArmedAt_ = kNoCycle;
    feOnNextEvent_ = false;
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
Gpu::armFrontEnd(Cycle cycle)
{
    feArmedAt_ = std::min(feArmedAt_, cycle);
}

void
Gpu::armSmx(SmxId id, Cycle cycle)
{
    smxArmedAt_[id] = std::min(smxArmedAt_[id], cycle);
    smxNextAt_ = std::min(smxNextAt_, cycle);
}

/**
 * One batch of the event-driven replacement for the dense loop: the
 * earliest armed cycle, with every phase due at it in dense order.
 * Correctness hinges on the front end (Launcher::tick +
 * TbScheduler::dispatchOne) running at exactly the cycles the dense
 * loop visits — failed dispatch attempts have observable side effects
 * (SMX-Bind cursor rotation, KDU-full stall accounting) — so its arming
 * rules replicate the dense visit set: the successor of every progress
 * cycle, and on a no-progress cycle the same jump target the dense loop
 * computes. SMX ticks with no eligible warp are side-effect-free, so an
 * SMX stays unticked until the cycle it is armed for.
 */
void
Gpu::runBatch(Cycle stop)
{
    const Cycle t = std::min(feArmedAt_, smxNextAt_);
    laperm_assert(t != kNoCycle, "no next event with live work");
    laperm_assert(t >= cycle_, "batch in the past (%llu < %llu)",
                  static_cast<unsigned long long>(t),
                  static_cast<unsigned long long>(cycle_));
    if (t >= stop) {
        // Slice boundary: every armed cycle is at or past stop, so
        // pausing here and re-arming on re-entry (run() arms the front
        // end) replays the dense loop's visit at stop.
        cycle_ = stop;
        return;
    }
    ++work_.batches;
    bool progress = false;

    // Front-end phase: due when armed for this cycle, or — lazy wake
    // (see feOnNextEvent_) — at any batch, since a batch the front end
    // is not armed for has an SMX due. When both front-end halves prove
    // their calls at t would observe and mutate nothing (no launch
    // admittable, scheduler dispatch memo valid), the calls themselves
    // are elided; the post-batch arming below still runs so SMX-driven
    // progress (completions invalidate the memo) re-engages the front
    // end at t+1 exactly as the dense loop would.
    const bool fe_due = feArmedAt_ == t || feOnNextEvent_;
    if (fe_due) {
        feOnNextEvent_ = false;
        if (feArmedAt_ == t)
            feArmedAt_ = kNoCycle;
        if (!launcher_->visitIsNoop(t) || !sched_->visitIsNoop(t)) {
            bool launched = launcher_->tick(t);
            bool dispatched = sched_->dispatchOne(t);
            progress |= launched || dispatched;
        } else {
            ++work_.visitsElided;
        }
    }

    // SMX phase: one pass in ascending id, the dense loop's tick order,
    // ticking each SMX armed for t, re-arming it and recomputing the
    // minimum. Only the front end arms an SMX for the cycle being
    // processed (a dispatch), and it ran above, so the pass sees every
    // SMX due at t.
    if (smxNextAt_ == t) {
        Cycle next_at = kNoCycle;
        for (SmxId id = 0; id < cfg_.numSmx; ++id) {
            Cycle &at = smxArmedAt_[id];
            if (at == t) {
                Smx &smx = *smxs_[id];
                progress |= smx.tick(t);
                ++work_.smxTicks;
                if (smx.drained()) {
                    noteSmxDrained(id);
                    at = kNoCycle;
                } else {
                    at = smx.nextEventAt(t + 1);
                }
            }
            next_at = std::min(next_at, at);
        }
        smxNextAt_ = next_at;
    }

    trimMshrsIfDue(t);

    if (fe_due) {
        if (progress) {
            // The dense loop visits t+1 next (the "echo" visit: it
            // usually finds no progress and jumps away). When both
            // front-end halves prove their calls at t+1 would observe
            // and mutate nothing — no launch admittable by then,
            // scheduler dispatch memo still valid — the echo can be
            // elided outright: its SMX ticks are no-ops as well (an SMX
            // due at t+1 would be armed, and the batch would happen
            // anyway). The jump the dense loop computes out of that
            // visit is replicated below with the same nextReadyAt
            // calls, evaluated at t+1; its SMX component is the earliest
            // armed SMX, via the lazy wake.
            if (launcher_->visitIsNoop(t + 1) &&
                sched_->visitIsNoop(t + 1)) {
                ++work_.visitsElided;
                const Cycle target =
                    std::min(launcher_->nextReadyAt(t + 1),
                             sched_->nextReadyAt(t + 1));
                if (target != kNoCycle)
                    armFrontEnd(target);
                feOnNextEvent_ = true;
            } else {
                armFrontEnd(t + 1);
            }
        } else {
            // The dense loop's no-progress jump. Its SMX component (min
            // over active SMXs' nextEventAt) is exactly the earliest
            // armed SMX, so the lazy wake supplies it; only the
            // launcher/scheduler delays need naming here. Both calls
            // are kept even though only their min is used: the
            // scheduler's nextReadyAt prunes internal state, and
            // dense/event parity requires identical call sequences.
            const Cycle target =
                std::min(launcher_->nextReadyAt(t),
                         sched_->nextReadyAt(t));
            if (target != kNoCycle && target > t) {
                armFrontEnd(target);
            } else if (smxNextAt_ == kNoCycle) {
                // The dense loop crawls (++cycle) when the jump has no
                // target: progress may need repeated front-end visits
                // (SMX-Bind examines one SMX per cycle, rotating its
                // cursor on failure). With no SMX armed, replicate the
                // crawl or the front end would starve.
                armFrontEnd(t + 1);
            }
            feOnNextEvent_ = true;
        }
    }

    cycle_ = t + 1;
}

void
Gpu::runWaves(const std::vector<LaunchRequest> &waves)
{
    for (const LaunchRequest &wave : waves) {
        launchHostKernel(wave);
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

    ThreadBlock *tb = smxs_[smx]->acquireTb();
    if (unit.traces) {
        viewThreadBlockInto(*tb, *unit.traces, ix, unit.threadsPerTb,
                            unit.regsPerTb, unit.smemPerTb);
        ++work_.tbsReplayed;
    } else {
        work_.threadOps +=
            buildThreadBlockInto(*tb, *unit.program, ix, unit.threadsPerTb,
                                 unit.count, ctxScratch_);
        ++work_.tbsBuilt;
    }
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
