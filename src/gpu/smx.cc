#include "gpu/smx.hh"

#include <algorithm>

#include "common/log.hh"

namespace laperm {

Smx::Smx(SmxId id, const GpuConfig &cfg, MemSystem &mem,
         SmxCallbacks &callbacks)
    : id_(id), cfg_(cfg), mem_(mem), callbacks_(callbacks),
      warpSched_(cfg.warpSchedulersPerSmx, cfg.warpPolicy),
      effectiveMaxTbs_(cfg.maxTbsPerSmx)
{
}

bool
Smx::canAccommodate(std::uint32_t threads, std::uint32_t regs,
                    std::uint32_t smem) const
{
    return residentTbs_.size() < effectiveMaxTbs_ &&
           threadsUsed_ + threads <= cfg_.maxThreadsPerSmx &&
           regsUsed_ + regs <= cfg_.regsPerSmx &&
           smemUsed_ + smem <= cfg_.smemPerSmx;
}

void
Smx::evaluateThrottle()
{
    const CacheStats &l1 = mem_.l1(id_).stats();
    std::uint64_t accesses = l1.accesses - throttleLastAccesses_;
    if (accesses < cfg_.throttleWindow)
        return;
    std::uint64_t hits = l1.hits - throttleLastHits_;
    throttleLastAccesses_ = l1.accesses;
    throttleLastHits_ = l1.hits;
    double miss =
        1.0 - static_cast<double>(hits) / static_cast<double>(accesses);
    if (miss > cfg_.throttleHighMiss &&
        effectiveMaxTbs_ > cfg_.throttleMinTbs) {
        --effectiveMaxTbs_;
    } else if (miss < cfg_.throttleLowMiss &&
               effectiveMaxTbs_ < cfg_.maxTbsPerSmx) {
        ++effectiveMaxTbs_;
        callbacks_.dispatchCapacityFreed();
    }
}

ThreadBlock *
Smx::acquireTb()
{
    if (!tbFree_.empty()) {
        ThreadBlock *tb = tbFree_.back();
        tbFree_.pop_back();
        return tb;
    }
    tbArena_.push_back(std::make_unique<ThreadBlock>());
    return tbArena_.back().get();
}

void
Smx::acceptTb(ThreadBlock *tb, Cycle now)
{
    laperm_assert(canAccommodate(tb->numThreads, tb->regs, tb->smem),
                  "TB dispatched to a full SMX %u", id_);
    tb->smx = id_;
    tb->dispatchCycle = now;
    threadsUsed_ += tb->numThreads;
    regsUsed_ += tb->regs;
    smemUsed_ += tb->smem;

    residentTbs_.push_back(tb);

    bool any_live = false;
    for (Warp &warp : tb->warps) {
        warp.age = nextWarpAge_++;
        warp.readyAt = now;
        if (warp.ops.empty()) {
            warp.done = true;
            ++tb->warpsDone;
            continue;
        }
        warpSched_.addWarp(&warp);
        any_live = true;
    }
    if (!any_live)
        completeTb(*tb, now);
}

bool
Smx::tick(Cycle now)
{
    bool issued_any = false;
    bool progress = false;
    const std::uint32_t slots = warpSched_.numSlots();
    for (std::uint32_t s = 0; s < slots; ++s) {
        Warp *warp = warpSched_.pick(s, now);
        if (!warp)
            continue;
        progress = true;
        if (warp->finishedOps()) {
            // Final op has drained: retire without consuming an
            // instruction (the slot is still busy this cycle).
            retireWarp(*warp, now);
            continue;
        }
        warpSched_.issued(s, warp, now);
        executeOp(*warp, now);
        // Re-file by the new readyAt — unless the op parked the warp at
        // a barrier (loc is then None, or Pending if the barrier
        // released synchronously and woke it).
        if (warp->loc == WarpLoc::Ready || warp->loc == WarpLoc::Held)
            warpSched_.requeue(warp);
        issued_any = true;
    }
    if (issued_any) {
        ++stats_.busyCycles;
        if (cfg_.tbThrottleEnabled)
            evaluateThrottle();
    }
    return progress;
}

void
Smx::executeOp(Warp &warp, Cycle now)
{
    const WarpOp &op = warp.ops[warp.pc++];
    ++stats_.warpInstructions;
    ++stats_.issueSlots;
    stats_.threadInstructions += op.activeLanes;

    switch (op.kind) {
      case OpKind::Alu:
        warp.readyAt = now + std::max<std::uint32_t>(1, op.aluCycles);
        break;
      case OpKind::Load: {
        // The LSU issues one coalesced transaction per cycle; the warp
        // resumes when the last outstanding load returns. Consecutive
        // load instructions issue back-to-back (compiler-scheduled
        // memory-level parallelism) up to the per-warp MLP window.
        const obs::MemAccessor acc{warp.tb->uid, warp.tb->directParent,
                                   warp.tb->isDynamic};
        Cycle done = now + 1;
        Cycle issue = now;
        std::uint32_t batched = 1;
        const WarpOp *cur = &op;
        for (;;) {
            for (Addr line : cur->lines)
                done = std::max(done, mem_.load(id_, line, issue++, &acc));
            if (batched >= cfg_.warpMlpWindow ||
                warp.pc >= warp.ops.size() ||
                warp.ops[warp.pc].kind != OpKind::Load) {
                break;
            }
            cur = &warp.ops[warp.pc++];
            ++batched;
            ++stats_.warpInstructions;
            stats_.threadInstructions += cur->activeLanes;
        }
        warp.readyAt = done;
        break;
      }
      case OpKind::Store: {
        // Stores retire at issue (no register dependence); the warp is
        // only held for LSU throughput.
        const obs::MemAccessor acc{warp.tb->uid, warp.tb->directParent,
                                   warp.tb->isDynamic};
        Cycle issue = now;
        for (Addr line : op.lines)
            mem_.store(id_, line, issue++, &acc);
        warp.readyAt = now + std::max<std::size_t>(1, op.lines.size());
        break;
      }
      case OpKind::Bar: {
        ThreadBlock &tb = *warp.tb;
        warp.atBarrier = true;
        // Park before a possible synchronous release so the release
        // wakes this warp through the same None -> Pending path as the
        // rest of its TB.
        warpSched_.parkAtBarrier(&warp);
        ++tb.warpsAtBarrier;
        ++stats_.barrierStalls;
        std::uint32_t alive =
            static_cast<std::uint32_t>(tb.warps.size()) - tb.warpsDone;
        if (tb.warpsAtBarrier == alive)
            releaseBarrier(tb, now);
        break;
      }
      case OpKind::Launch: {
        for (const LaunchRequest &req : op.launches)
            callbacks_.deviceLaunch(req, *warp.tb, now);
        warp.readyAt = now + cfg_.launchIssueCycles;
        break;
      }
    }
}

void
Smx::releaseBarrier(ThreadBlock &tb, Cycle now)
{
    for (Warp &warp : tb.warps) {
        if (warp.atBarrier) {
            warp.atBarrier = false;
            warp.readyAt = now + cfg_.barLatency;
            warpSched_.wakeFromBarrier(&warp);
        }
    }
    tb.warpsAtBarrier = 0;
}

void
Smx::retireWarp(Warp &warp, Cycle now)
{
    ThreadBlock &tb = *warp.tb;
    warp.done = true;
    warpSched_.removeWarp(&warp);
    ++tb.warpsDone;

    // A retiring warp may be the last one a barrier was waiting on.
    std::uint32_t alive =
        static_cast<std::uint32_t>(tb.warps.size()) - tb.warpsDone;
    if (alive > 0 && tb.warpsAtBarrier == alive)
        releaseBarrier(tb, now);

    if (tb.allWarpsDone())
        completeTb(tb, now);
}

void
Smx::completeTb(ThreadBlock &tb, Cycle now)
{
    threadsUsed_ -= tb.numThreads;
    regsUsed_ -= tb.regs;
    smemUsed_ -= tb.smem;
    ++stats_.tbsExecuted;
    if (tb.isDynamic)
        ++stats_.dynamicTbsExecuted;

    callbacks_.tbCompleted(tb, now);

    auto it = std::find(residentTbs_.begin(), residentTbs_.end(), &tb);
    laperm_assert(it != residentTbs_.end(), "completing unknown TB");
    *it = residentTbs_.back();
    residentTbs_.pop_back();
    tbFree_.push_back(&tb);
}

Cycle
Smx::nextEventAt(Cycle now) const
{
    return warpSched_.nextWakeup(now);
}

} // namespace laperm
