#include "gpu/warp_scheduler.hh"

#include <algorithm>

#include "common/log.hh"
#include "gpu/thread_block.hh"

namespace laperm {

namespace {

/** Min-heap order on (readyAt, age); ages are globally unique. */
struct PendingAfter
{
    bool operator()(const auto &a, const auto &b) const
    {
        if (a.readyAt != b.readyAt)
            return a.readyAt > b.readyAt;
        return a.age > b.age;
    }
};

} // namespace

WarpScheduler::WarpScheduler(std::uint32_t num_slots, WarpPolicy policy)
    : policy_(policy), slots_(num_slots)
{
    laperm_assert(num_slots > 0, "need at least one warp scheduler");
}

void
WarpScheduler::fileReady(Slot &slot, Warp *warp)
{
    warp->loc = WarpLoc::Ready;
    warp->readyIx = static_cast<std::uint32_t>(slot.ready.size());
    const ThreadBlock *tb = warp->tb;
    slot.ready.push_back({warp->age, warp->lastIssue,
                          tb ? tb->directParent : kNoTb, tb != nullptr,
                          warp});
}

void
WarpScheduler::notePending(Slot &slot)
{
    slot.pendingAt =
        slot.pending.empty() ? kNoCycle : slot.pending.front().readyAt;
}

void
WarpScheduler::filePending(Slot &slot, Warp *warp)
{
    warp->loc = WarpLoc::Pending;
    slot.pending.push_back({warp->readyAt, warp->age, warp});
    std::push_heap(slot.pending.begin(), slot.pending.end(),
                   PendingAfter{});
    notePending(slot);
}

void
WarpScheduler::hold(Slot &slot, Warp *warp)
{
    warp->loc = WarpLoc::Held;
    slot.held = warp;
    slot.heldAt = warp->readyAt;
}

void
WarpScheduler::unhold(Slot &slot)
{
    slot.held = nullptr;
    slot.heldAt = kNoCycle;
}

void
WarpScheduler::eraseReady(Slot &slot, std::uint32_t ix)
{
    Warp *moved = slot.ready.back().warp;
    slot.ready[ix] = slot.ready.back();
    slot.ready.pop_back();
    if (moved->loc == WarpLoc::Ready && ix < slot.ready.size())
        moved->readyIx = ix;
}

void
WarpScheduler::drainPending(Slot &slot, Cycle now)
{
    while (slot.pendingAt <= now) {
        Warp *warp = slot.pending.front().warp;
        std::pop_heap(slot.pending.begin(), slot.pending.end(),
                      PendingAfter{});
        slot.pending.pop_back();
        fileReady(slot, warp);
        notePending(slot);
    }
}

void
WarpScheduler::addWarp(Warp *warp)
{
    std::uint32_t slot =
        static_cast<std::uint32_t>(nextAssign_++ % slots_.size());
    warp->slot = slot;
    filePending(slots_[slot], warp);
    ++liveWarps_;
}

void
WarpScheduler::removeWarp(Warp *warp)
{
    Slot &slot = slots_[warp->slot];
    if (warp->loc == WarpLoc::Ready) {
        laperm_assert(warp->readyIx < slot.ready.size() &&
                          slot.ready[warp->readyIx].warp == warp,
                      "ready index out of sync");
        eraseReady(slot, warp->readyIx);
    } else if (warp->loc == WarpLoc::Held) {
        unhold(slot);
    } else if (warp->loc == WarpLoc::Pending) {
        auto it = std::find_if(
            slot.pending.begin(), slot.pending.end(),
            [warp](const PendingEntry &e) { return e.warp == warp; });
        laperm_assert(it != slot.pending.end(), "removing unknown warp");
        slot.pending.erase(it);
        std::make_heap(slot.pending.begin(), slot.pending.end(),
                       PendingAfter{});
        notePending(slot);
    } else {
        laperm_fatal("removing a warp that is not filed");
    }
    warp->loc = WarpLoc::None;
    if (slot.greedy == warp)
        slot.greedy = nullptr;
    --liveWarps_;
}

void
WarpScheduler::requeueFiled(Warp *warp)
{
    Slot &slot = slots_[warp->slot];
    laperm_assert(warp->loc == WarpLoc::Ready,
                  "requeue of a warp that did not issue");
    eraseReady(slot, warp->readyIx);
    if (policy_ == WarpPolicy::LRR) {
        filePending(slot, warp);
        return;
    }
    // issued() made this warp the slot's greedy warp and filed any
    // other held one, so the hold is free.
    hold(slot, warp);
}

void
WarpScheduler::parkAtBarrier(Warp *warp)
{
    Slot &slot = slots_[warp->slot];
    if (warp->loc == WarpLoc::Held) {
        unhold(slot);
    } else {
        laperm_assert(warp->loc == WarpLoc::Ready,
                      "parking a non-ready warp");
        eraseReady(slot, warp->readyIx);
    }
    warp->loc = WarpLoc::None;
}

void
WarpScheduler::wakeFromBarrier(Warp *warp)
{
    laperm_assert(warp->loc == WarpLoc::None, "waking a filed warp");
    filePending(slots_[warp->slot], warp);
}

Warp *
WarpScheduler::pickFiled(Slot &slot)
{
    // A held warp is always the greedy one; pick() only gets here when
    // it is not due, and then it is not eligible.
    const bool greedy_like = policy_ != WarpPolicy::LRR;
    if (!slot.held && greedy_like && slot.greedy &&
        slot.greedy->loc == WarpLoc::Ready) {
        return slot.greedy;
    }

    // TB-aware family preference: the TB family (direct parent) of
    // the warp that issued last from this slot.
    TbUid family = kNoTb;
    bool have_family = false;
    if (policy_ == WarpPolicy::TbAware && slot.greedy &&
        slot.greedy->tb) {
        family = slot.greedy->tb->directParent;
        have_family = true;
    }

    const ReadyEntry *best = nullptr;
    bool best_in_family = false;
    for (const ReadyEntry &e : slot.ready) {
        bool in_family = have_family && e.hasTb && e.family == family;
        if (!best) {
            best = &e;
            best_in_family = in_family;
            continue;
        }
        switch (policy_) {
          case WarpPolicy::GTO:
            if (e.age < best->age)
                best = &e; // oldest
            break;
          case WarpPolicy::LRR:
            // Least-recently issued first, oldest tie-break.
            if (e.lastIssue < best->lastIssue ||
                (e.lastIssue == best->lastIssue && e.age < best->age)) {
                best = &e;
            }
            break;
          case WarpPolicy::TbAware:
            // Family first, then oldest within the same class.
            if (in_family != best_in_family) {
                if (in_family) {
                    best = &e;
                    best_in_family = true;
                }
            } else if (e.age < best->age) {
                best = &e;
            }
            break;
        }
    }
    return best ? best->warp : nullptr;
}

void
WarpScheduler::fileHeld(Slot &slot)
{
    filePending(slot, slot.held);
    unhold(slot);
}

} // namespace laperm
