/**
 * @file
 * Per-SMX warp scheduling: four scheduler slots (Kepler-style), each
 * picking among its warps with greedy-then-oldest (GTO) or loose
 * round-robin (LRR). LaPerm is deliberately orthogonal to this layer
 * (paper Section IV-F).
 *
 * Warps are partitioned per slot into a *ready* list (readyAt has
 * passed; scanned by pick) and a *pending* min-heap keyed by
 * (readyAt, age) (never scanned; drained into ready as time advances).
 * Under the greedy policies (GTO, TB-aware) the warp that issued last
 * is *held* beside both instead of being filed after its issue: pick()
 * tries it first anyway, so the common case — the greedy warp issues
 * again as soon as it is ready — costs no heap or list traffic. It is
 * filed into the heap when another warp issues. Barrier-parked warps
 * leave all structures until released. The ready list stores the
 * fields each policy compares (age, lastIssue, TB family) inline, so
 * the selection loop never chases Warp pointers. Selection is a total
 * order over eligible warps (ages are globally unique), so the
 * partition changes scan cost but never the winner.
 */

#ifndef LAPERM_GPU_WARP_SCHEDULER_HH
#define LAPERM_GPU_WARP_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "gpu/warp.hh"
#include "sim/config.hh"

namespace laperm {

/**
 * Tracks live warps per scheduler slot and selects the next warp to
 * issue. Warps waiting at barriers or done are never selected.
 */
class WarpScheduler
{
  public:
    WarpScheduler(std::uint32_t num_slots, WarpPolicy policy);

    /** Register a newly dispatched warp (assigned to a slot). */
    void addWarp(Warp *warp);

    /** Remove a retired warp from its slot. */
    void removeWarp(Warp *warp);

    /**
     * Select a warp eligible to issue at @p now from @p slot, honouring
     * the policy; nullptr if none is ready. Drains the slot's pending
     * heap up to @p now first.
     */
    Warp *pick(std::uint32_t slot, Cycle now);

    /** Record that @p warp issued at @p now (updates greedy/recency). */
    void issued(std::uint32_t slot, Warp *warp, Cycle now);

    /**
     * Re-file the warp that just issued after its readyAt moved
     * forward: held as the slot's greedy warp under GTO and TB-aware,
     * else filed into the pending heap keyed by the new readyAt.
     */
    void requeue(Warp *warp);

    /** Unfile a warp that just blocked on its TB barrier. */
    void parkAtBarrier(Warp *warp);

    /** File a barrier-released warp by its (future) readyAt. */
    void wakeFromBarrier(Warp *warp);

    /** Earliest cycle any warp becomes ready; kNoCycle if none pending. */
    Cycle nextWakeup(Cycle now) const;

    std::uint32_t numSlots() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    std::uint32_t liveWarps() const { return liveWarps_; }

  private:
    /** Hot fields for one ready warp, hoisted out of Warp. */
    struct ReadyEntry
    {
        std::uint64_t age;
        Cycle lastIssue;
        TbUid family; ///< the TB's direct parent (TbAware grouping)
        bool hasTb;   ///< family is meaningful (kNoTb is a real value)
        Warp *warp;
    };

    /** Heap node for one stalled warp, keyed by wakeup time. */
    struct PendingEntry
    {
        Cycle readyAt;
        std::uint64_t age;
        Warp *warp;
    };

    struct Slot
    {
        /** pending's earliest readyAt (kNoCycle when empty). */
        Cycle pendingAt = kNoCycle;
        /** held's readyAt (kNoCycle when nothing is held). */
        Cycle heldAt = kNoCycle;
        /** The greedy warp while it is held (loc Held), else nullptr. */
        Warp *held = nullptr;
        Warp *greedy = nullptr;
        std::vector<ReadyEntry> ready;
        std::vector<PendingEntry> pending; ///< min-heap (readyAt, age)
    };

    void fileReady(Slot &slot, Warp *warp);
    void filePending(Slot &slot, Warp *warp);
    void eraseReady(Slot &slot, std::uint32_t ix);
    /** Refresh slot.pendingAt after the heap changed. */
    static void notePending(Slot &slot);
    void hold(Slot &slot, Warp *warp);
    void unhold(Slot &slot);
    /** Promote every pending warp with readyAt <= @p now to ready. */
    void drainPending(Slot &slot, Cycle now);
    /** pick() among filed warps: the held warp is not due. */
    Warp *pickFiled(Slot &slot);
    /** requeue() of a warp picked from the ready list. */
    void requeueFiled(Warp *warp);
    /** File the held warp into the pending heap. */
    void fileHeld(Slot &slot);

    WarpPolicy policy_;
    std::vector<Slot> slots_;
    std::uint64_t nextAssign_ = 0;
    std::uint32_t liveWarps_ = 0;
};

// The issue path runs these once per warp instruction; the common case
// (the held greedy warp issues again) stays inline.

inline Warp *
WarpScheduler::pick(std::uint32_t slot_ix, Cycle now)
{
    Slot &slot = slots_[slot_ix];
    if (slot.pendingAt <= now)
        drainPending(slot, now);
    // After the drain, "filed in ready, or held and due" is exactly the
    // eligibility predicate (!done && !atBarrier && readyAt <= now).
    if (slot.held && slot.heldAt <= now)
        return slot.held;
    return pickFiled(slot);
}

inline void
WarpScheduler::issued(std::uint32_t slot_ix, Warp *warp, Cycle now)
{
    Slot &slot = slots_[slot_ix];
    // Only the greedy warp is held: a new greedy warp files the old.
    if (slot.held && slot.held != warp)
        fileHeld(slot);
    slot.greedy = warp;
    warp->lastIssue = now;
    if (warp->loc == WarpLoc::Ready)
        slot.ready[warp->readyIx].lastIssue = now;
}

inline void
WarpScheduler::requeue(Warp *warp)
{
    if (warp->loc == WarpLoc::Held) {
        // Still the held greedy warp: only its wakeup moved.
        slots_[warp->slot].heldAt = warp->readyAt;
        return;
    }
    requeueFiled(warp);
}

inline Cycle
WarpScheduler::nextWakeup(Cycle now) const
{
    Cycle best = kNoCycle;
    for (const Slot &slot : slots_) {
        if (!slot.ready.empty())
            return now;
        best = std::min(
            best, std::max(std::min(slot.pendingAt, slot.heldAt), now));
    }
    return best;
}

} // namespace laperm

#endif // LAPERM_GPU_WARP_SCHEDULER_HH
