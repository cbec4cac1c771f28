/**
 * @file
 * The priority-queue structure of Figure 5: L+1 FCFS queues of dispatch
 * units (level 0 = host kernels), with on-chip SRAM capacity and a
 * global-memory overflow buffer modeled by a fetch delay.
 */

#ifndef LAPERM_SCHED_PRIORITY_QUEUES_HH
#define LAPERM_SCHED_PRIORITY_QUEUES_HH

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "common/types.hh"
#include "sched/dispatch_unit.hh"
#include "sim/stats.hh"

namespace laperm {

/**
 * One set of priority queues (levels 0..L). Used directly by TB-Pri and
 * replicated per SMX (or cluster) by SMX-Bind / Adaptive-Bind.
 */
class PriorityQueues
{
  public:
    /**
     * @param levels number of levels (L + 1).
     * @param onchip_capacity entries resident in SRAM; further entries
     *        overflow to global memory (kept FCFS, fetched on demand).
     *        0 means unlimited (no overflow modeling).
     */
    PriorityQueues(std::uint32_t levels, std::uint32_t onchip_capacity);

    /**
     * Append @p unit to its priority level. If the SRAM is full the
     * entry spills to the global-memory overflow buffer: it becomes
     * visible to the dispatcher only after @p fetch_latency (the
     * paper's Section IV-E insertion cost, largely hidden by the TB
     * setup; the SRAM refill itself is prefetched by hardware and not
     * modeled as a dispatch-side stall).
     */
    void push(DispatchUnit *unit, GpuStats &stats, Cycle now = 0,
              Cycle fetch_latency = 0);

    /**
     * Highest-priority non-exhausted unit whose readyAt has elapsed.
     * Exhausted units are dropped from the queues as encountered.
     *
     * @param now current cycle.
     * @param blocked_out set to true if a unit exists but is delayed
     *        (readyAt in the future), distinguishing "busy" from empty.
     * @param gated the tenant whose entries are passed over (FIFO is
     *        preserved among each tenant's own entries). With kNoTenant
     *        the scan is the head-of-level probe.
     */
    DispatchUnit *front(Cycle now, bool &blocked_out,
                        std::uint32_t gated = kNoTenant);

    /** Remove @p unit after its final TB was dispatched. */
    void popIfExhausted(DispatchUnit *unit);

    /** No units with remaining TBs at any level. */
    bool empty() const;

    /** Entries currently held (all levels). */
    std::uint32_t entries() const { return entries_; }

    /** Min readyAt among delayed units; kNoCycle if none. */
    Cycle nextReadyAt(Cycle now) const;

  private:
    void prune(std::uint32_t level);

    std::uint32_t onchipCapacity_;
    std::vector<std::deque<DispatchUnit *>> levels_;
    std::uint32_t entries_ = 0;
    /** Future visibility cycles of spilled entries (pruned lazily). */
    mutable std::multiset<Cycle> delayed_;
};

} // namespace laperm

#endif // LAPERM_SCHED_PRIORITY_QUEUES_HH
