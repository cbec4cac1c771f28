/**
 * @file
 * The four TB scheduling policies evaluated in the paper.
 */

#ifndef LAPERM_SCHED_POLICIES_HH
#define LAPERM_SCHED_POLICIES_HH

#include <deque>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "sched/priority_queues.hh"
#include "sched/tb_scheduler.hh"

namespace laperm {

/**
 * Baseline round-robin scheduler (Section III-B): FCFS across kernels,
 * each TB to the next SMX with enough free resources; dynamic TBs are
 * dispatched after the natives of earlier kernels.
 */
class RrScheduler : public TbScheduler
{
  public:
    RrScheduler(const GpuConfig &cfg, DispatchContext &ctx);

    void enqueue(DispatchUnit *unit, Cycle now) override;
    bool dispatchOne(Cycle now) override;
    Cycle nextReadyAt(Cycle now) const override;
    void noteCapacityFreed() override { stuck_ = false; }

  private:
    /** One TB's resource demand; equal shapes fit identically. */
    struct Shape
    {
        std::uint32_t threads;
        std::uint32_t regs;
        std::uint32_t smem;
        bool operator==(const Shape &) const = default;
    };

    std::deque<DispatchUnit *> units_; ///< FCFS order
    SmxId cursor_ = 0;
    std::size_t compactAbove_ = 128;

    /**
     * Failed-scan memo: a failed dispatchOne is a pure function of the
     * unit queue, the rotation cursor, and per-SMX free resources.
     * None of those can change except through enqueue(), a dispatch
     * (which only follows a successful scan), noteCapacityFreed(), or
     * a delayed unit reaching its readyAt — so until one of them
     * happens the scan provably still fails and is skipped in O(1).
     */
    bool stuck_ = false;
    /** Earliest readyAt among delayed units seen by the failed scan. */
    Cycle stuckReadyAt_ = kNoCycle;
    /** Per-scan scratch: shapes that already failed on every SMX. */
    std::vector<Shape> blockedShapes_;
};

/**
 * TB Prioritizing (Section IV-A): one global set of priority queues;
 * child TBs (priority parent+1, clamped to L) dispatch before lower
 * priorities; SMX selection stays round-robin.
 */
class TbPriScheduler : public TbScheduler
{
  public:
    TbPriScheduler(const GpuConfig &cfg, DispatchContext &ctx);

    void enqueue(DispatchUnit *unit, Cycle now) override;
    bool dispatchOne(Cycle now) override;
    Cycle nextReadyAt(Cycle now) const override;

  private:
    PriorityQueues queues_;
    SmxId cursor_ = 0;
};

/**
 * Prioritized SMX Binding (Section IV-B) and its Adaptive extension
 * (Section IV-C). Per-cluster priority queues for dynamic TBs, a shared
 * level-0 queue for host kernels, one SMX examined per cycle, and —
 * when adaptive — the recorded-backup stage 3 of Figure 6.
 */
class SmxBindScheduler : public TbScheduler
{
  public:
    SmxBindScheduler(const GpuConfig &cfg, DispatchContext &ctx,
                     bool adaptive);

    void enqueue(DispatchUnit *unit, Cycle now) override;
    bool dispatchOne(Cycle now) override;
    Cycle nextReadyAt(Cycle now) const override;

  private:
    std::uint32_t cluster(SmxId smx) const
    {
        return smx / cfg_.smxPerCluster;
    }

    bool adaptive_;
    std::vector<PriorityQueues> perCluster_;
    PriorityQueues hostQueue_;
    /** Recorded backup cluster per cluster; -1 = none (Figure 6). */
    std::vector<int> backup_;
    SmxId cursor_ = 0;
    Rng rng_;
};

} // namespace laperm

#endif // LAPERM_SCHED_POLICIES_HH
