/**
 * @file
 * The TB-scheduler policy interface: the pluggable heart of the paper.
 * Policies receive dispatch units as they become visible and are asked
 * to dispatch at most one TB per cycle, mirroring the SMX scheduler.
 */

#ifndef LAPERM_SCHED_TB_SCHEDULER_HH
#define LAPERM_SCHED_TB_SCHEDULER_HH

#include <memory>

#include "common/types.hh"
#include "sched/dispatch_unit.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace laperm {

namespace obs {
class ObserverHub;
} // namespace obs

/** What a TB scheduler may do to the device. */
class DispatchContext
{
  public:
    virtual ~DispatchContext() = default;

    virtual std::uint32_t numSmx() const = 0;

    /** Whether @p unit's next TB fits on @p smx right now. */
    virtual bool fits(SmxId smx, const DispatchUnit &unit) const = 0;

    /** Pop @p unit's next TB and dispatch it to @p smx. */
    virtual void dispatchTb(DispatchUnit &unit, SmxId smx, Cycle now) = 0;

    virtual GpuStats &mutableStats() = 0;

    /** Observability fan-out (DESIGN.md §8); policies may emit into it. */
    virtual obs::ObserverHub &observers() = 0;

    /**
     * The one tenant whose dispatch is yielded, or kNoTenant (the
     * single-tenant default). Schedulers skip its units exactly as they
     * skip units that are not yet ready.
     */
    virtual std::uint32_t gatedTenant() const { return kNoTenant; }
};

/**
 * Base class for the four policies (RR, TB-Pri, SMX-Bind,
 * Adaptive-Bind).
 */
class TbScheduler
{
  public:
    TbScheduler(const GpuConfig &cfg, DispatchContext &ctx)
        : cfg_(cfg), ctx_(ctx)
    {}
    virtual ~TbScheduler() = default;

    /** A dispatch unit became visible (admitted / coalesced / ready). */
    virtual void enqueue(DispatchUnit *unit, Cycle now) = 0;

    /** Attempt one TB dispatch. @return true if a TB was dispatched. */
    virtual bool dispatchOne(Cycle now) = 0;

    /**
     * Earliest cycle at which a currently blocked unit becomes
     * dispatchable due to scheduler-internal delays (overflow fetches);
     * kNoCycle if nothing is internally delayed.
     */
    virtual Cycle nextReadyAt(Cycle now) const = 0;

    /**
     * Dispatch capacity may have grown (a TB completed and freed SMX
     * resources, or the contention throttle raised a residency cap).
     * Policies that memoize a failed dispatch scan must drop the memo
     * here; purely an optimization hook, so a no-op by default.
     */
    virtual void noteCapacityFreed() {}

    /** Factory selecting the policy from @p cfg. */
    static std::unique_ptr<TbScheduler> create(const GpuConfig &cfg,
                                               DispatchContext &ctx);

  protected:
    const GpuConfig &cfg_;
    DispatchContext &ctx_;
};

} // namespace laperm

#endif // LAPERM_SCHED_TB_SCHEDULER_HH
