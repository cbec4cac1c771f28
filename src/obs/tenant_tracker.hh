/**
 * @file
 * Per-tenant attribution of the simulator's event stream (DESIGN.md
 * §14). The tracker is a pure SimObserver: it folds TB dispatch/retire
 * and launch admission events into per-tenant counters — outstanding
 * TBs, pending device launches, retired-TB progress, last-drain cycle —
 * which the multi-tenant manager (src/tenant/) polls between run
 * slices. Like every observer, it never feeds state back into the
 * engine; detaching it cannot change any simulated result.
 *
 * All accumulation is integer: cycles in, cycles out.
 */

#ifndef LAPERM_OBS_TENANT_TRACKER_HH
#define LAPERM_OBS_TENANT_TRACKER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/observer.hh"

namespace laperm {
namespace obs {

/** Counters for one tenant stream. */
struct TenantCounters
{
    /** TBs admitted (host + device + coalesced) and not yet retired. */
    std::uint64_t outstandingTbs = 0;
    /** Device launches queued in the KMU, not yet admitted. */
    std::uint64_t pendingLaunches = 0;
    /** TBs dispatched to an SMX over the whole run. */
    std::uint64_t dispatchedTbs = 0;
    /** TBs retired over the whole run (the progress metric). */
    std::uint64_t retiredTbs = 0;
    /** Kernels/TB-groups admitted over the whole run. */
    std::uint64_t kernelsAdmitted = 0;
    /** Cycle of the last busy -> drained transition. */
    Cycle lastDrainCycle = 0;
};

/**
 * SimObserver folding the event stream into TenantCounters, one slot
 * per tenant id (the vector grows on demand — tenant ids are dense,
 * assigned 0..N-1 by the manager).
 */
class TenantTracker : public SimObserver
{
  public:
    void onTbDispatch(const TbEvent &e) override;
    void onTbRetire(const TbEvent &e) override;
    void onLaunchQueued(const LaunchEvent &e) override;
    void onLaunchAdmitted(const LaunchEvent &e) override;

    /** Counters for @p tenant (zeros if it never emitted an event). */
    const TenantCounters &counters(std::uint32_t tenant) const;

    /** In-flight work: admitted-unretired TBs or queued launches. */
    bool busy(std::uint32_t tenant) const
    {
        const TenantCounters &c = counters(tenant);
        return c.outstandingTbs > 0 || c.pendingLaunches > 0;
    }

    /** TBs resident or awaiting dispatch (the preemption-cost input). */
    std::uint64_t residentTbs(std::uint32_t tenant) const
    {
        const TenantCounters &c = counters(tenant);
        return c.dispatchedTbs - c.retiredTbs;
    }

  private:
    TenantCounters &slot(std::uint32_t tenant);

    std::vector<TenantCounters> perTenant_;
};

} // namespace obs
} // namespace laperm

#endif // LAPERM_OBS_TENANT_TRACKER_HH
