/**
 * @file
 * Multi-tenant concurrent-kernel execution (DESIGN.md §14). The
 * TenantManager owns one simulated device and N workload streams; it
 * interleaves them with three mechanisms:
 *
 *  1. Admission control (BEMPS idiom): a tenant's next host wave only
 *     launches while device warp occupancy is below the mix threshold
 *     (or the device is empty) and the KDU has a free entry.
 *  2. Preemptive TB scheduling: while a higher-priority tenant is held
 *     at admission, the cheapest lower-priority tenant — by predicted
 *     drain cost from the per-tenant integer EWMA runtime predictor —
 *     is gated at TB boundaries (Gpu::setGatedTenant) so its
 *     resident TBs drain without being replaced.
 *  3. Open-loop arrivals: job i of a stream arrives at
 *     firstArrival + i*period in simulated cycles; queueing delay is
 *     charged to turnaround, never rescheduled away.
 *
 * Decisions are made only between run slices (every mix quantum), so
 * the engine's byte-identical dense/event tick equivalence is
 * preserved: the manager is a pure driver on top of Gpu::runUntil /
 * Gpu::advanceTo plus the obs::TenantTracker counters.
 */

#ifndef LAPERM_TENANT_TENANT_MANAGER_HH
#define LAPERM_TENANT_TENANT_MANAGER_HH

#include <vector>

#include "sim/config.hh"
#include "tenant/metrics.hh"
#include "tenant/tenant_spec.hh"
#include "workloads/workload.hh"

namespace laperm {
namespace tenant {

/**
 * Drives one mix on one device configuration. Workloads are borrowed:
 * index-aligned with mix.tenants, already setup(), and reusable across
 * managers (waves() is const after setup).
 */
class TenantManager
{
  public:
    TenantManager(const MixSpec &mix, const GpuConfig &cfg,
                  std::vector<const Workload *> workloads);

    /** Run the whole mix to completion and collect per-tenant results. */
    MultiTenantResult run();

  private:
    const MixSpec mix_;
    const GpuConfig cfg_;
    std::vector<const Workload *> workloads_;
};

/** A shared run, its per-tenant solo baselines, and the metrics. */
struct MixStudy
{
    MultiTenantResult shared;
    std::vector<TenantRunResult> solo;
    MixMetrics metrics;
};

/**
 * Convenience driver: instantiate the mix's workloads (scale from each
 * TenantSpec, seed from @p cfg), run the shared mix, then each tenant
 * alone with its own arrival schedule, and finalize the metrics.
 */
MixStudy runMixStudy(const MixSpec &mix, const GpuConfig &cfg);

} // namespace tenant
} // namespace laperm

#endif // LAPERM_TENANT_TENANT_MANAGER_HH
