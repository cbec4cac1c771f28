/**
 * @file
 * Multi-tenant contention sweep: mix x hardware preset x TB policy,
 * one MixStudy (shared run + solo baselines, src/tenant/) per cell.
 * Like the single-app sweep (harness/experiment.hh) it runs its cells
 * through runCells (harness/run_spec.hh), which keeps each cell as one
 * record in the result store (harness/result_cache.hh): the same
 * record a served `tenants` request reads and writes, so
 * bench_multitenant, the EXPERIMENTS.md contention study and the
 * daemon share one set of simulations.
 */

#ifndef LAPERM_HARNESS_TENANT_SWEEP_HH
#define LAPERM_HARNESS_TENANT_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "tenant/metrics.hh"
#include "tenant/tenant_spec.hh"

namespace laperm {

/**
 * One tenant of one (mix, preset, policy) cell. Mix-level metrics
 * (ANTT mean, STP, Jain, makespan) repeat on every row of the cell so
 * each row is self-contained for plotting.
 */
struct TenantSweepRow
{
    std::string mix;
    std::string preset = "k20c";
    TbPolicy policy = TbPolicy::RR;
    std::string tenant;        ///< stream name within the mix
    std::uint32_t tenantId = 0;
    std::uint32_t jobs = 0;
    double antt = 0.0;         ///< per-tenant normalized turnaround
    std::uint64_t p50 = 0;     ///< wave-latency percentiles, cycles
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t retiredTbs = 0;
    double mixAntt = 0.0;
    double mixStp = 0.0;
    double mixJain = 0.0;
    std::uint64_t makespan = 0;
};

/** Serialize rows (header comment + one row per tenant, %.17g doubles). */
std::string encodeTenantSweepTsv(const std::vector<TenantSweepRow> &rows);

/**
 * Parse encodeTenantSweepTsv output. False, with @p out unchanged, on
 * any text that encodeTenantSweepTsv would not write back byte for
 * byte: a malformed row, trailing junk, a missing header, another
 * separator or another spelling of a number.
 */
bool decodeTenantSweepTsv(const std::string &tsv,
                          std::vector<TenantSweepRow> &out);

/**
 * Decode @p payload into @p out and check that it is the record of
 * @p mix run on the preset labelled @p preset under @p policy: one row
 * per tenant of the mix, in tenant order, each naming the mix, the
 * preset and the policy. The mix cell's counterpart of
 * decodeCellRecord: a record stored under a mix cell's key that
 * describes another cell, is empty or does not decode is not that
 * cell's result.
 */
bool decodeMixRecord(const std::string &payload, const tenant::MixSpec &mix,
                     const std::string &preset, TbPolicy policy,
                     std::vector<TenantSweepRow> &out);

/**
 * The rows of one (mix, preset, policy) cell, one per tenant, from the
 * cell's mix metrics: what laperm_sim --tenants-tsv writes, a served
 * `tenants` request returns and the tenant sweep stores.
 */
std::vector<TenantSweepRow> tenantSweepRows(const std::string &mix,
                                            const std::string &preset,
                                            TbPolicy policy,
                                            const tenant::MixMetrics &m);

/**
 * Run every builtin mix in @p mixes on every preset in @p presets under
 * all four TB policies (the dynamic-parallelism model stays the device
 * default). Rows come back grouped by (mix, preset) in argument order,
 * then policy in enum order, then tenant id — byte-identical at any
 * worker count and in both tick modes.
 *
 * @param use_cache, jobs as runCells takes them: each (mix, preset,
 *        policy) cell is one record, like a single-app sweep cell.
 */
std::vector<TenantSweepRow> runTenantSweep(
    const std::vector<std::string> &mixes,
    const std::vector<std::string> &presets, std::uint64_t seed,
    bool use_cache = true, unsigned jobs = 0);

} // namespace laperm

#endif // LAPERM_HARNESS_TENANT_SWEEP_HH
