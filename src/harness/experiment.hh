/**
 * @file
 * Experiment driver: runs workload x model x policy configurations on
 * the Table I device and collects the metrics the paper plots. Every
 * cell is one record in the result store (harness/result_cache.hh), so
 * the per-figure bench binaries share one simulation sweep.
 */

#ifndef LAPERM_HARNESS_EXPERIMENT_HH
#define LAPERM_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "harness/result_cache.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace laperm {

/** The Table I configuration (K20c / GK110). */
GpuConfig paperConfig();

/** Metrics of one simulation run. */
struct RunResult
{
    std::string workload;
    DynParModel model = DynParModel::CDP;
    TbPolicy policy = TbPolicy::RR;

    double ipc = 0.0;
    double l1HitRate = 0.0;
    double l2HitRate = 0.0;
    double cycles = 0.0;
    double smxUtilization = 0.0;
    double smxImbalance = 0.0;
    double boundFraction = 0.0; ///< bound / dynamic TB dispatches
    double queueOverflows = 0.0;
    double kduFullStalls = 0.0;

    /** Every field equal: what a reload from the store must give. */
    bool operator==(const RunResult &) const = default;
};

/** Run one configuration (workload must be set up). */
RunResult runOne(const Workload &workload, const GpuConfig &cfg);

/**
 * Run one configuration and return the full canonical record (every
 * counter the CSV report and RunResult derive from). When @p trace_dir
 * is non-empty, the observability artifacts of DESIGN.md §8 are
 * written there under "<workload>_<model>_<policy>.*". This is the
 * execution path the serving subsystem (src/serve) uses; runOne is a
 * thin wrapper that honors LAPERM_TRACE_DIR instead.
 */
ResultRecord runOneRecord(const Workload &workload, const GpuConfig &cfg,
                          const std::string &trace_dir);

/**
 * Full sweep: every workload in @p names under every model x policy,
 * returned workload-major, then model, then policy, exactly the
 * requested cells in argument order.
 *
 * Cells are independent simulations and execute on a thread pool, one
 * job per cell; the results are the same at any worker count.
 *
 * @param use_cache probe and store each cell as one record in the
 *        result store under $LAPERM_CACHE_DIR (default "cache/" in the
 *        working directory), keyed like the served request for the
 *        same simulation, so the figure benches and the daemon share
 *        results. Only workloads with a missing cell are set up.
 *        LAPERM_NO_CACHE=1 disables it; when disabled no key is
 *        computed and the store is not touched.
 * @param jobs worker threads; 0 selects LAPERM_JOBS from the
 *        environment, falling back to hardware_concurrency().
 */
std::vector<RunResult> runMatrix(const std::vector<std::string> &names,
                                 Scale scale, std::uint64_t seed,
                                 bool use_cache = true,
                                 unsigned jobs = 0);

/**
 * runMatrix on a named hardware preset (sim/presets.hh): the preset is
 * a fourth sweep axis. "k20c" is exactly runMatrix, the same records.
 * The cross-generation study (EXPERIMENTS.md) drives this per preset.
 */
std::vector<RunResult> runMatrixPreset(
    const std::vector<std::string> &names, const std::string &preset,
    Scale scale, std::uint64_t seed, bool use_cache = true,
    unsigned jobs = 0);

/** Find a result in a sweep; fatal if missing. */
const RunResult &findResult(const std::vector<RunResult> &results,
                            const std::string &workload,
                            DynParModel model, TbPolicy policy);

/** Arithmetic mean of @p metric over a sweep subset. */
double meanOver(const std::vector<RunResult> &results, DynParModel model,
                TbPolicy policy, double RunResult::*metric);

} // namespace laperm

#endif // LAPERM_HARNESS_EXPERIMENT_HH
