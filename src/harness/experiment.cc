#include "harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "gpu/trace_forest.hh"
#include "harness/run_spec.hh"
#include "harness/thread_pool.hh"
#include "harness/trace_builder.hh"
#include "obs/locality.hh"
#include "obs/trace_collector.hh"
#include "sim/config_loader.hh"
#include "workloads/registry.hh"

namespace laperm {

GpuConfig
paperConfig()
{
    // Defaults already encode Table I; spelled out for documentation.
    GpuConfig cfg;
    cfg.numSmx = 13;
    cfg.maxThreadsPerSmx = 2048;
    cfg.maxTbsPerSmx = 16;
    cfg.regsPerSmx = 65536;
    cfg.smemPerSmx = 32 * 1024;
    cfg.l1Size = 32 * 1024;
    cfg.l2Size = 1536 * 1024;
    cfg.kduEntries = 32;
    cfg.warpPolicy = WarpPolicy::GTO;
    // LAPERM_TICK_MODE=dense|event selects the simulation core's
    // time-advance strategy for every harness run (used by the
    // differential determinism gate; results are byte-identical).
    if (const char *tm = std::getenv("LAPERM_TICK_MODE")) {
        if (*tm && !parseWireName(tm, cfg.tickMode))
            laperm_fatal("bad LAPERM_TICK_MODE '%s' (want %s)", tm,
                         wireNameList<TickMode>().c_str());
    }
    return cfg;
}

namespace {

/**
 * Per-cell trace opt-in for sweeps: when LAPERM_TRACE_DIR is set, every
 * simulated cell writes its observability artifacts into that directory
 * under a deterministic name derived from the cell coordinates. Purely
 * additive: the record (and therefore the store) is unaffected, and
 * each cell owns its collector, so the parallel sweep stays
 * byte-deterministic at any worker count.
 */
std::string
traceDir()
{
    const char *dir = std::getenv("LAPERM_TRACE_DIR");
    return dir && *dir ? dir : std::string();
}

/** The record of one run of @p workload on @p cfg. */
ResultRecord
cellRecord(const Workload &workload, const GpuConfig &cfg,
           const GpuStats &stats)
{
    return ResultRecord::fromStats(workload.fullName(), cfg.dynParModel,
                                   cfg.tbPolicy, stats, machineHash(cfg));
}

} // namespace

GpuStats
runTraced(const Workload &workload, TraceForest &forest,
          const GpuConfig &cfg, const std::string &trace_dir)
{
    Gpu gpu(cfg);
    std::unique_ptr<obs::TraceCollector> collector;
    std::unique_ptr<obs::LocalityTracker> locality;
    if (!trace_dir.empty()) {
        collector = std::make_unique<obs::TraceCollector>();
        gpu.observers().attach(collector.get());
        locality =
            std::make_unique<obs::LocalityTracker>(gpu.mem().numL1());
        gpu.setLocalityTracker(locality.get());
    }
    gpu.runForest(forest);
    if (collector) {
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        const std::string base =
            logFormat("%s/%s_%s_%s", trace_dir.c_str(),
                      workload.fullName().c_str(),
                      toString(cfg.dynParModel), toString(cfg.tbPolicy));
        if (!collector->writeDispatchCsv(base + ".dispatch.csv") ||
            !collector->writeChromeTrace(base + ".trace.json") ||
            !collector->writeIntervalTsv(base + ".intervals.tsv") ||
            !collector->writeLaunchLatencyTsv(base + ".latency.tsv") ||
            !locality->writeTsv(base + ".locality.tsv")) {
            laperm_fatal("could not write trace artifacts '%s.*'",
                         base.c_str());
        }
    }
    return gpu.stats();
}

ResultRecord
runOneRecord(const Workload &workload, const GpuConfig &cfg,
             const std::string &trace_dir)
{
    TraceForest forest(workload.waves());
    TraceBuilder builder(forest);
    const GpuStats stats = runTraced(workload, forest, cfg, trace_dir);
    builder.finish();
    return cellRecord(workload, cfg, stats);
}

RunResult
runOne(const Workload &workload, const GpuConfig &cfg)
{
    return runOneRecord(workload, cfg, traceDir()).toRunResult();
}

namespace {

/**
 * One input of a batch (runCells) and what its missing cells share:
 * one set-up and, when more than one is missing, one shared trace
 * forest, which the batch's builder thread builds ahead and the cells
 * replay. Policy, model and machine decide only when and where a TB
 * runs, never what it executes. The last missing cell to finish frees
 * the input and drops its hold on the forest; the forest's last owner
 * frees it. A mix cell is an input of its own and shares nothing.
 */
struct SweepInput
{
    std::size_t first = 0; ///< its cells are [first, end)
    std::size_t end = 0;
    std::vector<std::size_t> missing; ///< its cells the store lacks
    std::unique_ptr<Workload> workload;
    std::shared_ptr<TraceForest> forest;
    std::atomic<std::size_t> cellsLeft{0};
};

/**
 * The input-sharing decision: whether cell @p b joins the input that
 * cell @p a starts. Single-app cells of one workload, scale and seed
 * share their input, whatever their machines.
 */
bool
sharesInput(const RunSpec &a, const RunSpec &b)
{
    return a.tenants.empty() && b.tenants.empty() &&
           a.workload == b.workload && a.scale == b.scale &&
           a.seed == b.seed;
}

} // namespace

std::vector<std::string>
runCells(const std::vector<RunSpec> &cells, bool use_cache, unsigned jobs)
{
    const char *no_cache = std::getenv("LAPERM_NO_CACHE");
    if (no_cache && *no_cache == '1')
        use_cache = false;
    if (jobs == 0)
        jobs = ThreadPool::defaultJobs();
    std::optional<ResultCache> store;
    if (use_cache)
        store.emplace();

    // An input is a run of consecutive cells; one whose cells come
    // back later starts again and shares nothing with its first run.
    // A deque grows without moving an input (its counter cannot move).
    std::deque<SweepInput> inputs;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (inputs.empty() ||
            !sharesInput(cells[inputs.back().first], cells[c])) {
            inputs.emplace_back().first = c;
        }
        inputs.back().end = c + 1;
    }
    std::vector<std::string> payloads(cells.size());

    // Phase 1: one job per input. It probes the input's cells and sets
    // up a single-app input only if one of them is missing. A record
    // on disk counts only if it is its cell's: a foreign or garbled one
    // is recomputed, and the store overwrites it. Workloads are
    // immutable after setup() (traces const, programs const), so the
    // cell jobs below const-borrow them concurrently.
    {
        ThreadPool pool(
            static_cast<unsigned>(std::min<std::size_t>(jobs, inputs.size())));
        for (SweepInput &in : inputs) {
            pool.submit([&cells, &store, &payloads, &in] {
                for (std::size_t c = in.first; c < in.end; ++c) {
                    if (!store ||
                        store->probe(cells[c].key(), payloads[c],
                                     std::bind_front(&RunSpec::accepts,
                                                     &cells[c])) ==
                            ResultCache::Tier::Miss) {
                        in.missing.push_back(c);
                    }
                }
                in.cellsLeft = in.missing.size();
                const RunSpec &head = cells[in.first];
                if (in.missing.empty() || !head.tenants.empty())
                    return;
                in.workload = createWorkload(head.workload);
                in.workload->setup(head.scale, head.seed);
            });
        }
        pool.wait();
    }

    // Phase 2: one job per missing cell, each owning its own Gpu and
    // filling its own slot, so the payloads are the same no matter how
    // many workers raced to fill them. One builder thread builds the
    // shared forests ahead in the order the pool takes their cells.
    std::size_t numMissing = 0;
    std::vector<std::shared_ptr<TraceForest>> forests;
    for (SweepInput &in : inputs) {
        numMissing += in.missing.size();
        if (in.workload && in.missing.size() > 1) {
            in.forest = std::make_shared<TraceForest>(
                in.workload->waves(), TraceForest::Sharing::Shared);
            forests.push_back(in.forest);
        }
    }
    if (numMissing == 0)
        return payloads;
    TraceBuilder builder(std::move(forests));
    {
        ThreadPool pool(
            static_cast<unsigned>(std::min<std::size_t>(jobs, numMissing)));
        for (SweepInput &in : inputs) {
            for (std::size_t c : in.missing) {
                pool.submit([&cells, &store, &payloads, &in, c] {
                    const RunSpec &cell = cells[c];
                    std::string &payload = payloads[c];
                    if (!cell.tenants.empty()) {
                        payload = runCell(cell, std::string());
                    } else if (in.forest) {
                        payload = cellRecord(*in.workload, cell.cfg,
                                             runTraced(*in.workload,
                                                       *in.forest, cell.cfg,
                                                       traceDir()))
                                      .encode();
                    } else {
                        payload = runOneRecord(*in.workload, cell.cfg,
                                               traceDir())
                                      .encode();
                    }
                    if (in.cellsLeft.fetch_sub(1) == 1) {
                        in.forest.reset();
                        in.workload.reset();
                    }
                    if (store)
                        store->store(cell.key(), payload);
                    laperm_inform(
                        "%s %s %s/%s",
                        (cell.tenants.empty() ? cell.workload : cell.tenants)
                            .c_str(),
                        cell.presetName.c_str(), toString(cell.model),
                        toString(cell.policy));
                });
            }
        }
        pool.wait();
    }
    builder.finish();
    return payloads;
}

std::vector<RunResult>
runMatrix(const std::vector<std::string> &names, Scale scale,
          std::uint64_t seed, bool use_cache, unsigned jobs)
{
    return runMatrixPreset(names, "k20c", scale, seed, use_cache, jobs);
}

std::vector<RunResult>
runMatrixPreset(const std::vector<std::string> &names,
                const std::string &preset, Scale scale,
                std::uint64_t seed, bool use_cache, unsigned jobs)
{
    // Cells are workload-major, then model, then policy: the serial
    // loop order, and one input per workload. Every cell is built as a
    // served request is parsed, and all of them before any runs, so an
    // unknown name dies with the structured known-names error before a
    // simulation spends cycles.
    std::vector<RunSpec> cells;
    for (const std::string &name : names) {
        for (DynParModel model : kDynParModels) {
            for (TbPolicy policy : kTbPolicies) {
                cells.push_back(sweepCell({{"preset", preset},
                                           {"workload", name},
                                           {"model", wireName(model)},
                                           {"policy", wireName(policy)},
                                           {"scale", toString(scale)},
                                           {"seed", std::to_string(seed)}}));
            }
        }
    }
    std::vector<RunResult> results;
    results.reserve(cells.size());
    for (const std::string &payload : runCells(cells, use_cache, jobs)) {
        ResultRecord rec;
        if (!ResultRecord::decode(payload, rec))
            laperm_panic("unreadable cell record");
        results.push_back(rec.toRunResult());
    }
    return results;
}

const RunResult &
findResult(const std::vector<RunResult> &results,
           const std::string &workload, DynParModel model,
           TbPolicy policy)
{
    for (const auto &r : results) {
        if (r.workload == workload && r.model == model &&
            r.policy == policy) {
            return r;
        }
    }
    laperm_fatal("no result for %s %s/%s", workload.c_str(),
                 toString(model), toString(policy));
}

double
meanOver(const std::vector<RunResult> &results, DynParModel model,
         TbPolicy policy, double RunResult::*metric)
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &r : results) {
        if (r.model == model && r.policy == policy) {
            sum += r.*metric;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

} // namespace laperm
