#include "harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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
            laperm_warn("could not write trace artifacts '%s.*'",
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
 * One set-up input of a sweep and what its missing cells share: a
 * shared trace forest, which the sweep's builder thread builds ahead
 * and the cells replay. The last cell to finish frees the input and
 * drops its hold on the forest; the forest's last owner frees it. An
 * input with one missing cell has nothing to share and runs as
 * runOneRecord does.
 */
struct SweepInput
{
    std::unique_ptr<Workload> workload;
    std::shared_ptr<TraceForest> forest;
    std::size_t missingCells = 0;
    std::atomic<std::size_t> cellsLeft{0};
};

} // namespace

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
    const char *no_cache = std::getenv("LAPERM_NO_CACHE");
    if (no_cache && *no_cache == '1')
        use_cache = false;
    if (jobs == 0)
        jobs = ThreadPool::defaultJobs();

    // Slots are workload-major, then model, then policy: the serial
    // loop order. Every cell is built as a served request is parsed,
    // and all of them before any runs, so an unknown name dies with
    // the structured known-names error before a simulation spends
    // cycles. Every job writes only its own slots, so the results are
    // the same no matter how many workers raced to fill them.
    constexpr std::size_t cellsPerWorkload =
        std::size(kDynParModels) * std::size(kTbPolicies);
    std::vector<RunSpec> cells;
    cells.reserve(names.size() * cellsPerWorkload);
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
    const std::size_t numCells = cells.size();

    std::vector<RunResult> results(numCells);
    std::vector<char> missing(numCells, 1);
    std::optional<ResultCache> store;
    if (use_cache)
        store.emplace();
    // Fills the slot from the store; false on a miss or without one.
    // A record on disk counts only if it is this cell's: a foreign or
    // garbled one is recomputed, and the store overwrites it. A disk
    // hit's record is the one isCell decoded; only a memory hit, which
    // skips isCell, is decoded here.
    auto loadCell = [&](std::size_t slot) {
        if (!store)
            return false;
        const RunSpec &cell = cells[slot];
        std::string payload;
        ResultRecord rec;
        const auto isCell = [&](const std::string &p) {
            return decodeCellRecord(p, cell.workload, cell.cfg, rec);
        };
        const ResultCache::Tier tier =
            store->probe(cell.key(), payload, isCell);
        if (tier == ResultCache::Tier::Miss ||
            (tier == ResultCache::Tier::Memory &&
             !ResultRecord::decode(payload, rec))) {
            return false;
        }
        results[slot] = rec.toRunResult();
        missing[slot] = 0;
        return true;
    };

    // Phase 1: one job per workload. It probes the workload's cells and
    // generates inputs only if one of them is missing. Workloads are
    // immutable after setup() (traces const, programs const), so the
    // cell jobs below const-borrow them concurrently.
    std::vector<SweepInput> inputs(names.size());
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, std::max<std::size_t>(
                                            names.size(), 1))));
        for (std::size_t i = 0; i < names.size(); ++i) {
            pool.submit([&, i] {
                std::size_t needed = 0;
                for (std::size_t c = 0; c < cellsPerWorkload; ++c)
                    needed += !loadCell(i * cellsPerWorkload + c);
                if (needed == 0)
                    return;
                auto w = createWorkload(names[i]);
                w->setup(scale, seed);
                inputs[i].workload = std::move(w);
                inputs[i].missingCells = needed;
                inputs[i].cellsLeft = needed;
            });
        }
        pool.wait();
    }

    // Phase 2: one job per missing cell, each owning its own Gpu and
    // storing its own record. Cells of one input replay one shared
    // trace forest: policy and model decide only when and where a TB
    // runs, never what it executes. One builder thread builds the
    // forests ahead in the order the pool takes their cells.
    const auto numMissing = static_cast<std::size_t>(
        std::count(missing.begin(), missing.end(), 1));
    if (numMissing == 0)
        return results;
    std::vector<std::shared_ptr<TraceForest>> forests;
    for (SweepInput &in : inputs) {
        if (in.missingCells > 1) {
            in.forest = std::make_shared<TraceForest>(
                in.workload->waves(), TraceForest::Sharing::Shared);
            forests.push_back(in.forest);
        }
    }
    TraceBuilder builder(std::move(forests));
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, numMissing)));
        for (std::size_t slot = 0; slot < numCells; ++slot) {
            if (!missing[slot])
                continue;
            pool.submit([&, slot] {
                const RunSpec &cell = cells[slot];
                SweepInput &in = inputs[slot / cellsPerWorkload];
                const ResultRecord rec =
                    in.forest ? cellRecord(*in.workload, cell.cfg,
                                           runTraced(*in.workload,
                                                     *in.forest, cell.cfg,
                                                     traceDir()))
                              : runOneRecord(*in.workload, cell.cfg,
                                             traceDir());
                if (in.cellsLeft.fetch_sub(1) == 1) {
                    in.forest.reset();
                    in.workload.reset();
                }
                if (store)
                    store->store(cell.key(), rec.encode());
                results[slot] = rec.toRunResult();
                laperm_inform("%s %s/%s: ipc=%.2f l1=%.3f l2=%.3f",
                              cell.workload.c_str(), toString(cell.model),
                              toString(cell.policy), rec.ipc, rec.l1,
                              rec.l2);
            });
        }
        pool.wait();
    }
    builder.finish();
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
