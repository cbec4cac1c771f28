#include "harness/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "harness/thread_pool.hh"
#include "obs/locality.hh"
#include "obs/trace_collector.hh"
#include "sim/config_loader.hh"
#include "sim/presets.hh"
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

} // namespace

ResultRecord
runOneRecord(const Workload &workload, const GpuConfig &cfg,
             const std::string &trace_dir)
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
    gpu.runWaves(workload.waves());
    if (collector) {
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        const std::string base =
            logFormat("%s/%s_%s_%s", trace_dir.c_str(),
                      workload.fullName().c_str(),
                      toString(cfg.dynParModel), toString(cfg.tbPolicy));
        collector->writeChromeTrace(base + ".trace.json");
        collector->writeIntervalTsv(base + ".intervals.tsv");
        collector->writeLaunchLatencyTsv(base + ".latency.tsv");
        locality->writeTsv(base + ".locality.tsv");
    }
    return ResultRecord::fromStats(workload.fullName(), cfg.dynParModel,
                                   cfg.tbPolicy, gpu.stats(),
                                   machineHash(cfg));
}

RunResult
runOne(const Workload &workload, const GpuConfig &cfg)
{
    return runOneRecord(workload, cfg, traceDir()).toRunResult();
}

namespace {

constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::TbPri,
                                  TbPolicy::SmxBind,
                                  TbPolicy::AdaptiveBind};
constexpr DynParModel kModels[] = {DynParModel::CDP, DynParModel::DTBL};

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

    // Fatal on an unknown preset before any simulation spends cycles;
    // the machine geometry below is presetConfig(preset) with the
    // harness-level tick-mode override layered on top (paperConfig()
    // handles LAPERM_TICK_MODE; the preset must not undo it).
    GpuConfig base_machine = presetConfig(preset);
    base_machine.tickMode = paperConfig().tickMode;

    // Same early-fatal discipline for the workload axis: an unknown
    // name (e.g. a typo in a tenant/mix spec routed here) dies with
    // the structured known-names error, never a mid-sweep surprise.
    for (const std::string &name : names) {
        if (!isKnownWorkload(name)) {
            laperm_fatal("unknown workload '%s' (known: %s)",
                         name.c_str(), workloadNameList().c_str());
        }
    }

    // Slots are workload-major, then model, then policy: the serial
    // loop order. Every job writes only its own slots, so the results
    // are the same no matter how many workers raced to fill them.
    constexpr std::size_t kNumModels = std::size(kModels);
    constexpr std::size_t kNumPolicies = std::size(kPolicies);
    const std::size_t cellsPerWorkload = kNumModels * kNumPolicies;
    const std::size_t numCells = names.size() * cellsPerWorkload;
    auto cellConfig = [&](std::size_t slot) {
        GpuConfig cfg = base_machine;
        cfg.dynParModel = kModels[slot / kNumPolicies % kNumModels];
        cfg.tbPolicy = kPolicies[slot % kNumPolicies];
        cfg.seed = seed;
        return cfg;
    };

    std::vector<RunResult> results(numCells);
    std::vector<std::string> keys(numCells);
    std::vector<char> missing(numCells, 1);
    std::optional<ResultCache> store;
    if (use_cache)
        store.emplace();
    // Fills the slot from the store; false on a miss or without one.
    auto loadCell = [&](std::size_t slot) {
        if (!store)
            return false;
        const GpuConfig cfg = cellConfig(slot);
        keys[slot] = contentKey(appCellCanonical(
            names[slot / cellsPerWorkload], cfg.dynParModel, cfg.tbPolicy,
            scale, seed, cfg));
        std::string payload;
        ResultRecord rec;
        if (store->probe(keys[slot], payload) == ResultCache::Tier::Miss ||
            !ResultRecord::decode(payload, rec)) {
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
    std::vector<std::unique_ptr<Workload>> workloads(names.size());
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, std::max<std::size_t>(
                                            names.size(), 1))));
        for (std::size_t i = 0; i < names.size(); ++i) {
            pool.submit([&, i] {
                bool needInputs = false;
                for (std::size_t c = 0; c < cellsPerWorkload; ++c)
                    needInputs = !loadCell(i * cellsPerWorkload + c) ||
                                 needInputs;
                if (!needInputs)
                    return;
                auto w = createWorkload(names[i]);
                w->setup(scale, seed);
                workloads[i] = std::move(w);
            });
        }
        pool.wait();
    }

    // Phase 2: one job per missing cell, each owning its own Gpu and
    // storing its own record.
    const auto numMissing = static_cast<std::size_t>(
        std::count(missing.begin(), missing.end(), 1));
    if (numMissing == 0)
        return results;
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, numMissing)));
        for (std::size_t slot = 0; slot < numCells; ++slot) {
            if (!missing[slot])
                continue;
            pool.submit([&, slot] {
                const GpuConfig cfg = cellConfig(slot);
                const std::size_t i = slot / cellsPerWorkload;
                const ResultRecord rec =
                    runOneRecord(*workloads[i], cfg, traceDir());
                if (store)
                    store->store(keys[slot], rec.encode());
                results[slot] = rec.toRunResult();
                laperm_inform("%s %s/%s: ipc=%.2f l1=%.3f l2=%.3f",
                              names[i].c_str(), toString(cfg.dynParModel),
                              toString(cfg.tbPolicy), rec.ipc, rec.l1,
                              rec.l2);
            });
        }
        pool.wait();
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
