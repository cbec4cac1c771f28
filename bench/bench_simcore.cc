/**
 * @file
 * Wall-clock self-benchmark of the simulator core: for each
 * workload x policy cell, runs the identical simulation under the dense
 * reference loop and the event-driven core (DESIGN.md §11), timing only
 * Gpu::runWaves (workload setup is amortized outside the timer), and
 * writes BENCH_simcore.json with simulated cycles/sec per mode and the
 * event/dense speedup. Each event-mode run also reports the core's
 * host work counters (Gpu::workCounters: run-loop steps, SMX ticks,
 * MSHR inserts, TBs the simulation thread built at dispatch and the
 * thread ops they emitted), so a host-side change shows as less work
 * and not only as less time. Both modes visit the same cycles, so each
 * cell also prints the dense run's steps beside the event run's, and
 * how many of them made no progress (nothing admitted, dispatched,
 * issued or retired), which must match too.
 *
 * Each event-mode cell runs once more beside a builder thread
 * (harness/trace_builder.hh), timed the same way: its columns are the
 * nodes the builder and the simulation thread built and the times the
 * simulation thread waited for a node. Those depend on thread timing,
 * so they are printed and never compared; the TBs and thread ops built
 * in total are each node's once, so they must equal the inline run's.
 * Each workload's event-mode cells then run again from one shared
 * trace forest (gpu/trace_forest.hh) built whole before they start:
 * the forest's builds are counted once, the cells' replays separately,
 * and every replayed cell must match the inline run and build nothing.
 *
 * Usage: bench_simcore [tiny|small|full] (default: $LAPERM_SCALE, else
 * small), the scale argument every bench takes.
 *
 * Exits nonzero if any cell's cycles, steps or no-progress steps
 * diverge between modes, or its run beside a builder or its forest
 * replay diverges.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "gpu/trace_forest.hh"
#include "harness/experiment.hh"
#include "harness/trace_builder.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

/**
 * A spread over Table II — launch-heavy (bfs), barrier/compute (bht,
 * amr), and memory-streaming (clr, pre, join) behaviors — plus the
 * chase-ring latency microbenchmark (not in Table II), whose
 * stall-dominated cycles are the event core's showcase: nearly every
 * cycle has all SMXs parked on DRAM returns, which the dense loop must
 * poll through and the event core sleeps through.
 */
const char *const kWorkloads[] = {
    "amr-combustion", "bht-points",    "bfs-citation", "clr-cage",
    "pre-movielens",  "join-uniform",  "chase-ring",
};

constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::AdaptiveBind};

struct Cell
{
    std::string workload;
    TbPolicy policy;
    Cycle cycles = 0;
    std::uint64_t denseBatches = 0;
    std::uint64_t denseNoProgress = 0;
    double denseSec = 0.0;
    double eventSec = 0.0;
    double builderSec = 0.0; ///< event mode beside a builder thread
    WorkCounters work; ///< of the event-mode run
    TraceForest::Counts builder; ///< of the builder run's forest
    double speedup() const
    {
        return eventSec > 0.0 ? denseSec / eventSec : 0.0;
    }
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

GpuConfig
cellConfig(TbPolicy policy, TickMode mode, std::uint64_t seed)
{
    GpuConfig cfg = paperConfig();
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tbPolicy = policy;
    cfg.seed = seed;
    cfg.tickMode = mode;
    return cfg;
}

/** Simulate one cell of @p waves in one mode; returns stats cycles. */
Cycle
simulate(const std::vector<LaunchRequest> &waves, TbPolicy policy,
         TickMode mode, std::uint64_t seed, double &seconds,
         WorkCounters &work)
{
    Gpu gpu(cellConfig(policy, mode, seed));
    const auto t0 = std::chrono::steady_clock::now();
    gpu.runWaves(waves);
    seconds = secondsSince(t0);
    work = gpu.workCounters();
    return gpu.stats().cycles;
}

/**
 * The event-mode cell of @p waves on a private forest beside a builder
 * thread; @p tbs and @p thread_ops are what both threads built.
 */
Cycle
simulateWithBuilder(const std::vector<LaunchRequest> &waves,
                    TbPolicy policy, std::uint64_t seed, double &seconds,
                    TraceForest::Counts &counts, std::uint64_t &tbs,
                    std::uint64_t &thread_ops)
{
    Gpu gpu(cellConfig(policy, TickMode::Event, seed));
    const auto t0 = std::chrono::steady_clock::now();
    TraceForest forest(waves);
    TraceBuilder builder(forest);
    gpu.runForest(forest);
    builder.finish();
    seconds = secondsSince(t0);
    counts = forest.counts();
    tbs = forest.tbsBuilt();
    thread_ops = forest.threadOps();
    return gpu.stats().cycles;
}

/** The event-mode cell replaying @p forest, shared by its workload's. */
Cycle
replayForest(TraceForest &forest, TbPolicy policy, std::uint64_t seed,
             WorkCounters &work)
{
    Gpu gpu(cellConfig(policy, TickMode::Event, seed));
    gpu.runForest(forest);
    work = gpu.workCounters();
    return gpu.stats().cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    const Scale scale = argc > 1 ? scaleFromString(argv[1])
                                 : scaleFromEnv(Scale::Small);
    const std::uint64_t seed = 1;

    bool identical = true;
    std::vector<Cell> cells;
    std::uint64_t forestTbs = 0;
    std::uint64_t forestThreadOps = 0;
    std::uint64_t forestReplayed = 0;
    for (const char *name : kWorkloads) {
        auto w = createWorkload(name);
        w->setup(scale, seed);
        const std::size_t first = cells.size();
        for (TbPolicy policy : kPolicies) {
            Cell cell;
            cell.workload = name;
            cell.policy = policy;
            WorkCounters dense_work;
            const Cycle dense = simulate(w->waves(), policy, TickMode::Dense,
                                         seed, cell.denseSec, dense_work);
            cell.cycles = simulate(w->waves(), policy, TickMode::Event, seed,
                                   cell.eventSec, cell.work);
            cell.denseBatches = dense_work.batches;
            cell.denseNoProgress = dense_work.noProgressSteps;
            std::uint64_t tbs = 0;
            std::uint64_t ops = 0;
            const Cycle ahead =
                simulateWithBuilder(w->waves(), policy, seed,
                                    cell.builderSec, cell.builder, tbs, ops);
            if (ahead != cell.cycles || tbs != cell.work.tbsBuilt ||
                ops != cell.work.threadOps) {
                std::fprintf(stderr,
                             "FAIL: %s/%s beside a builder: %llu cycles, "
                             "%llu TBs, %llu ops built\n",
                             name, toString(policy),
                             static_cast<unsigned long long>(ahead),
                             static_cast<unsigned long long>(tbs),
                             static_cast<unsigned long long>(ops));
                identical = false;
            }
            if (dense != cell.cycles ||
                cell.denseBatches != cell.work.batches ||
                cell.denseNoProgress != cell.work.noProgressSteps) {
                std::fprintf(stderr,
                             "FAIL: %s/%s diverge (dense %llu cycles, "
                             "%llu batches, %llu without progress; event "
                             "%llu cycles, %llu batches, %llu without "
                             "progress)\n",
                             name, toString(policy),
                             static_cast<unsigned long long>(dense),
                             static_cast<unsigned long long>(
                                 cell.denseBatches),
                             static_cast<unsigned long long>(
                                 cell.denseNoProgress),
                             static_cast<unsigned long long>(cell.cycles),
                             static_cast<unsigned long long>(
                                 cell.work.batches),
                             static_cast<unsigned long long>(
                                 cell.work.noProgressSteps));
                identical = false;
            }
            std::printf("%-14s %-13s %9llu cyc  dense %.3fs  "
                        "event %.3fs  %.2fx  builder %.3fs (nodes "
                        "%llu ahead, %llu inline, %llu waits)  "
                        "batches %llu/%llu (no progress %llu)  "
                        "ticks %llu  mshr %llu  built %llu TBs "
                        "%llu ops\n",
                        name, toString(policy),
                        static_cast<unsigned long long>(cell.cycles),
                        cell.denseSec, cell.eventSec, cell.speedup(),
                        cell.builderSec,
                        static_cast<unsigned long long>(
                            cell.builder.nodesAhead),
                        static_cast<unsigned long long>(
                            cell.builder.nodesOnDemand),
                        static_cast<unsigned long long>(cell.builder.waits),
                        static_cast<unsigned long long>(cell.denseBatches),
                        static_cast<unsigned long long>(cell.work.batches),
                        static_cast<unsigned long long>(
                            cell.work.noProgressSteps),
                        static_cast<unsigned long long>(cell.work.smxTicks),
                        static_cast<unsigned long long>(
                            cell.work.mshrInserts),
                        static_cast<unsigned long long>(cell.work.tbsBuilt),
                        static_cast<unsigned long long>(
                            cell.work.threadOps));
            cells.push_back(std::move(cell));
        }

        // The same event-mode cells replaying one forest.
        const auto t0 = std::chrono::steady_clock::now();
        TraceForest forest(w->waves(), TraceForest::Sharing::Shared);
        forest.buildAll();
        const double buildSec = secondsSince(t0);
        std::uint64_t replayed = 0;
        for (std::size_t i = first; i < cells.size(); ++i) {
            WorkCounters work;
            const Cycle cycles =
                replayForest(forest, cells[i].policy, seed, work);
            if (cycles != cells[i].cycles || work.tbsBuilt != 0) {
                std::fprintf(stderr, "FAIL: %s/%s forest replay diverges\n",
                             name, toString(cells[i].policy));
                identical = false;
            }
            replayed += work.tbsReplayed;
        }
        std::printf("%-14s forest: built %llu TBs, %llu thread ops once "
                    "(%.3fs); cells replayed %llu TBs\n",
                    name, static_cast<unsigned long long>(forest.tbsBuilt()),
                    static_cast<unsigned long long>(forest.threadOps()),
                    buildSec, static_cast<unsigned long long>(replayed));
        forestTbs += forest.tbsBuilt();
        forestThreadOps += forest.threadOps();
        forestReplayed += replayed;
    }

    double maxSpeedup = 0.0;
    double denseTotal = 0.0;
    double eventTotal = 0.0;
    double builderTotal = 0.0;
    WorkCounters workTotal;
    std::uint64_t denseBatchesTotal = 0;
    for (const Cell &c : cells) {
        maxSpeedup = std::max(maxSpeedup, c.speedup());
        denseTotal += c.denseSec;
        eventTotal += c.eventSec;
        builderTotal += c.builderSec;
        workTotal.batches += c.work.batches;
        workTotal.noProgressSteps += c.work.noProgressSteps;
        denseBatchesTotal += c.denseBatches;
        workTotal.smxTicks += c.work.smxTicks;
        workTotal.mshrInserts += c.work.mshrInserts;
        workTotal.tbsBuilt += c.work.tbsBuilt;
        workTotal.threadOps += c.work.threadOps;
    }

    std::ofstream json("BENCH_simcore.json");
    json << "{\n"
         << "  \"bench\": \"simcore_tick_modes\",\n"
         << "  \"scale\": \"" << toString(scale) << "\",\n"
         << "  \"seed\": " << seed << ",\n"
         << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const double cyc = static_cast<double>(c.cycles);
        json << "    {\"workload\": \"" << c.workload
             << "\", \"policy\": \"" << toString(c.policy)
             << "\", \"cycles\": " << c.cycles
             << ", \"seconds_dense\": " << c.denseSec
             << ", \"seconds_event\": " << c.eventSec
             << ", \"seconds_builder\": " << c.builderSec
             << ", \"cycles_per_sec_dense\": " << cyc / c.denseSec
             << ", \"cycles_per_sec_event\": " << cyc / c.eventSec
             << ", \"speedup\": " << c.speedup()
             << ", \"batches\": " << c.work.batches
             << ", \"batches_dense\": " << c.denseBatches
             << ", \"no_progress_steps\": " << c.work.noProgressSteps
             << ", \"smx_ticks\": " << c.work.smxTicks
             << ", \"mshr_inserts\": " << c.work.mshrInserts
             << ", \"tbs_built\": " << c.work.tbsBuilt
             << ", \"thread_ops\": " << c.work.threadOps << "}"
             << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"seconds_dense_total\": " << denseTotal << ",\n"
         << "  \"seconds_event_total\": " << eventTotal << ",\n"
         << "  \"seconds_builder_total\": " << builderTotal << ",\n"
         << "  \"speedup_total\": "
         << (eventTotal > 0.0 ? denseTotal / eventTotal : 0.0) << ",\n"
         << "  \"speedup_max\": " << maxSpeedup << ",\n"
         << "  \"batches_total\": " << workTotal.batches << ",\n"
         << "  \"batches_dense_total\": " << denseBatchesTotal << ",\n"
         << "  \"no_progress_steps_total\": " << workTotal.noProgressSteps
         << ",\n"
         << "  \"smx_ticks_total\": " << workTotal.smxTicks << ",\n"
         << "  \"mshr_inserts_total\": " << workTotal.mshrInserts << ",\n"
         << "  \"tbs_built_total\": " << workTotal.tbsBuilt << ",\n"
         << "  \"thread_ops_total\": " << workTotal.threadOps << ",\n"
         << "  \"forest_tbs_built_total\": " << forestTbs << ",\n"
         << "  \"forest_thread_ops_total\": " << forestThreadOps << ",\n"
         << "  \"forest_tbs_replayed_total\": " << forestReplayed << ",\n"
         << "  \"stats_identical\": " << (identical ? "true" : "false")
         << "\n"
         << "}\n";
    json.close();

    std::printf("total: dense %.3fs, event %.3fs (%.2fx, max %.2fx), "
                "event beside a builder %.3fs\n",
                denseTotal, eventTotal,
                eventTotal > 0.0 ? denseTotal / eventTotal : 0.0,
                maxSpeedup, builderTotal);
    std::printf("event-mode work: batches %llu (dense %llu, no progress "
                "%llu)  ticks %llu  mshr inserts %llu  TBs built %llu  "
                "thread ops %llu\n",
                static_cast<unsigned long long>(workTotal.batches),
                static_cast<unsigned long long>(denseBatchesTotal),
                static_cast<unsigned long long>(workTotal.noProgressSteps),
                static_cast<unsigned long long>(workTotal.smxTicks),
                static_cast<unsigned long long>(workTotal.mshrInserts),
                static_cast<unsigned long long>(workTotal.tbsBuilt),
                static_cast<unsigned long long>(workTotal.threadOps));
    std::printf("forests: built %llu TBs, %llu thread ops once; cells "
                "replayed %llu TBs\n",
                static_cast<unsigned long long>(forestTbs),
                static_cast<unsigned long long>(forestThreadOps),
                static_cast<unsigned long long>(forestReplayed));
    std::printf("wrote BENCH_simcore.json\n");

    if (!identical) {
        std::fprintf(stderr, "FAIL: tick modes, builder runs or forest "
                             "replays diverged\n");
        return 1;
    }
    return 0;
}
