/**
 * @file
 * Plain-main concurrency smoke for the parallel sweep executor. This
 * is the binary the ThreadSanitizer CTest configuration runs (see
 * scripts/verify.sh): it deliberately avoids gtest so every linked
 * object is TSan-instrumented, keeping the race report clean.
 *
 * Exercises: parallel workload setup, concurrent cells sharing one
 * workload and its trace forest beside the sweep's builder thread
 * (four inputs on two workers, so the builder waits for each next
 * forest's first cell and two cells ensure nodes of one forest at
 * once), logging from workers, pool exception propagation, the result
 * store written and read from pool threads, private runs beside a
 * builder thread (harness/trace_builder.hh): one as runOneRecord runs
 * it, one whose builder may hold one byte, and one that throws
 * mid-run, three graph workloads set up at once on one shared
 * graph input (workloads/graph_common.hh), and one runCells batch
 * (harness/run_spec.hh) whose mix cells run beside a shared forest.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "harness/experiment.hh"
#include "harness/run_spec.hh"
#include "harness/thread_pool.hh"
#include "harness/trace_builder.hh"
#include "kernels/lambda_program.hh"
#include "sim/config_loader.hh"
#include "workloads/graph_common.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

std::string
recordOf(const Workload &w, const GpuConfig &cfg, Gpu &gpu)
{
    return ResultRecord::fromStats(w.fullName(), cfg.dynParModel,
                                   cfg.tbPolicy, gpu.stats(),
                                   machineHash(cfg))
        .encode();
}

/** The run without a builder: the Gpu's own forest, built at dispatch. */
std::string
inlineRecord(const Workload &w, const GpuConfig &cfg)
{
    Gpu gpu(cfg);
    gpu.runWaves(w.waves());
    return recordOf(w, cfg, gpu);
}

/** One host wave whose TBs each launch a 128-thread child TB. */
class NestWorkload : public Workload
{
  public:
    NestWorkload()
    {
        const auto inner = std::make_shared<LambdaProgram>(
            "child", allocateFunctionId(), [](ThreadCtx &c) {
                c.st(0x200000 + 4 * c.globalThreadIndex());
            });
        const auto outer = std::make_shared<LambdaProgram>(
            "parent", allocateFunctionId(), [inner](ThreadCtx &c) {
                c.ld(0x100000 + 4 * c.globalThreadIndex());
                if (c.threadIndex() == 0)
                    c.launch({inner, 1, 128});
            });
        waves_.push_back({outer, 64, 64});
    }
    std::string app() const override { return "lambda"; }
    std::string input() const override { return "nest"; }
    void setup(Scale, std::uint64_t) override {}
    void setMemoryBase(Addr) override {}
    const std::vector<LaunchRequest> &waves() const override
    {
        return waves_;
    }
    std::size_t footprintBytes() const override { return 0; }

  private:
    std::vector<LaunchRequest> waves_;
};

/** The three builder-thread runs; false after printing a failure. */
bool
builderRuns()
{
    auto w = createWorkload("bfs-citation");
    w->setup(Scale::Tiny, 3);
    GpuConfig cfg = paperConfig();
    cfg.tbPolicy = TbPolicy::AdaptiveBind;
    cfg.seed = 3;
    const std::string want = inlineRecord(*w, cfg);
    if (runOneRecord(*w, cfg, std::string()).encode() != want) {
        std::fprintf(stderr, "FAIL: a run beside a builder diverged\n");
        return false;
    }
    {
        TraceForest forest(w->waves());
        TraceBuilder builder(forest, 1);
        Gpu gpu(cfg);
        gpu.runForest(forest);
        builder.finish();
        if (recordOf(*w, cfg, gpu) != want) {
            std::fprintf(stderr, "FAIL: a one-byte-budget run diverged\n");
            return false;
        }
    }
    // A machine that holds the host TBs but not their children: the
    // first device launch throws while the builder runs.
    const NestWorkload nest;
    GpuConfig misfit = cfg;
    misfit.maxThreadsPerSmx = 64;
    const FatalThrows fatal_throws;
    bool threw = false;
    try {
        (void)runOneRecord(nest, misfit, std::string());
    } catch (const FatalError &) {
        threw = true;
    }
    if (!threw || runOneRecord(nest, cfg, std::string()).encode() !=
                      inlineRecord(nest, cfg)) {
        std::fprintf(stderr, "FAIL: a run that throws mid-run\n");
        return false;
    }
    return true;
}

/**
 * bfs-, clr- and sssp-citation set up on three threads at once: they
 * share one graph and give the records each gives set up alone, on a
 * graph of its own. False after printing a failure.
 */
bool
sharedGraphSetups()
{
    const std::vector<std::string> names = {"bfs-citation", "clr-citation",
                                            "sssp-citation"};
    GpuConfig cfg = paperConfig();
    cfg.seed = 3;
    std::vector<std::string> alone;
    for (const std::string &name : names) {
        auto w = createWorkload(name);
        w->setup(Scale::Tiny, 3);
        alone.push_back(runOneRecord(*w, cfg, std::string()).encode());
    }
    const std::size_t before = sharedGraphEntries();
    std::vector<std::unique_ptr<Workload>> inputs(names.size());
    {
        std::latch start(static_cast<std::ptrdiff_t>(names.size()));
        std::vector<std::thread> setups;
        for (std::size_t i = 0; i < names.size(); ++i) {
            setups.emplace_back([&, i] {
                auto w = createWorkload(names[i]);
                start.arrive_and_wait();
                w->setup(Scale::Tiny, 3);
                inputs[i] = std::move(w);
            });
        }
        for (std::thread &t : setups)
            t.join();
    }
    if (sharedGraphEntries() != before + 1) {
        std::fprintf(stderr, "FAIL: three citation setups hold %zu "
                             "graphs\n",
                     sharedGraphEntries() - before);
        return false;
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (runOneRecord(*inputs[i], cfg, std::string()).encode() !=
            alone[i]) {
            std::fprintf(stderr, "FAIL: %s on a shared graph diverged\n",
                         names[i].c_str());
            return false;
        }
    }
    inputs.clear();
    if (sharedGraphEntries() != before) {
        std::fprintf(stderr, "FAIL: a graph outlived its holders\n");
        return false;
    }
    return true;
}

/**
 * Two duo mix cells, join-uniform's 8 cells and two more duo cells as
 * one runCells batch on two workers: mix cells run beside cells that
 * replay a shared forest and beside the builder. Every payload must be
 * the cell's own runCell, a private run. False after printing a
 * failure.
 */
bool
mixedBatch()
{
    std::vector<RunSpec> cells;
    const auto mixCell = [&](TbPolicy policy) {
        cells.push_back(sweepCell({{"tenants", "duo"},
                                   {"policy", wireName(policy)},
                                   {"seed", "3"}}));
    };
    mixCell(TbPolicy::RR);
    mixCell(TbPolicy::TbPri);
    for (DynParModel model : kDynParModels) {
        for (TbPolicy policy : kTbPolicies) {
            cells.push_back(sweepCell({{"workload", "join-uniform"},
                                       {"model", wireName(model)},
                                       {"policy", wireName(policy)},
                                       {"scale", "tiny"},
                                       {"seed", "3"}}));
        }
    }
    mixCell(TbPolicy::SmxBind);
    mixCell(TbPolicy::AdaptiveBind);
    const std::vector<std::string> got = runCells(cells, false, 2);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (got[c] != runCell(cells[c], std::string())) {
            std::fprintf(stderr, "FAIL: batch cell %zu diverged\n", c);
            return false;
        }
    }
    return true;
}

} // namespace

int
main()
{
    setVerbose(true); // force worker-thread inform() traffic

    // Exception propagation under contention.
    {
        ThreadPool pool(4);
        for (int i = 0; i < 32; ++i) {
            pool.submit([i] {
                if (i == 13)
                    throw std::runtime_error("expected");
                laperm_inform("pool job %d", i);
            });
        }
        bool threw = false;
        try {
            pool.wait();
        } catch (const std::runtime_error &) {
            threw = true;
        }
        if (!threw) {
            std::fprintf(stderr, "FAIL: pool swallowed the exception\n");
            return 1;
        }
    }

    // Four workloads x 8 cells, 2 workers vs 1 worker must agree.
    const std::vector<std::string> names = {"bfs-cage", "join-uniform",
                                            "clr-cage", "regx-strings"};
    auto serial = runMatrix(names, Scale::Tiny, 3, false, 1);
    auto parallel = runMatrix(names, Scale::Tiny, 3, false, 2);
    if (serial != parallel) {
        std::fprintf(stderr, "FAIL: parallel sweep diverged\n");
        return 1;
    }

    // The 2 workers above replay each input's shared forest at once,
    // beside the builder; every cell must equal runOne's, a private
    // run.
    for (std::size_t i = 0; i < names.size(); ++i) {
        auto w = createWorkload(names[i]);
        w->setup(Scale::Tiny, 3);
        for (std::size_t c = 0; c < 8; ++c) {
            const RunResult &cell = parallel[i * 8 + c];
            GpuConfig cfg = paperConfig();
            cfg.dynParModel = cell.model;
            cfg.tbPolicy = cell.policy;
            cfg.seed = 3;
            if (!(runOne(*w, cfg) == cell)) {
                std::fprintf(stderr, "FAIL: %s %s/%s differs from runOne\n",
                             names[i].c_str(), toString(cell.model),
                             toString(cell.policy));
                return 1;
            }
        }
    }

    if (!builderRuns() || !sharedGraphSetups() || !mixedBatch())
        return 1;

    // One cached sweep twice on a fresh store: the first stores every
    // cell from the pool, the second probes them from the pool.
    const std::filesystem::path store =
        std::filesystem::temp_directory_path() /
        ("laperm_parallel_smoke_store." + std::to_string(::getpid()));
    std::filesystem::remove_all(store);
    setenv("LAPERM_CACHE_DIR", store.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
    auto stored = runMatrix(names, Scale::Tiny, 3, true, 8);
    auto reloaded = runMatrix(names, Scale::Tiny, 3, true, 8);
    std::filesystem::remove_all(store);
    if (stored != serial || reloaded != serial) {
        std::fprintf(stderr, "FAIL: stored sweep diverged\n");
        return 1;
    }
    std::printf("harness_parallel_smoke: ok (%zu cells)\n",
                serial.size());
    return 0;
}
