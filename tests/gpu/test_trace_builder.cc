/**
 * @file
 * The build regimes of a trace forest (gpu/trace_forest.hh) give the
 * same bytes: every launch's traces are a pure function of its
 * program and shape, whichever thread builds them and when, and a
 * shared forest's cells may replay it on several threads at once.
 * Also the builder thread's budget, its gate between a sweep's forests
 * and its exit paths (harness/trace_builder.hh).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "gpu/trace_forest.hh"
#include "harness/experiment.hh"
#include "harness/thread_pool.hh"
#include "harness/trace_builder.hh"
#include "kernels/lambda_program.hh"
#include "sim/config_loader.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

enum class Regime
{
    NoBuilder,     ///< the Gpu's own forest, built at dispatch
    Builder,       ///< a private forest beside a builder thread
    OneByteBudget, ///< the builder pauses after every node it builds
    BuiltBefore,   ///< a private forest built whole before the run
};

struct RegimeRun
{
    std::string record;
    std::uint64_t tbsBuilt = 0;
    TraceForest::Counts counts;
};

std::string
recordOf(const Workload &w, const GpuConfig &cfg, Gpu &gpu)
{
    return ResultRecord::fromStats(w.fullName(), cfg.dynParModel,
                                   cfg.tbPolicy, gpu.stats(),
                                   machineHash(cfg))
        .encode();
}

RegimeRun
runIn(Regime regime, const Workload &w, const GpuConfig &cfg,
      std::size_t budget = TraceForest::kBuildAheadBytes)
{
    RegimeRun run;
    Gpu gpu(cfg);
    if (regime == Regime::NoBuilder) {
        gpu.runWaves(w.waves());
        run.tbsBuilt = gpu.workCounters().tbsBuilt;
        run.record = recordOf(w, cfg, gpu);
        return run;
    }
    TraceForest forest(w.waves());
    if (regime == Regime::BuiltBefore) {
        forest.buildAll();
        gpu.runForest(forest);
    } else {
        TraceBuilder builder(forest, regime == Regime::OneByteBudget
                                         ? 1
                                         : budget);
        gpu.runForest(forest);
        builder.finish();
    }
    run.tbsBuilt = forest.tbsBuilt();
    run.counts = forest.counts();
    run.record = recordOf(w, cfg, gpu);
    return run;
}

/** A workload of given waves and no input data. */
class LambdaWorkload : public Workload
{
  public:
    explicit LambdaWorkload(std::vector<LaunchRequest> waves)
        : waves_(std::move(waves))
    {}
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

/**
 * 64 host TBs of 64 threads; the first thread of each launches one
 * child TB of 128 threads, whose threads run @p child.
 */
LambdaWorkload
nestWorkload(LambdaProgram::Body child)
{
    const auto inner = std::make_shared<LambdaProgram>(
        "child", allocateFunctionId(), std::move(child));
    const auto outer = std::make_shared<LambdaProgram>(
        "parent", allocateFunctionId(), [inner](ThreadCtx &c) {
            c.ld(0x100000 + 4 * c.globalThreadIndex());
            c.alu(3);
            if (c.threadIndex() == 0)
                c.launch({inner, 1, 128});
        });
    return LambdaWorkload({{outer, 64, 64}});
}

void
childBody(ThreadCtx &c)
{
    c.st(0x200000 + 4 * c.globalThreadIndex());
}

constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::TbPri,
                                  TbPolicy::SmxBind,
                                  TbPolicy::AdaptiveBind};

/** The 8 cells of a sweep input, model-major as the sweep orders them. */
std::vector<GpuConfig>
sweepCells()
{
    std::vector<GpuConfig> cells;
    for (DynParModel model : {DynParModel::CDP, DynParModel::DTBL}) {
        for (TbPolicy policy : kPolicies) {
            GpuConfig cfg = paperConfig();
            cfg.dynParModel = model;
            cfg.tbPolicy = policy;
            cells.push_back(cfg);
        }
    }
    return cells;
}

/** How a shared forest's cells meet its builds. */
enum class SharedRegime
{
    Builder,       ///< beside a builder thread at the default budget
    OneByteBudget, ///< the builder holds one node until a cell starts
    BuiltBefore,   ///< the forest is built whole before the cells start
    CellsOnly,     ///< no builder: the cells build every node
};

/** Nodes of @p forest, and those of them not Ready. */
struct NodeTally
{
    std::uint64_t nodes = 0;
    std::uint64_t notReady = 0;
};

NodeTally
tallyNodes(const TraceForest &forest)
{
    NodeTally tally;
    std::vector<const LaunchTraces *> todo;
    for (const LaunchRequest &wave : forest.waves())
        todo.push_back(wave.traces);
    while (!todo.empty()) {
        const LaunchTraces &node = *todo.back();
        todo.pop_back();
        ++tally.nodes;
        if (!node.ready())
            ++tally.notReady;
        for (std::uint32_t i = 0; i < node.numChildren; ++i)
            todo.push_back(&node.children[i]);
    }
    return tally;
}

/** Wait up to 10 s for @p done; whether it came. */
template <typename Done>
bool
eventually(Done done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/** Give a builder thread time to build, if it is free to. */
void
letItRun()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

} // namespace

TEST(TraceBuilder, EveryRegimeGivesTheSameRecords)
{
    for (const std::string &name : workloadNames()) {
        auto w = createWorkload(name);
        w->setup(Scale::Tiny, 1);
        for (DynParModel model : {DynParModel::CDP, DynParModel::DTBL}) {
            for (TbPolicy policy : kPolicies) {
                GpuConfig cfg = paperConfig();
                cfg.dynParModel = model;
                cfg.tbPolicy = policy;
                const std::string at = name + " " + toString(model) + "/" +
                                       toString(policy);
                const RegimeRun inline_run = runIn(Regime::NoBuilder, *w, cfg);
                ASSERT_GT(inline_run.tbsBuilt, 0u) << at;
                // Repeated, so steals and waits interleave differently.
                for (int rep = 0; rep < 3; ++rep) {
                    const RegimeRun r = runIn(Regime::Builder, *w, cfg);
                    EXPECT_EQ(r.record, inline_run.record) << at;
                    EXPECT_EQ(r.tbsBuilt, inline_run.tbsBuilt) << at;
                }
                for (Regime regime :
                     {Regime::OneByteBudget, Regime::BuiltBefore}) {
                    const RegimeRun r = runIn(regime, *w, cfg);
                    EXPECT_EQ(r.record, inline_run.record) << at;
                    EXPECT_EQ(r.tbsBuilt, inline_run.tbsBuilt) << at;
                }
            }
        }
    }
}

TEST(TraceBuilder, PeakBytesStayWithinTheBudgetPlusOneNode)
{
    auto w = createWorkload("bfs-citation");
    w->setup(Scale::Tiny, 1);
    GpuConfig cfg = paperConfig();
    cfg.tbPolicy = TbPolicy::AdaptiveBind;

    TraceForest whole(w->waves());
    whole.buildAll();
    const std::size_t wholeBytes = whole.counts().peakLiveBytes;
    const std::size_t budget = wholeBytes / 8;
    ASSERT_GT(wholeBytes, budget + whole.counts().largestNodeBytes);

    // What a run holds live without building ahead.
    const RegimeRun base = runIn(Regime::BuiltBefore, *w, cfg);
    TraceForest lazy(w->waves());
    {
        Gpu gpu(cfg);
        gpu.runForest(lazy);
        EXPECT_EQ(recordOf(*w, cfg, gpu), base.record);
    }
    const std::size_t inlinePeak = lazy.counts().peakLiveBytes;
    EXPECT_EQ(lazy.counts().peakAheadBytes, 0u);

    for (int rep = 0; rep < 3; ++rep) {
        const RegimeRun r = runIn(Regime::Builder, *w, cfg, budget);
        EXPECT_EQ(r.record, base.record);
        const std::size_t node = r.counts.largestNodeBytes;
        EXPECT_LE(r.counts.peakAheadBytes, budget + node);
        EXPECT_LE(r.counts.peakLiveBytes, inlinePeak + budget + node);
    }
}

TEST(TraceBuilder, SharedForestCellsOnFourThreadsMatchTheirInlineRuns)
{
    const std::vector<GpuConfig> cells = sweepCells();
    for (const std::string &name : workloadNames()) {
        auto w = createWorkload(name);
        w->setup(Scale::Tiny, 1);
        std::vector<std::string> want;
        std::uint64_t wholeTbs = 0;
        for (const GpuConfig &cfg : cells) {
            const RegimeRun r = runIn(Regime::NoBuilder, *w, cfg);
            want.push_back(r.record);
            wholeTbs = r.tbsBuilt;
        }
        for (SharedRegime regime :
             {SharedRegime::Builder, SharedRegime::OneByteBudget,
              SharedRegime::BuiltBefore, SharedRegime::CellsOnly}) {
            const std::string at =
                name + " regime " + std::to_string(static_cast<int>(regime));
            auto forest = std::make_shared<TraceForest>(
                w->waves(), TraceForest::Sharing::Shared);
            if (regime == SharedRegime::BuiltBefore)
                forest->buildAll();
            std::unique_ptr<TraceBuilder> builder;
            if (regime == SharedRegime::Builder ||
                regime == SharedRegime::OneByteBudget) {
                builder = std::make_unique<TraceBuilder>(
                    std::vector{forest},
                    regime == SharedRegime::OneByteBudget
                        ? 1
                        : TraceForest::kBuildAheadBytes);
            }
            std::vector<std::string> got(cells.size());
            std::vector<std::uint64_t> replayed(cells.size());
            {
                ThreadPool pool(4);
                for (std::size_t c = 0; c < cells.size(); ++c) {
                    pool.submit([&, c] {
                        Gpu gpu(cells[c]);
                        gpu.runForest(*forest);
                        got[c] = recordOf(*w, cells[c], gpu);
                        replayed[c] = gpu.workCounters().tbsReplayed;
                    });
                }
                pool.wait();
            }
            if (builder)
                builder->finish();
            for (std::size_t c = 0; c < cells.size(); ++c) {
                EXPECT_EQ(got[c], want[c]) << at << " cell " << c;
                EXPECT_EQ(replayed[c], wholeTbs) << at << " cell " << c;
            }
            // Each node built once, by one thread, and none retired.
            const NodeTally tally = tallyNodes(*forest);
            const TraceForest::Counts counts = forest->counts();
            EXPECT_EQ(forest->tbsBuilt(), wholeTbs) << at;
            EXPECT_EQ(counts.nodesAhead + counts.nodesOnDemand, tally.nodes)
                << at;
            EXPECT_EQ(tally.notReady, 0u) << at;
            if (regime == SharedRegime::CellsOnly) {
                EXPECT_EQ(counts.nodesOnDemand, tally.nodes) << at;
            }
            if (regime == SharedRegime::BuiltBefore) {
                EXPECT_EQ(counts.nodesOnDemand, 0u) << at;
            }
        }
    }
}

TEST(TraceBuilder, ASharedForestWaitsWithinTheBudgetForItsFirstRun)
{
    auto w = createWorkload("bfs-citation");
    w->setup(Scale::Tiny, 1);
    const GpuConfig cfg = paperConfig();
    TraceForest whole(w->waves());
    whole.buildAll();
    const std::size_t budget = whole.counts().peakLiveBytes / 8;
    ASSERT_GT(whole.counts().peakLiveBytes,
              budget + whole.counts().largestNodeBytes);

    auto forest = std::make_shared<TraceForest>(
        w->waves(), TraceForest::Sharing::Shared);
    TraceBuilder builder(std::vector{forest}, budget);
    // Past the budget, the builder pauses: no run has started and none
    // of a shared forest's nodes retires.
    ASSERT_TRUE(eventually(
        [&] { return forest->counts().peakAheadBytes > budget; }));
    letItRun();
    const std::uint64_t paused = forest->tbsBuilt();
    letItRun();
    EXPECT_EQ(forest->tbsBuilt(), paused);
    EXPECT_LT(paused, whole.tbsBuilt());
    const TraceForest::Counts ahead = forest->counts();
    EXPECT_LE(ahead.peakAheadBytes, budget + ahead.largestNodeBytes);

    // A run's start wakes it, and it builds the rest uncounted.
    forest->start();
    EXPECT_TRUE(eventually(
        [&] { return forest->tbsBuilt() == whole.tbsBuilt(); }));
    builder.finish();
    EXPECT_EQ(forest->counts().nodesOnDemand, 0u);
    EXPECT_EQ(forest->counts().peakAheadBytes, ahead.peakAheadBytes);

    Gpu gpu(cfg);
    gpu.runForest(*forest);
    EXPECT_EQ(recordOf(*w, cfg, gpu),
              runIn(Regime::NoBuilder, *w, cfg).record);
    EXPECT_EQ(gpu.workCounters().tbsBuilt, 0u);
}

TEST(TraceBuilder, TheNextSharedForestWaitsForARunOfThePrevious)
{
    auto a = createWorkload("bfs-cage");
    auto b = createWorkload("join-uniform");
    a->setup(Scale::Tiny, 1);
    b->setup(Scale::Tiny, 1);
    TraceForest wholeA(a->waves());
    TraceForest wholeB(b->waves());
    wholeA.buildAll();
    wholeB.buildAll();
    ASSERT_LT(wholeA.counts().peakLiveBytes, TraceForest::kBuildAheadBytes);

    auto first = std::make_shared<TraceForest>(
        a->waves(), TraceForest::Sharing::Shared);
    auto second = std::make_shared<TraceForest>(
        b->waves(), TraceForest::Sharing::Shared);
    TraceBuilder builder(std::vector{first, second});
    ASSERT_TRUE(eventually(
        [&] { return first->tbsBuilt() == wholeA.tbsBuilt(); }));
    letItRun();
    EXPECT_EQ(second->tbsBuilt(), 0u);

    first->start(); // as its first cell does
    EXPECT_TRUE(eventually(
        [&] { return second->tbsBuilt() == wholeB.tbsBuilt(); }));
    builder.finish();
    EXPECT_EQ(second->counts().nodesOnDemand, 0u);
}

TEST(TraceBuilder, FinishEndsTheBudgetPauseAndTheWaitForARun)
{
    auto w = createWorkload("bfs-cage");
    w->setup(Scale::Tiny, 1);
    TraceForest whole(w->waves());
    whole.buildAll();
    {
        // Paused on a one-byte budget, which no run's start lifts.
        auto forest = std::make_shared<TraceForest>(
            w->waves(), TraceForest::Sharing::Shared);
        TraceBuilder builder(std::vector{forest}, 1);
        ASSERT_TRUE(eventually([&] { return forest->tbsBuilt() > 0; }));
        builder.finish();
        EXPECT_LT(forest->tbsBuilt(), whole.tbsBuilt());
    }
    {
        // Waiting for a run of the first forest before the second.
        auto first = std::make_shared<TraceForest>(
            w->waves(), TraceForest::Sharing::Shared);
        auto second = std::make_shared<TraceForest>(
            w->waves(), TraceForest::Sharing::Shared);
        TraceBuilder builder(std::vector{first, second});
        ASSERT_TRUE(eventually(
            [&] { return first->tbsBuilt() == whole.tbsBuilt(); }));
        builder.finish();
        EXPECT_EQ(second->tbsBuilt(), 0u);
    }
}

TEST(TraceBuilder, AFatalMidRunStopsTheBuilderAndThrows)
{
    // The child TB's 128 threads fit the default test machine but not
    // one of 64 threads per SMX, which still holds the host TBs: the
    // first device launch is a fatal, thrown on the simulation thread
    // while the builder runs.
    const LambdaWorkload w = nestWorkload(childBody);
    const GpuConfig fits = test::tinyConfig();
    GpuConfig misfits = fits;
    misfits.maxThreadsPerSmx = 64;
    const FatalThrows fatal_throws;
    const std::string fresh = runOneRecord(w, fits, "").encode();
    EXPECT_THROW(runOneRecord(w, misfits, ""), FatalError);
    EXPECT_EQ(runOneRecord(w, fits, "").encode(), fresh);
}

TEST(TraceBuilder, AFatalWhileBuildingReachesTheSimulationThread)
{
    // Building the child fails, on whichever thread builds it first.
    // A fatal on the builder thread must not end the process: the node
    // goes back unbuilt, and the simulation thread meets the same
    // error when it builds the node itself.
    const LambdaWorkload w = nestWorkload([](ThreadCtx &c) {
        if (c.threadIndex() == 5)
            laperm_fatal("child thread %u cannot run", c.threadIndex());
        childBody(c);
    });
    const FatalThrows fatal_throws;
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_THROW(runOneRecord(w, test::tinyConfig(), ""), FatalError);
    const LambdaWorkload ok = nestWorkload(childBody);
    EXPECT_EQ(runOneRecord(ok, test::tinyConfig(), "").encode(),
              runIn(Regime::NoBuilder, ok, test::tinyConfig()).record);
}

TEST(TraceBuilder, APoolThreadSurvivesAFatalRunAndRunsTheNext)
{
    // How the serving daemon runs a request (SimService::execute): on a
    // pool thread, under FatalThrows, catching what the run throws. A
    // run that fails mid-way beside its builder thread answers with an
    // error, and the same thread then serves the next run.
    const LambdaWorkload w = nestWorkload(childBody);
    const GpuConfig fits = test::tinyConfig();
    GpuConfig misfits = fits;
    misfits.maxThreadsPerSmx = 64;
    const std::string want = runIn(Regime::NoBuilder, w, fits).record;
    std::vector<std::string> answers(3);
    ThreadPool pool(1);
    for (std::size_t i = 0; i < answers.size(); ++i) {
        pool.submit([&, i] {
            try {
                const FatalThrows fatal_throws;
                answers[i] =
                    runOneRecord(w, i == 1 ? misfits : fits, "").encode();
            } catch (const std::exception &e) {
                answers[i] = std::string("error: ") + e.what();
            }
        });
    }
    pool.wait();
    EXPECT_EQ(answers[0], want);
    EXPECT_NE(answers[1].find("error: device launch: TB of 128 threads"),
              std::string::npos)
        << answers[1];
    EXPECT_EQ(answers[2], want);
}
