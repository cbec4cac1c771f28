/**
 * @file
 * The build regimes of a trace forest (gpu/trace_forest.hh) give the
 * same bytes: every launch's traces are a pure function of its
 * program and shape, whichever thread builds them and when. Also the
 * builder thread's budget and its exit paths (harness/trace_builder.hh).
 */

#include <gtest/gtest.h>

#include <string>
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

} // namespace

TEST(TraceBuilder, EveryRegimeGivesTheSameRecords)
{
    constexpr TbPolicy kPolicies[] = {TbPolicy::RR, TbPolicy::TbPri,
                                      TbPolicy::SmxBind,
                                      TbPolicy::AdaptiveBind};
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
