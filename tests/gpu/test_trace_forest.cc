/**
 * @file
 * Trace forests (gpu/trace_forest.hh): every prebuilt TB equals a
 * build of the same TB, recursively through every launch, and a run
 * that replays a built forest is the run whose own forest builds each
 * launch at its first dispatch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "gpu/thread_block.hh"
#include "gpu/trace_forest.hh"
#include "harness/experiment.hh"
#include "kernels/lambda_program.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

struct Walked
{
    std::uint64_t tbs = 0;
    std::uint64_t threadOps = 0;
};

/**
 * Hold every TB of @p forest to buildThreadBlockInto of the same TB:
 * each warp's ops (kind, active lanes, ALU cycles, lines) and each
 * launch's count and shape, following the launches recursively.
 */
void
expectForestMatchesBuilds(const TraceForest &forest,
                          const std::vector<LaunchRequest> &waves,
                          const std::string &what, Walked &walked)
{
    EXPECT_EQ(forest.waves().size(), waves.size()) << what;
    for (std::size_t i = 0; i < waves.size(); ++i) {
        EXPECT_EQ(forest.waves()[i].program, waves[i].program) << what;
        EXPECT_EQ(forest.waves()[i].numTbs, waves[i].numTbs) << what;
        EXPECT_EQ(forest.waves()[i].threadsPerTb, waves[i].threadsPerTb)
            << what;
        EXPECT_EQ(waves[i].traces, nullptr) << what;
    }

    ThreadBlock tb;
    std::vector<ThreadCtx> scratch;
    std::vector<const LaunchRequest *> todo;
    for (const LaunchRequest &wave : forest.waves())
        todo.push_back(&wave);
    while (!todo.empty()) {
        const LaunchRequest &req = *todo.back();
        todo.pop_back();
        const LaunchTraces *traces = req.traces;
        if (traces == nullptr) {
            ADD_FAILURE() << what << ": launch without traces";
            continue;
        }
        for (std::uint32_t ix = 0; ix < req.numTbs; ++ix) {
            walked.threadOps += buildThreadBlockInto(
                tb, *req.program, ix, req.threadsPerTb, req.numTbs,
                scratch);
            ++walked.tbs;
            const std::string at = what + " " + req.program->name() +
                                   " TB " + std::to_string(ix);
            ASSERT_EQ(tb.warps.size(), traces->warpsPerTb) << at;
            for (std::uint32_t w = 0; w < traces->warpsPerTb; ++w) {
                const std::span<const WarpOp> got = traces->warp(ix, w);
                const std::span<const WarpOp> want = tb.warps[w].ops;
                ASSERT_EQ(got.size(), want.size()) << at << " warp " << w;
                for (std::size_t k = 0; k < want.size(); ++k) {
                    const std::string op = at + " warp " +
                                           std::to_string(w) + " op " +
                                           std::to_string(k);
                    EXPECT_EQ(got[k].kind, want[k].kind) << op;
                    EXPECT_EQ(got[k].activeLanes, want[k].activeLanes)
                        << op;
                    EXPECT_EQ(got[k].aluCycles, want[k].aluCycles) << op;
                    EXPECT_TRUE(
                        std::ranges::equal(got[k].lines, want[k].lines))
                        << op;
                    ASSERT_EQ(got[k].launches.size(),
                              want[k].launches.size())
                        << op;
                    for (std::size_t l = 0; l < want[k].launches.size();
                         ++l) {
                        // Programs may be instantiated per launch (the
                        // kernel's arguments): compare the function.
                        const LaunchRequest &child = got[k].launches[l];
                        EXPECT_EQ(child.program->functionId(),
                                  want[k].launches[l].program->functionId())
                            << op;
                        EXPECT_EQ(child.numTbs, want[k].launches[l].numTbs)
                            << op;
                        EXPECT_EQ(child.threadsPerTb,
                                  want[k].launches[l].threadsPerTb)
                            << op;
                        EXPECT_EQ(child.tenant, want[k].launches[l].tenant)
                            << op;
                        todo.push_back(&child);
                    }
                }
            }
        }
    }
    EXPECT_EQ(walked.tbs, forest.tbsBuilt()) << what;
    EXPECT_EQ(walked.threadOps, forest.threadOps()) << what;
}

/** expectForestMatchesBuilds, returning the TBs and ops it walked. */
Walked
walkForest(const TraceForest &forest,
           const std::vector<LaunchRequest> &waves, const std::string &what)
{
    Walked walked;
    expectForestMatchesBuilds(forest, waves, what, walked);
    return walked;
}

/** The forest replay and the build at dispatch simulate alike. */
void
expectSameRun(const std::vector<LaunchRequest> &waves, TraceForest &forest,
              const GpuConfig &cfg, const std::string &what)
{
    Gpu built(cfg);
    built.runWaves(waves);
    Gpu replayed(cfg);
    replayed.runForest(forest);
    const GpuStats &a = built.stats();
    const GpuStats &b = replayed.stats();
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.deviceLaunches, b.deviceLaunches) << what;
    EXPECT_EQ(a.dynamicTbs, b.dynamicTbs) << what;
    EXPECT_EQ(a.l1Total().hits, b.l1Total().hits) << what;
    EXPECT_EQ(a.l2.hits, b.l2.hits) << what;
    EXPECT_EQ(a.ipc(), b.ipc()) << what;

    // Both runs replay every TB; only the Gpu's own forest builds, each
    // TB once, and the shared forest's replay builds nothing.
    const WorkCounters wa = built.workCounters();
    const WorkCounters wb = replayed.workCounters();
    EXPECT_EQ(wa.tbsReplayed, forest.tbsBuilt()) << what;
    EXPECT_EQ(wb.tbsReplayed, forest.tbsBuilt()) << what;
    EXPECT_EQ(wa.tbsBuilt, forest.tbsBuilt()) << what;
    EXPECT_EQ(wa.threadOps, forest.threadOps()) << what;
    EXPECT_EQ(wb.tbsBuilt, 0u) << what;
    EXPECT_EQ(wb.threadOps, 0u) << what;
    EXPECT_EQ(wa.batches, wb.batches) << what;
}

std::shared_ptr<const KernelProgram>
lambdaProgram(LambdaProgram::Body body)
{
    return std::make_shared<LambdaProgram>("lambda", allocateFunctionId(),
                                           std::move(body));
}

LaunchRequest
lambdaLaunch(LambdaProgram::Body body, std::uint32_t num_tbs,
             std::uint32_t threads_per_tb)
{
    return {lambdaProgram(std::move(body)), num_tbs, threads_per_tb};
}

} // namespace

TEST(TraceForest, EveryTinyWorkloadMatchesItsBuildsAtDispatch)
{
    for (const std::string &name : workloadNames()) {
        auto w = createWorkload(name);
        w->setup(Scale::Tiny, 1);
        TraceForest forest(w->waves());
        forest.buildAll();
        const Walked walked = walkForest(forest, w->waves(), name);
        EXPECT_GT(walked.tbs, 0u) << name;
    }
}

TEST(TraceForest, RunsReplayingAForestMatchBuildsAtDispatch)
{
    // A launch-heavy and a barrier-heavy workload under both models.
    for (const char *name : {"bfs-cage", "bht-points"}) {
        auto w = createWorkload(name);
        w->setup(Scale::Tiny, 1);
        TraceForest forest(w->waves(), TraceForest::Sharing::Shared);
        forest.buildAll();
        for (DynParModel model : {DynParModel::CDP, DynParModel::DTBL}) {
            GpuConfig cfg = paperConfig();
            cfg.dynParModel = model;
            cfg.tbPolicy = TbPolicy::AdaptiveBind;
            expectSameRun(w->waves(), forest, cfg,
                          std::string(name) + " " + toString(model));
        }
    }
}

TEST(TraceForest, PartialWarpOfAFortyEightThreadTb)
{
    const std::vector<LaunchRequest> waves = {lambdaLaunch(
        [](ThreadCtx &c) {
            c.ld(0x10000 + 4 * c.globalThreadIndex());
            c.alu(1 + c.threadIndex() % 5);
        },
        3, 48)};
    TraceForest forest(waves, TraceForest::Sharing::Shared);
    forest.buildAll();
    EXPECT_EQ(forest.waves()[0].traces->warpsPerTb, 2u);
    EXPECT_EQ(walkForest(forest, waves, "48 threads").tbs,
              3u);
    expectSameRun(waves, forest, test::tinyConfig(), "48 threads");
}

TEST(TraceForest, BarrierSplitsTheStream)
{
    const std::vector<LaunchRequest> waves = {lambdaLaunch(
        [](ThreadCtx &c) {
            c.st(0x20000 + 128 * c.threadIndex());
            c.bar();
            c.ld(0x20000 + 128 * (c.threadsPerTb() - 1 - c.threadIndex()));
        },
        4, 96)};
    TraceForest forest(waves, TraceForest::Sharing::Shared);
    forest.buildAll();
    walkForest(forest, waves, "barrier");
    const WarpOp &second = forest.waves()[0].traces->warp(0, 0)[1];
    EXPECT_EQ(second.kind, OpKind::Bar);
    expectSameRun(waves, forest, test::tinyConfig(), "barrier");
}

TEST(TraceForest, LaunchesNestedThreeDeep)
{
    // Host TBs launch children, which launch grandchildren, which
    // launch great-grandchildren: three levels below the host wave.
    auto nest = [](std::shared_ptr<const KernelProgram> inner,
                   std::uint32_t tbs) {
        return lambdaProgram([inner, tbs](ThreadCtx &c) {
            c.alu(2);
            if (c.threadIndex() % 16 == 0)
                c.launch({inner, tbs, kWarpSize});
        });
    };
    const auto leaf = lambdaProgram([](ThreadCtx &c) {
        c.ld(0x40000 + 4 * c.globalThreadIndex());
    });
    const std::vector<LaunchRequest> waves = {
        {nest(nest(nest(leaf, 1), 2), 1), 2, 64}};
    TraceForest forest(waves, TraceForest::Sharing::Shared);
    forest.buildAll();
    // 2 host TBs x 4 launches, each 1 TB x 2 launches of 2 TBs, each
    // TB launching 2 one-TB leaves.
    const Walked walked = walkForest(forest, waves, "nest");
    EXPECT_EQ(walked.tbs, 2u + 8u + 16u * 2u + 32u * 2u);
    for (DynParModel model : {DynParModel::CDP, DynParModel::DTBL}) {
        GpuConfig cfg = test::tinyConfig();
        cfg.dynParModel = model;
        expectSameRun(waves, forest, cfg, "nest");
    }
}

TEST(TraceForest, ThreadsWithoutOps)
{
    // Odd threads emit nothing, and the second wave's threads emit
    // nothing at all: its warps are empty and its TBs complete at
    // dispatch.
    const std::vector<LaunchRequest> waves = {
        lambdaLaunch(
            [](ThreadCtx &c) {
                if (c.threadIndex() % 2 == 0)
                    c.ld(0x80000 + 4 * c.globalThreadIndex());
            },
            2, 64),
        lambdaLaunch([](ThreadCtx &) {}, 3, 40)};
    TraceForest forest(waves, TraceForest::Sharing::Shared);
    forest.buildAll();
    walkForest(forest, waves, "no ops");
    const LaunchTraces &empty = *forest.waves()[1].traces;
    EXPECT_TRUE(empty.ops.empty());
    EXPECT_EQ(empty.warpOps.size(), 3u * 2u + 1u);
    expectSameRun(waves, forest, test::tinyConfig(), "no ops");
}
