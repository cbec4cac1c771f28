/**
 * @file
 * Workload-level tests: every Table II instance sets up, produces
 * waves, launches dynamic work, and runs to completion on a tiny
 * device under every policy (parameterized sweep).
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "harness/experiment.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

GpuConfig
smallDevice()
{
    GpuConfig cfg = paperConfig();
    cfg.numSmx = 4; // keep tiny runs fast
    return cfg;
}

} // namespace

class WorkloadRuns : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadRuns, SetsUpAndProducesWaves)
{
    auto w = createWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    w->setup(Scale::Tiny, 1);
    EXPECT_FALSE(w->waves().empty());
    EXPECT_GT(w->footprintBytes(), 0u);
    for (const auto &wave : w->waves()) {
        EXPECT_NE(wave.program, nullptr);
        EXPECT_GT(wave.numTbs, 0u);
        EXPECT_GT(wave.threadsPerTb, 0u);
    }
}

TEST_P(WorkloadRuns, RunsToCompletionAndLaunchesDynamicWork)
{
    auto w = createWorkload(GetParam());
    w->setup(Scale::Tiny, 1);
    GpuConfig cfg = smallDevice();
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tbPolicy = TbPolicy::AdaptiveBind;
    Gpu gpu(cfg);
    gpu.runWaves(w->waves());
    EXPECT_EQ(gpu.activeTbs(), 0u);
    EXPECT_EQ(gpu.undispatchedTbs(), 0u);
    EXPECT_GT(gpu.stats().deviceLaunches, 0u) << GetParam();
    EXPECT_GT(gpu.stats().dynamicTbs, 0u) << GetParam();
}

TEST_P(WorkloadRuns, DeterministicAcrossSetups)
{
    auto a = createWorkload(GetParam());
    auto b = createWorkload(GetParam());
    a->setup(Scale::Tiny, 7);
    b->setup(Scale::Tiny, 7);
    GpuConfig cfg = smallDevice();
    Gpu ga(cfg), gb(cfg);
    ga.runWaves(a->waves());
    gb.runWaves(b->waves());
    EXPECT_EQ(ga.stats().cycles, gb.stats().cycles);
    EXPECT_EQ(ga.stats().deviceLaunches, gb.stats().deviceLaunches);
}

TEST_P(WorkloadRuns, WavesAreReplayableAcrossDevices)
{
    // The same workload object must be runnable on several GPUs
    // (the harness reuses one setup for all 8 configurations).
    auto w = createWorkload(GetParam());
    w->setup(Scale::Tiny, 1);
    GpuConfig cfg = smallDevice();
    Gpu first(cfg);
    first.runWaves(w->waves());
    Gpu second(cfg);
    second.runWaves(w->waves());
    EXPECT_EQ(first.stats().cycles, second.stats().cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllInstances, WorkloadRuns, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        std::string name = param_info.param;
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(WorkloadRegistry, SixteenInstances)
{
    EXPECT_EQ(workloadNames().size(), 16u);
}

TEST(WorkloadRegistry, NamesRoundTrip)
{
    for (const auto &name : workloadNames()) {
        auto w = createWorkload(name);
        EXPECT_EQ(w->fullName(), name);
    }
}

TEST(WorkloadScale, TinySmallerThanSmall)
{
    auto tiny = createWorkload("bfs-citation");
    auto small = createWorkload("bfs-citation");
    tiny->setup(Scale::Tiny, 1);
    small->setup(Scale::Small, 1);
    EXPECT_LT(tiny->footprintBytes(), small->footprintBytes());
}

TEST(WorkloadScale, ScaleFromString)
{
    EXPECT_EQ(scaleFromString("tiny"), Scale::Tiny);
    EXPECT_EQ(scaleFromString("SMALL"), Scale::Small);
    EXPECT_EQ(scaleFromString("Full"), Scale::Full);
}
