/**
 * @file
 * The graph-input registry (workloads/graph_common.hh): one graph per
 * (input, scale, seed) while anyone holds it, nothing kept after its
 * last holder, and a failed build that raises in every caller and
 * leaves no entry behind. The graph workloads share it from setup(),
 * with the records of workloads that each built their own graph.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "workloads/graph_common.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

constexpr std::size_t kCallers = 8;

} // namespace

TEST(SharedGraphs, ConcurrentCallersOfOneKeyGetOneGraph)
{
    const std::size_t before = sharedGraphEntries();
    std::vector<std::shared_ptr<const Csr>> got(kCallers);
    {
        std::latch start(static_cast<std::ptrdiff_t>(kCallers));
        std::vector<std::thread> callers;
        for (std::size_t i = 0; i < kCallers; ++i) {
            callers.emplace_back([&, i] {
                start.arrive_and_wait();
                got[i] = sharedGraphInput("citation", Scale::Tiny, 4242);
            });
        }
        for (std::thread &t : callers)
            t.join();
    }
    // Every caller still holds its graph, so one build served them all.
    ASSERT_NE(got[0], nullptr);
    for (const auto &graph : got)
        EXPECT_EQ(graph.get(), got[0].get());
    EXPECT_EQ(sharedGraphEntries(), before + 1);

    const Csr alone = buildGraphInput("citation", Scale::Tiny, 4242);
    EXPECT_EQ(got[0]->offsets(), alone.offsets());
    EXPECT_EQ(got[0]->cols(), alone.cols());
}

TEST(SharedGraphs, AGraphGoesWithItsLastHolderAndLeavesNoEntry)
{
    const std::size_t before = sharedGraphEntries();
    auto first = sharedGraphInput("cage", Scale::Tiny, 7);
    auto second = sharedGraphInput("cage", Scale::Tiny, 7);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(sharedGraphEntries(), before + 1);
    const std::weak_ptr<const Csr> watch = first;
    first.reset();
    EXPECT_FALSE(watch.expired());
    second.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(sharedGraphEntries(), before);

    // A long-lived process asks for many keys; none stays behind.
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        auto graph = sharedGraphInput("graph500", Scale::Tiny, seed);
        ASSERT_EQ(sharedGraphEntries(), before + 1) << "seed " << seed;
    }
    EXPECT_EQ(sharedGraphEntries(), before);
}

TEST(SharedGraphs, AFailedBuildRaisesInEveryCallerAndLeavesNoEntry)
{
    const std::size_t before = sharedGraphEntries();
    // Callers that arrive while the build is in flight wait for it and
    // get its error; later ones build and fail on their own.
    for (int round = 0; round < 25; ++round) {
        std::latch start(static_cast<std::ptrdiff_t>(kCallers));
        std::vector<int> raised(kCallers, 0);
        std::vector<std::thread> callers;
        for (std::size_t i = 0; i < kCallers; ++i) {
            callers.emplace_back([&, i] {
                const FatalThrows fatal_throws;
                start.arrive_and_wait();
                try {
                    (void)sharedGraphInput("no-such-graph", Scale::Tiny, 1);
                } catch (const FatalError &e) {
                    raised[i] = std::string(e.what()).find(
                                    "unknown graph input") !=
                                std::string::npos;
                }
            });
        }
        for (std::thread &t : callers)
            t.join();
        for (std::size_t i = 0; i < kCallers; ++i)
            EXPECT_EQ(raised[i], 1) << "round " << round << " caller " << i;
        ASSERT_EQ(sharedGraphEntries(), before) << "round " << round;
    }
    // No in-flight entry is left to wait on: a retry fails again.
    const FatalThrows fatal_throws;
    EXPECT_THROW((void)sharedGraphInput("no-such-graph", Scale::Tiny, 1),
                 FatalError);
    EXPECT_EQ(sharedGraphEntries(), before);
}

TEST(SharedGraphs, CitationWorkloadsShareOneGraphWithTheSameRecords)
{
    // Each workload's record as it was when each built its own graph
    // (k20c, DTBL, Adaptive-Bind, tiny, seed 1).
    const struct
    {
        const char *name;
        const char *record;
    } kCells[] = {
        {"bfs-citation",
         "v1 workload=bfs-citation config=8a66b23bdc80d6fc37a2b6fbad8bf642 "
         "model=1 policy=3 cycles=15738 launches=1161 dynamicTbs=1192 "
         "bound=208 overflows=0 kduStalls=0 ipc=25.741072563222772 "
         "l1=0.64103558813320538 l2=0.84946604991148422 "
         "util=0.053168714625062313 imbalance=0.25079365079365079"},
        {"clr-citation",
         "v1 workload=clr-citation config=8a66b23bdc80d6fc37a2b6fbad8bf642 "
         "model=1 policy=3 cycles=19960 launches=192 dynamicTbs=193 "
         "bound=14 overflows=0 kduStalls=0 ipc=4.4390280561122246 "
         "l1=0.64840390879478826 l2=0.75618917534574015 "
         "util=0.009549868968706644 imbalance=0.5811320754716981"},
        {"sssp-citation",
         "v1 workload=sssp-citation config=8a66b23bdc80d6fc37a2b6fbad8bf642 "
         "model=1 policy=3 cycles=35788 launches=2084 dynamicTbs=2142 "
         "bound=429 overflows=0 kduStalls=0 ipc=26.587906560858389 "
         "l1=0.48628807225813636 l2=0.94769110685869673 "
         "util=0.054926017315645122 imbalance=0.097964978703265496"},
    };
    const std::size_t before = sharedGraphEntries();
    std::vector<std::unique_ptr<Workload>> inputs;
    for (const auto &cell : kCells) {
        inputs.push_back(createWorkload(cell.name));
        inputs.back()->setup(Scale::Tiny, 1);
    }
    EXPECT_EQ(sharedGraphEntries(), before + 1);

    GpuConfig cfg = paperConfig();
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tbPolicy = TbPolicy::AdaptiveBind;
    cfg.seed = 1;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(runOneRecord(*inputs[i], cfg, std::string()).encode(),
                  kCells[i].record);
    }
    inputs.clear();
    EXPECT_EQ(sharedGraphEntries(), before);
}
