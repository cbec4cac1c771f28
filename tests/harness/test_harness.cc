#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/table.hh"
#include "workloads/registry.hh"

using namespace laperm;

TEST(Harness, PaperConfigMatchesTable1)
{
    GpuConfig cfg = paperConfig();
    EXPECT_EQ(cfg.numSmx, 13u);
    EXPECT_EQ(cfg.maxThreadsPerSmx, 2048u);
    EXPECT_EQ(cfg.maxTbsPerSmx, 16u);
    EXPECT_EQ(cfg.regsPerSmx, 65536u);
    EXPECT_EQ(cfg.l1Size, 32u * 1024);
    EXPECT_EQ(cfg.l2Size, 1536u * 1024);
    EXPECT_EQ(cfg.kduEntries, 32u);
    EXPECT_EQ(cfg.warpPolicy, WarpPolicy::GTO);
}

TEST(Harness, RunOneProducesMetrics)
{
    auto w = createWorkload("bfs-cage");
    w->setup(Scale::Tiny, 1);
    GpuConfig cfg = paperConfig();
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tbPolicy = TbPolicy::AdaptiveBind;
    RunResult r = runOne(*w, cfg);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GE(r.l1HitRate, 0.0);
    EXPECT_LE(r.l1HitRate, 1.0);
    EXPECT_EQ(r.workload, "bfs-cage");
}

TEST(Harness, ATraceThatCannotBeWrittenIsFatal)
{
    // A trace directory below a regular file cannot be made, so none of
    // the five artifacts can be written: the run raises rather than
    // return a record whose trace was lost.
    const std::string dir = ::testing::TempDir() + "laperm_untraceable";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/file") << "not a directory\n";
    auto w = createWorkload("bfs-cage");
    w->setup(Scale::Tiny, 1);
    const FatalThrows fatal_throws;
    EXPECT_THROW((void)runOneRecord(*w, paperConfig(), dir + "/file/sub"),
                 FatalError);
    std::filesystem::remove_all(dir);
}

TEST(Harness, MatrixCacheRoundTrip)
{
    // A fresh store, so the first sweep simulates every cell.
    const std::string dir = ::testing::TempDir() + "laperm_harness_store";
    std::filesystem::remove_all(dir);
    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    setenv("LAPERM_NO_CACHE", "0", 1);
    std::vector<std::string> names = {"bfs-cage"};
    auto first = runMatrix(names, Scale::Tiny, 99, true);
    ASSERT_EQ(first.size(), 8u); // 2 models x 4 policies
    auto second = runMatrix(names, Scale::Tiny, 99, true);
    unsetenv("LAPERM_CACHE_DIR");
    // One record per cell, and the reload is exact in every field.
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(
                                dir + "/results"),
                            std::filesystem::directory_iterator()),
              8);
    EXPECT_EQ(first, second);
    std::filesystem::remove_all(dir);
}

TEST(Harness, FindResultAndMean)
{
    std::vector<RunResult> rs(2);
    // std::string(...) dodges GCC 12's spurious -Wrestrict on the
    // inlined const char* assignment (PR105329).
    rs[0].workload = std::string("a");
    rs[0].model = DynParModel::CDP;
    rs[0].policy = TbPolicy::RR;
    rs[0].ipc = 2.0;
    rs[1].workload = std::string("b");
    rs[1].model = DynParModel::CDP;
    rs[1].policy = TbPolicy::RR;
    rs[1].ipc = 4.0;
    EXPECT_EQ(&findResult(rs, "a", DynParModel::CDP, TbPolicy::RR),
              &rs[0]);
    EXPECT_DOUBLE_EQ(
        meanOver(rs, DynParModel::CDP, TbPolicy::RR, &RunResult::ipc),
        3.0);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(fmtPct(0.123), "12.3%");
    EXPECT_EQ(fmtPct(0.5, 0), "50%");
    EXPECT_EQ(fmtF(1.2345), "1.23");
    EXPECT_EQ(fmtU(42), "42");
}

TEST(Table, PrintDoesNotCrash)
{
    Table t({"a", "b"});
    t.addRow({"1", "22"});
    t.addRule();
    t.addRow({"333", "4"});
    t.print();
}
