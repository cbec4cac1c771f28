/**
 * @file
 * The parallel sweep executor's determinism contract: for a given
 * (names, scale, seed), runMatrix returns the identical RunResult
 * vector — every metric bit-exact, same ordering — and stores
 * byte-identical records no matter how many worker threads ran it. A
 * reload from the store is exact and returns exactly the requested
 * cells.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

const std::vector<std::string> kNames = {"bfs-cage", "join-uniform"};

void
expectIdentical(const std::vector<RunResult> &a,
                const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].model, b[i].model);
        EXPECT_EQ(a[i].policy, b[i].policy);
        // Exact equality on purpose: each cell is an independent,
        // fully deterministic simulation, so threading must not
        // perturb a single bit.
        EXPECT_EQ(a[i].ipc, b[i].ipc);
        EXPECT_EQ(a[i].l1HitRate, b[i].l1HitRate);
        EXPECT_EQ(a[i].l2HitRate, b[i].l2HitRate);
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].smxUtilization, b[i].smxUtilization);
        EXPECT_EQ(a[i].smxImbalance, b[i].smxImbalance);
        EXPECT_EQ(a[i].boundFraction, b[i].boundFraction);
        EXPECT_EQ(a[i].queueOverflows, b[i].queueOverflows);
        EXPECT_EQ(a[i].kduFullStalls, b[i].kduFullStalls);
    }
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Point LAPERM_CACHE_DIR at a fresh, empty store; returns its path. */
std::string
useFreshStore(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "laperm_sweep_" + name;
    std::filesystem::remove_all(dir);
    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
    return dir;
}

/** Record file name -> bytes for every record in the store @p dir. */
std::map<std::string, std::string>
storeContents(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &e :
         std::filesystem::directory_iterator(dir + "/results"))
        out[e.path().filename().string()] = slurp(e.path());
    return out;
}

} // namespace

TEST(ParallelSweep, ResultsIdenticalAcrossJobCounts)
{
    // Every Table II workload: the whole matrix the figures sweep.
    const std::vector<std::string> &names = workloadNames();
    auto serial = runMatrix(names, Scale::Tiny, 7, false, 1);
    ASSERT_EQ(serial.size(), names.size() * 8); // 2 models x 4 policies
    auto parallel = runMatrix(names, Scale::Tiny, 7, false, 8);
    expectIdentical(serial, parallel);
}

TEST(ParallelSweep, CellOrderIsWorkloadModelPolicyMajor)
{
    auto results = runMatrix(kNames, Scale::Tiny, 7, false, 8);
    ASSERT_EQ(results.size(), 16u);
    // Workload-major, then model, then policy — the serial loop order.
    EXPECT_EQ(results[0].workload, "bfs-cage");
    EXPECT_EQ(results[0].model, DynParModel::CDP);
    EXPECT_EQ(results[0].policy, TbPolicy::RR);
    EXPECT_EQ(results[3].policy, TbPolicy::AdaptiveBind);
    EXPECT_EQ(results[4].model, DynParModel::DTBL);
    EXPECT_EQ(results[8].workload, "join-uniform");
    EXPECT_EQ(results[8].model, DynParModel::CDP);
    EXPECT_EQ(results[8].policy, TbPolicy::RR);
}

TEST(ParallelSweep, TsvCacheByteIdenticalAcrossJobCounts)
{
    // Each job count gets its own fresh store: in a shared one the
    // jobs=8 sweep would only read the jobs=1 records.
    const std::vector<std::string> &names = workloadNames();
    const std::string serialDir = useFreshStore("jobs1");
    const auto serial = runMatrix(names, Scale::Tiny, 7, true, 1);
    const std::string parallelDir = useFreshStore("jobs8");
    const auto parallel = runMatrix(names, Scale::Tiny, 7, true, 8);
    unsetenv("LAPERM_CACHE_DIR");

    const auto serialStore = storeContents(serialDir);
    EXPECT_EQ(serialStore.size(), serial.size()); // one record per cell
    EXPECT_EQ(serialStore, storeContents(parallelDir));
    EXPECT_EQ(encodeSweepTsv(serial), encodeSweepTsv(parallel));
}

TEST(ParallelSweep, CacheReloadMatchesFreshRun)
{
    useFreshStore("reload");
    auto fresh = runMatrix({"bfs-cage"}, Scale::Tiny, 11, true, 4);
    auto cached = runMatrix({"bfs-cage"}, Scale::Tiny, 11, true, 4);
    unsetenv("LAPERM_CACHE_DIR");
    ASSERT_EQ(fresh.size(), 8u);
    expectIdentical(fresh, cached);
}

TEST(ParallelSweep, StoredSweepReturnsExactlyTheRequestedCells)
{
    useFreshStore("requested");
    const auto both = runMatrix(kNames, Scale::Tiny, 13, true, 4);
    ASSERT_EQ(both.size(), 16u);

    // A subset of a stored sweep is exactly that subset, bit-equal to
    // a fresh run...
    const auto join = runMatrix({"join-uniform"}, Scale::Tiny, 13, true, 4);
    ASSERT_EQ(join.size(), 8u);
    for (const RunResult &r : join)
        EXPECT_EQ(r.workload, "join-uniform");
    expectIdentical(join,
                    runMatrix({"join-uniform"}, Scale::Tiny, 13, false, 4));

    // ...and a reordered request comes back in argument order.
    const auto swapped =
        runMatrix({"join-uniform", "bfs-cage"}, Scale::Tiny, 13, true, 4);
    unsetenv("LAPERM_CACHE_DIR");
    std::vector<RunResult> expected(both.begin() + 8, both.end());
    expected.insert(expected.end(), both.begin(), both.begin() + 8);
    expectIdentical(swapped, expected);
}
