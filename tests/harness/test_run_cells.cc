/**
 * @file
 * The one executor of a batch of cells (runCells, harness/run_spec.hh).
 * Whatever a batch puts together — one input across two machines, mix
 * cells beside a shared trace forest, an input whose cells are not
 * consecutive — each cell's payload is the record the matrix and
 * tenant sweeps store under its key, at any worker count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "harness/run_spec.hh"
#include "harness/tenant_sweep.hh"
#include "tenant/mixes.hh"

using namespace laperm;

namespace {

constexpr std::uint64_t kSeed = 17;

/** The 8 cells runMatrixPreset builds for @p workload on @p preset. */
std::vector<RunSpec>
matrixCells(const std::string &workload, const std::string &preset)
{
    std::vector<RunSpec> cells;
    for (DynParModel model : kDynParModels) {
        for (TbPolicy policy : kTbPolicies) {
            cells.push_back(sweepCell({{"preset", preset},
                                       {"workload", workload},
                                       {"model", wireName(model)},
                                       {"policy", wireName(policy)},
                                       {"scale", "tiny"},
                                       {"seed", std::to_string(kSeed)}}));
        }
    }
    return cells;
}

/** The 4 cells runTenantSweep builds for @p mix on k20c. */
std::vector<RunSpec>
mixCells(const std::string &mix)
{
    std::vector<RunSpec> cells;
    for (TbPolicy policy : kTbPolicies) {
        cells.push_back(sweepCell({{"preset", "k20c"},
                                   {"tenants", mix},
                                   {"policy", wireName(policy)},
                                   {"seed", std::to_string(kSeed)}}));
    }
    return cells;
}

/** Point LAPERM_CACHE_DIR at a fresh, empty store. */
void
useFreshStore(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "laperm_run_cells_" + name;
    std::filesystem::remove_all(dir);
    setenv("LAPERM_CACHE_DIR", dir.c_str(), 1);
    unsetenv("LAPERM_NO_CACHE");
}

/** What the store at LAPERM_CACHE_DIR holds under each cell's key. */
std::vector<std::string>
storedPayloads(const std::vector<RunSpec> &cells)
{
    ResultCache store;
    std::vector<std::string> out;
    for (const RunSpec &cell : cells) {
        std::string payload;
        EXPECT_NE(store.probe(cell.key(), payload), ResultCache::Tier::Miss)
            << cell.canonical();
        out.push_back(payload);
    }
    return out;
}

/** @p a, then @p b. */
std::vector<RunSpec>
concat(std::vector<RunSpec> a, const std::vector<RunSpec> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

} // namespace

TEST(RunCells, OneInputAcrossTwoMachinesGivesEachPresetsSweep)
{
    // bfs-cage's 8 cells on k20c, then the same 8 on v100: one input of
    // 16 cells, which share one set-up and one forest across machines.
    const std::vector<RunSpec> cells = concat(
        matrixCells("bfs-cage", "k20c"), matrixCells("bfs-cage", "v100"));
    useFreshStore("two_machines");
    for (const char *preset : {"k20c", "v100"})
        (void)runMatrixPreset({"bfs-cage"}, preset, Scale::Tiny, kSeed);
    const std::vector<std::string> want = storedPayloads(cells);
    for (unsigned jobs : {1u, 8u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        EXPECT_EQ(runCells(cells, false, jobs), want);
    }
}

TEST(RunCells, MixCellsBesideASharedForestGiveEachSweepsPayloads)
{
    // Two duo cells, join-uniform's 8 cells (one shared forest), then
    // the other two duo cells: one pool runs both kinds at once.
    const std::vector<RunSpec> duo = mixCells("duo");
    const std::vector<RunSpec> join = matrixCells("join-uniform", "k20c");
    const std::vector<RunSpec> cells =
        concat(concat({duo[0], duo[1]}, join), {duo[2], duo[3]});
    useFreshStore("mixed");
    const std::vector<TenantSweepRow> rows =
        runTenantSweep({"duo"}, {"k20c"}, kSeed);
    const std::vector<RunResult> results =
        runMatrix({"join-uniform"}, Scale::Tiny, kSeed);
    const std::vector<std::string> want = storedPayloads(cells);

    // The stored payloads are what the two sweeps returned.
    const std::size_t tenants = tenant::builtinMix("duo").tenants.size();
    for (std::size_t p = 0; p < duo.size(); ++p) {
        const std::size_t cell = p < 2 ? p : p + join.size();
        EXPECT_EQ(want[cell],
                  encodeTenantSweepTsv(
                      {rows.begin() + static_cast<std::ptrdiff_t>(p * tenants),
                       rows.begin() +
                           static_cast<std::ptrdiff_t>((p + 1) * tenants)}));
    }
    for (std::size_t c = 0; c < join.size(); ++c) {
        ResultRecord rec;
        ASSERT_TRUE(ResultRecord::decode(want[2 + c], rec));
        EXPECT_EQ(rec.toRunResult(), results[c]) << c;
    }

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        EXPECT_EQ(runCells(cells, false, jobs), want);
    }
}

TEST(RunCells, AnInputWhoseCellsAreNotConsecutiveGivesTheSameBytes)
{
    // join-uniform's first 4 cells, bfs-cage's 8, then join-uniform's
    // last 4: join's cells come back later, so they form two inputs.
    const std::vector<RunSpec> join = matrixCells("join-uniform", "k20c");
    const std::vector<RunSpec> cells =
        concat(concat({join.begin(), join.begin() + 4},
                      matrixCells("bfs-cage", "k20c")),
               {join.begin() + 4, join.end()});
    useFreshStore("split");
    (void)runMatrix({"join-uniform", "bfs-cage"}, Scale::Tiny, kSeed);
    const std::vector<std::string> want = storedPayloads(cells);
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        EXPECT_EQ(runCells(cells, false, jobs), want);
    }
}
