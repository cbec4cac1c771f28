/**
 * @file
 * A sweep's cells replay one trace forest per input (DESIGN.md §7.2);
 * each cell must still be the run that builds every TB at dispatch,
 * which is what runOne does. Checked over every workload and cell at
 * tiny scale on two presets, in both tick modes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hh"
#include "harness/thread_pool.hh"
#include "sim/presets.hh"
#include "workloads/registry.hh"

using namespace laperm;

namespace {

/** RAII environment override restoring the prior value on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *prev = std::getenv(name))
            prev_ = prev;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (prev_.empty())
            ::unsetenv(name_);
        else
            ::setenv(name_, prev_.c_str(), 1);
    }

  private:
    const char *name_;
    std::string prev_;
};

constexpr std::uint64_t kSeed = 5;

class SharedTraces
    : public ::testing::TestWithParam<std::tuple<std::string, TickMode>>
{
};

TEST_P(SharedTraces, SweepCellsEqualRunsThatBuildOnDemand)
{
    const auto [preset, mode] = GetParam();
    const ScopedEnv tick("LAPERM_TICK_MODE", wireName(mode));
    const std::vector<std::string> &names = workloadNames();
    const std::vector<RunResult> swept =
        runMatrixPreset(names, preset, Scale::Tiny, kSeed, false, 4);
    ASSERT_EQ(swept.size(), names.size() * 8);

    // The same cells one by one through runOne: no forest, every TB
    // built at dispatch.
    std::vector<std::unique_ptr<Workload>> inputs;
    for (const std::string &name : names) {
        inputs.push_back(createWorkload(name));
        inputs.back()->setup(Scale::Tiny, kSeed);
    }
    std::vector<RunResult> single(swept.size());
    {
        ThreadPool pool(4);
        for (std::size_t slot = 0; slot < swept.size(); ++slot) {
            pool.submit([&, slot] {
                GpuConfig cfg = presetConfig(preset);
                cfg.tickMode = mode;
                cfg.dynParModel = swept[slot].model;
                cfg.tbPolicy = swept[slot].policy;
                cfg.seed = kSeed;
                single[slot] = runOne(*inputs[slot / 8], cfg);
            });
        }
        pool.wait();
    }
    for (std::size_t slot = 0; slot < swept.size(); ++slot) {
        EXPECT_EQ(swept[slot], single[slot])
            << swept[slot].workload << " " << toString(swept[slot].model)
            << "/" << toString(swept[slot].policy);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndTickModes, SharedTraces,
    ::testing::Combine(::testing::Values(std::string("k20c"),
                                         std::string("v100")),
                       ::testing::Values(TickMode::Event, TickMode::Dense)),
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_" +
               toString(std::get<1>(param_info.param));
    });

} // namespace
