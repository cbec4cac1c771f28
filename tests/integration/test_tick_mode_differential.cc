/**
 * @file
 * Differential determinism across simulator cores (DESIGN.md §11): the
 * event-driven loop must be an *observably invisible* optimization of
 * the dense reference loop. Every artifact — the canonical result
 * record behind the CSV report, the observability trace files, and the
 * sweep's stored records — must be byte-identical between --tick-mode
 * dense and event, at any worker count.
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

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "laperm_tick_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** name -> bytes for every regular file under @p dir. */
std::map<std::string, std::string>
dirContents(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.is_regular_file())
            out[e.path().filename().string()] = slurp(e.path());
    }
    return out;
}

/** RAII environment override restoring the prior value on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *prev = std::getenv(name))
            prev_ = prev;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
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

GpuConfig
modeConfig(TickMode mode)
{
    // Pin the mode explicitly so an ambient LAPERM_TICK_MODE cannot
    // collapse the two sides of the comparison into one.
    ScopedEnv tick("LAPERM_TICK_MODE", nullptr);
    GpuConfig cfg = paperConfig();
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tickMode = mode;
    return cfg;
}

} // namespace

TEST(TickModeDifferential, CanonicalRecordsMatch)
{
    // bfs-citation exercises the launch-heavy path; chase-ring the
    // stall-heavy path where the event loop elides almost every
    // front-end visit.
    for (const char *name : {"bfs-citation", "chase-ring"}) {
        auto w = createWorkload(name);
        w->setup(Scale::Tiny, 3);
        for (TbPolicy policy :
             {TbPolicy::RR, TbPolicy::TbPri, TbPolicy::AdaptiveBind}) {
            GpuConfig dense = modeConfig(TickMode::Dense);
            dense.tbPolicy = policy;
            GpuConfig event = modeConfig(TickMode::Event);
            event.tbPolicy = policy;
            const std::string a = runOneRecord(*w, dense, "").encode();
            const std::string b = runOneRecord(*w, event, "").encode();
            EXPECT_EQ(a, b) << name << "/" << toString(policy);
        }
    }
}

TEST(TickModeDifferential, TraceArtifactsMatch)
{
    auto w = createWorkload("bfs-citation");
    w->setup(Scale::Tiny, 3);

    const std::string denseDir = freshDir("trace_dense");
    const std::string eventDir = freshDir("trace_event");
    GpuConfig dense = modeConfig(TickMode::Dense);
    dense.tbPolicy = TbPolicy::AdaptiveBind;
    GpuConfig event = modeConfig(TickMode::Event);
    event.tbPolicy = TbPolicy::AdaptiveBind;
    (void)runOneRecord(*w, dense, denseDir);
    (void)runOneRecord(*w, event, eventDir);

    const auto a = dirContents(denseDir);
    const auto b = dirContents(eventDir);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[file, bytes] : a) {
        auto it = b.find(file);
        ASSERT_NE(it, b.end()) << file;
        EXPECT_EQ(bytes, it->second) << file;
    }
}

TEST(TickModeDifferential, SweepTsvMatchesAcrossModesAndJobCounts)
{
    const std::vector<std::string> names = {"bfs-citation"};
    const std::uint64_t seed = 3;
    std::vector<std::string> tsvs;
    std::vector<std::map<std::string, std::string>> stores;
    for (const char *mode : {"dense", "event"}) {
        for (unsigned jobs : {1u, 8u}) {
            // A fresh store per variant: in a shared one every variant
            // after the first would only read the first one's records.
            const std::string cacheDir = freshDir(
                std::string("sweep_") + mode + "_" + std::to_string(jobs));
            ScopedEnv cache("LAPERM_CACHE_DIR", cacheDir.c_str());
            ScopedEnv nocache("LAPERM_NO_CACHE", nullptr);
            ScopedEnv tick("LAPERM_TICK_MODE", mode);
            const auto results =
                runMatrix(names, Scale::Tiny, seed, true, jobs);
            EXPECT_FALSE(results.empty());
            tsvs.push_back(encodeSweepTsv(results));
            stores.push_back(dirContents(cacheDir + "/results"));
        }
    }
    ASSERT_EQ(tsvs.size(), 4u);
    for (std::size_t i = 1; i < tsvs.size(); ++i) {
        EXPECT_EQ(tsvs[0], tsvs[i]) << "variant " << i;
        EXPECT_EQ(stores[0], stores[i]) << "variant " << i;
    }
    EXPECT_FALSE(tsvs[0].empty());
    EXPECT_EQ(stores[0].size(), 8u); // one record per cell
}
