/**
 * @file
 * The observability layer's contract: multiple observers coexist,
 * locality counters exactly partition the cache-hit statistics, launch
 * events decompose Section IV-D latency, Chrome-trace output is
 * schema-valid JSON, and every artifact is byte-identical across
 * re-runs and sweep worker counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "obs/locality.hh"
#include "obs/trace_collector.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace laperm;
using namespace laperm::test;

namespace {

/** The parent/child microbenchmark from the Figure-4 example. */
struct Scenario
{
    std::shared_ptr<LambdaProgram> parent;
};

Scenario
makeScenario()
{
    auto child = std::make_shared<LambdaProgram>(
        "obs-child", allocateFunctionId(), [](ThreadCtx &c) {
            c.ld(0x8000 + 128 * (c.threadIndex() % 4));
            c.alu(30);
        });
    auto parent = std::make_shared<LambdaProgram>(
        "obs-parent", allocateFunctionId(), [child](ThreadCtx &c) {
            c.st(0x8000 + 128 * (c.threadIndex() % 4));
            if (c.threadIndex() == 0 && c.tbIndex() % 2 == 0)
                c.launch({child, 2, 32});
            c.alu(40);
        });
    return {parent};
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Minimal structural JSON validation: every brace/bracket/quote
 * balances and no control characters leak into strings. Sufficient to
 * catch any malformed emission from the hand-rolled writer.
 */
bool
jsonWellFormed(const std::string &text)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    for (char ch : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (ch == '\\')
                escaped = true;
            else if (ch == '"')
                in_string = false;
            else if (static_cast<unsigned char>(ch) < 0x20)
                return false;
            continue;
        }
        switch (ch) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            stack.push_back(ch);
            break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
    }
    return stack.empty() && !in_string;
}

} // namespace

TEST(Observability, MultipleObserversCoexist)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::CDP;
    Gpu gpu(cfg);

    // The test recorder and the structured collector attached to one
    // Gpu.
    DispatchRecorder recorder(gpu);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);

    Scenario s = makeScenario();
    gpu.launchHostKernel({s.parent, 6, 32});
    gpu.runToIdle();

    // 6 parents + 3 children * 2 TBs.
    ASSERT_EQ(recorder.records.size(), 12u);
    ASSERT_EQ(collector.dispatches().size(), 12u);
    EXPECT_EQ(collector.retires().size(), 12u);

    // Both observers saw the same dispatch stream.
    for (std::size_t i = 0; i < recorder.records.size(); ++i) {
        EXPECT_EQ(recorder.records[i].uid, collector.dispatches()[i].uid);
        EXPECT_EQ(recorder.records[i].cycle,
                  collector.dispatches()[i].cycle);
    }

    // The flat dispatch CSV (laperm_sim --trace) keeps its format.
    const std::string path = "obs_multi_tmp.csv";
    ASSERT_TRUE(collector.writeDispatchCsv(path));
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header,
              "uid,kernel,tbIndex,smx,cycle,priority,dynamic,parent");
    in.close();
    std::remove(path.c_str());
}

TEST(Observability, RetiresCarryDispatchData)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::DTBL;
    Gpu gpu(cfg);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);

    Scenario s = makeScenario();
    gpu.launchHostKernel({s.parent, 4, 32});
    gpu.runToIdle();

    ASSERT_FALSE(collector.retires().empty());
    for (const auto &e : collector.retires()) {
        EXPECT_LT(e.smx, cfg.numSmx);
        EXPECT_GE(e.cycle, e.dispatchCycle);
    }
    // Every dispatched uid retires exactly once.
    ASSERT_EQ(collector.dispatches().size(), collector.retires().size());
}

TEST(Observability, LaunchLatencyDecomposition)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::CDP;
    cfg.cdpLaunchLatency = 200;
    Gpu gpu(cfg);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);

    Scenario s = makeScenario();
    gpu.launchHostKernel({s.parent, 6, 32});
    gpu.runToIdle();

    const auto lats = collector.launchLatencies();
    // 1 host kernel + 3 device launches.
    ASSERT_EQ(lats.size(), 4u);
    std::size_t device = 0;
    for (const auto &ll : lats) {
        EXPECT_NE(ll.firstDispatchAt, kNoCycle);
        EXPECT_GE(ll.firstDispatchAt, ll.admittedAt);
        if (ll.isDevice) {
            ++device;
            // Queue time covers at least the modeled launch latency.
            EXPECT_GE(ll.queueCycles(), cfg.cdpLaunchLatency);
        } else {
            EXPECT_EQ(ll.queueCycles(), 0u);
        }
    }
    EXPECT_EQ(device, 3u);

    const std::string path = "obs_latency_tmp.tsv";
    ASSERT_TRUE(collector.writeLaunchLatencyTsv(path));
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "bucket_lo\tbucket_hi\tqueue\tdispatch\ttotal");
    // The per-component bucket counts each sum to the launch count.
    std::uint64_t queue_sum = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::uint64_t lo, hi, q, d, t;
        ASSERT_TRUE(static_cast<bool>(ls >> lo >> hi >> q >> d >> t));
        queue_sum += q;
    }
    EXPECT_EQ(queue_sum, lats.size());
    in.close();
    std::remove(path.c_str());
}

TEST(Observability, StealEventsMatchStats)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tbPolicy = TbPolicy::AdaptiveBind;
    cfg.maxTbsPerSmx = 1;
    cfg.maxThreadsPerSmx = 64;
    Gpu gpu(cfg);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);

    Scenario s = makeScenario();
    gpu.launchHostKernel({s.parent, 8, 32});
    gpu.runToIdle();

    const GpuStats &st = gpu.stats();
    std::uint64_t adoptions = 0, thefts = 0;
    for (const auto &e : collector.steals()) {
        EXPECT_LT(e.smx, cfg.numSmx);
        (e.adoption ? adoptions : thefts)++;
    }
    EXPECT_EQ(adoptions, st.backupAdoptions);
    EXPECT_EQ(thefts, st.unboundDispatches);
}

TEST(Observability, LocalityCountersPartitionCacheHits)
{
    // A real workload, both models: the class counters must sum to the
    // exact L1/L2 hit totals the cache statistics report.
    for (DynParModel model : {DynParModel::CDP, DynParModel::DTBL}) {
        auto w = createWorkload("bfs-cage");
        w->setup(Scale::Tiny, 7);
        GpuConfig cfg = paperConfig();
        cfg.dynParModel = model;
        cfg.tbPolicy = TbPolicy::AdaptiveBind;
        Gpu gpu(cfg);
        obs::LocalityTracker tracker(gpu.mem().numL1());
        gpu.setLocalityTracker(&tracker);
        gpu.runWaves(w->waves());

        const GpuStats &s = gpu.stats();
        EXPECT_EQ(tracker.l1().total(), s.l1Total().hits);
        EXPECT_EQ(tracker.l2().total(), s.l2.hits);
        EXPECT_GT(tracker.l1().total(), 0u);
    }
}

TEST(Observability, LocalityClassification)
{
    obs::LocalityTracker t(1);
    const obs::MemAccessor parent{10, kNoTb, false};
    const obs::MemAccessor childA{20, 10, true};
    const obs::MemAccessor childB{21, 10, true};
    const obs::MemAccessor stranger{30, kNoTb, false};

    t.onL1Access(0, 0x100, false, parent);   // install: no hit counted
    t.onL1Access(0, 0x100, true, parent);    // self
    t.onL1Access(0, 0x100, true, childA);    // parent-line reuse
    t.onL1Access(0, 0x100, true, childB);    // sibling
    t.onL1Access(0, 0x100, true, parent);    // child (B touched last)
    t.onL1Access(0, 0x100, true, stranger);  // other
    using RC = obs::ReuseClass;
    EXPECT_EQ(t.l1().count(RC::Self), 1u);
    EXPECT_EQ(t.l1().count(RC::Parent), 1u);
    EXPECT_EQ(t.l1().count(RC::Sibling), 1u);
    EXPECT_EQ(t.l1().count(RC::Child), 1u);
    EXPECT_EQ(t.l1().count(RC::Other), 1u);
    EXPECT_EQ(t.l1().total(), 5u);
    EXPECT_EQ(t.l2().total(), 0u);
}

TEST(Observability, ChromeTraceIsWellFormedJson)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tbPolicy = TbPolicy::AdaptiveBind;
    Gpu gpu(cfg);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);
    Scenario s = makeScenario();
    gpu.launchHostKernel({s.parent, 8, 32});
    gpu.runToIdle();

    const std::string path = "obs_chrome_tmp.json";
    ASSERT_TRUE(collector.writeChromeTrace(path));
    const std::string text = slurp(path);
    std::remove(path.c_str());

    ASSERT_FALSE(text.empty());
    EXPECT_TRUE(jsonWellFormed(text));
    EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
    // Every TB appears as a duration event with integer timestamps.
    std::size_t durations = 0;
    for (std::size_t at = text.find("\"ph\":\"X\"");
         at != std::string::npos;
         at = text.find("\"ph\":\"X\"", at + 1)) {
        ++durations;
    }
    EXPECT_EQ(durations, collector.retires().size());
    EXPECT_EQ(text.find('.'), std::string::npos)
        << "Chrome trace must contain only integer values";
}

TEST(Observability, ArtifactsByteIdenticalAcrossReruns)
{
    auto run_once = [](const std::string &tag) {
        GpuConfig cfg = tinyConfig();
        cfg.dynParModel = DynParModel::DTBL;
        cfg.tbPolicy = TbPolicy::AdaptiveBind;
        Gpu gpu(cfg);
        obs::TraceCollector collector;
        gpu.observers().attach(&collector);
        obs::LocalityTracker tracker(gpu.mem().numL1());
        gpu.setLocalityTracker(&tracker);
        Scenario s = makeScenario();
        gpu.launchHostKernel({s.parent, 8, 32});
        gpu.runToIdle();
        collector.writeChromeTrace(tag + ".json");
        collector.writeIntervalTsv(tag + ".tsv", 64);
        collector.writeLaunchLatencyTsv(tag + ".lat");
        tracker.writeTsv(tag + ".loc");
    };
    run_once("obs_rerun_a");
    run_once("obs_rerun_b");
    for (const char *ext : {".json", ".tsv", ".lat", ".loc"}) {
        const std::string a = slurp(std::string("obs_rerun_a") + ext);
        const std::string b = slurp(std::string("obs_rerun_b") + ext);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "mismatch in " << ext;
        std::remove((std::string("obs_rerun_a") + ext).c_str());
        std::remove((std::string("obs_rerun_b") + ext).c_str());
    }
}

TEST(Observability, WritersReportAWriteTheDeviceRefused)
{
    // /dev/full opens for writing and fails every flush with ENOSPC.
    // Each writer must report that, not a file it did not write.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::DTBL;
    Gpu gpu(cfg);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);
    obs::LocalityTracker tracker(gpu.mem().numL1());
    gpu.setLocalityTracker(&tracker);
    Scenario s = makeScenario();
    gpu.launchHostKernel({s.parent, 8, 32});
    gpu.runToIdle();

    const std::string full = "/dev/full";
    EXPECT_FALSE(collector.writeChromeTrace(full));
    EXPECT_FALSE(collector.writeIntervalTsv(full, 64));
    EXPECT_FALSE(collector.writeLaunchLatencyTsv(full));
    EXPECT_FALSE(collector.writeDispatchCsv(full));
    EXPECT_FALSE(tracker.writeTsv(full));
    const std::string ok = "obs_full_control.tsv";
    EXPECT_TRUE(tracker.writeTsv(ok));
    std::remove(ok.c_str());
}

TEST(Observability, SweepTracesByteIdenticalAcrossJobCounts)
{
    namespace fs = std::filesystem;
    const std::string dirA = "obs_sweep_j1";
    const std::string dirB = "obs_sweep_j8";

    setenv("LAPERM_TRACE_DIR", dirA.c_str(), 1);
    runMatrix({"bfs-cage"}, Scale::Tiny, 7, false, 1);
    setenv("LAPERM_TRACE_DIR", dirB.c_str(), 1);
    runMatrix({"bfs-cage"}, Scale::Tiny, 7, false, 8);
    unsetenv("LAPERM_TRACE_DIR");

    // 8 cells x 5 artifacts per directory, pairwise byte-identical.
    std::vector<std::string> names;
    for (const auto &e : fs::directory_iterator(dirA))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    ASSERT_EQ(names.size(), 40u);
    for (const auto &name : names) {
        const std::string a = slurp(dirA + "/" + name);
        const std::string b = slurp(dirB + "/" + name);
        ASSERT_FALSE(a.empty()) << name;
        EXPECT_EQ(a, b) << "worker-count-dependent bytes in " << name;
    }
    fs::remove_all(dirA);
    fs::remove_all(dirB);
}

TEST(Observability, IntervalTsvAccountsEveryTb)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::DTBL;
    Gpu gpu(cfg);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);
    Scenario s = makeScenario();
    gpu.launchHostKernel({s.parent, 8, 32});
    gpu.runToIdle();

    const std::string path = "obs_interval_tmp.tsv";
    ASSERT_TRUE(collector.writeIntervalTsv(path, 32));
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "interval_start\tdispatches\tretires\tadmits\t"
                      "steals\toccupancy_tb_cycles");
    std::uint64_t dispatches = 0, retires = 0, occupancy = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::uint64_t start, d, r, a, st, occ;
        ASSERT_TRUE(
            static_cast<bool>(ls >> start >> d >> r >> a >> st >> occ));
        dispatches += d;
        retires += r;
        occupancy += occ;
    }
    in.close();
    std::remove(path.c_str());

    EXPECT_EQ(dispatches, collector.dispatches().size());
    EXPECT_EQ(retires, collector.retires().size());
    // The occupancy integral equals the summed TB residencies.
    std::uint64_t residency = 0;
    for (const auto &e : collector.retires())
        residency += e.cycle - e.dispatchCycle;
    EXPECT_EQ(occupancy, residency);
}
