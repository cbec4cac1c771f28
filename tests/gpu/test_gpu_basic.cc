#include <gtest/gtest.h>

#include "common/log.hh"
#include "test_util.hh"

using namespace laperm;
using namespace laperm::test;

namespace {

/** A parent kernel whose thread 0 of each TB launches children. */
LaunchRequest
nestedLaunch(std::uint32_t parent_tbs, std::uint32_t children_per_tb,
             std::uint32_t child_tbs)
{
    auto child = std::make_shared<LambdaProgram>(
        "child", allocateFunctionId(), [](ThreadCtx &c) {
            c.ld(c.globalThreadIndex() * 4, 4);
            c.alu(8);
        });
    auto parent = std::make_shared<LambdaProgram>(
        "parent", allocateFunctionId(),
        [child, children_per_tb, child_tbs](ThreadCtx &c) {
            c.alu(16);
            if (c.threadIndex() < children_per_tb)
                c.launch({child, child_tbs, 32});
        });
    return {parent, parent_tbs, 32};
}

} // namespace

TEST(GpuBasic, HostKernelDrains)
{
    Gpu gpu(tinyConfig());
    auto prog = std::make_shared<LambdaProgram>(
        "k", allocateFunctionId(), [](ThreadCtx &c) { c.alu(5); });
    gpu.launchHostKernel({prog, 16, 32});
    gpu.runToIdle();
    EXPECT_EQ(gpu.activeTbs(), 0u);
    EXPECT_EQ(gpu.undispatchedTbs(), 0u);
    EXPECT_EQ(gpu.stats().kernelsLaunched, 1u);
}

TEST(GpuBasic, DeviceLaunchesExecuteAllChildTbs)
{
    for (DynParModel model : {DynParModel::CDP, DynParModel::DTBL}) {
        GpuConfig cfg = tinyConfig();
        cfg.dynParModel = model;
        Gpu gpu(cfg);
        gpu.launchHostKernel(nestedLaunch(4, 2, 3));
        gpu.runToIdle();
        const GpuStats &s = gpu.stats();
        EXPECT_EQ(s.deviceLaunches, 8u) << toString(model);
        EXPECT_EQ(s.dynamicTbs, 24u) << toString(model);
        std::uint64_t dyn_tbs = 0;
        for (const auto &smx : s.smx)
            dyn_tbs += smx.dynamicTbsExecuted;
        EXPECT_EQ(dyn_tbs, 24u) << toString(model);
    }
}

TEST(GpuBasic, DtblCoalescesOntoMatchingKernel)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::DTBL;
    Gpu gpu(cfg);
    gpu.launchHostKernel(nestedLaunch(4, 2, 3));
    gpu.runToIdle();
    const GpuStats &s = gpu.stats();
    // The first child launch creates a device kernel; subsequent ones
    // coalesce while it is still running.
    EXPECT_GT(s.dtblCoalesced, 0u);
    EXPECT_LT(s.kernelsLaunched, 1u + 8u);
}

TEST(GpuBasic, CdpCreatesOneKernelPerLaunch)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::CDP;
    Gpu gpu(cfg);
    gpu.launchHostKernel(nestedLaunch(4, 2, 3));
    gpu.runToIdle();
    EXPECT_EQ(gpu.stats().kernelsLaunched, 1u + 8u);
    EXPECT_EQ(gpu.stats().dtblCoalesced, 0u);
}

TEST(GpuBasic, CdpLaunchLatencyDelaysChildren)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::CDP;
    cfg.cdpLaunchLatency = 50;
    Gpu fast(cfg);
    fast.launchHostKernel(nestedLaunch(2, 1, 1));
    fast.runToIdle();

    cfg.cdpLaunchLatency = 5000;
    Gpu slow(cfg);
    slow.launchHostKernel(nestedLaunch(2, 1, 1));
    slow.runToIdle();

    EXPECT_GT(slow.stats().cycles, fast.stats().cycles + 4000);
}

TEST(GpuBasic, KduLimitSerializesCdpKernels)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::CDP;
    cfg.kduEntries = 2; // host kernel + one device kernel at a time
    Gpu gpu(cfg);
    gpu.launchHostKernel(nestedLaunch(8, 2, 1)); // 16 device kernels
    gpu.runToIdle();
    EXPECT_GT(gpu.stats().kduFullStalls, 0u);
    EXPECT_EQ(gpu.stats().dynamicTbs, 16u); // still all executed
}

TEST(GpuBasic, MultipleWavesRunInOrder)
{
    Gpu gpu(tinyConfig());
    auto prog = std::make_shared<LambdaProgram>(
        "w", allocateFunctionId(), [](ThreadCtx &c) { c.alu(5); });
    std::vector<LaunchRequest> waves = {{prog, 4, 32}, {prog, 4, 32}};
    gpu.runWaves(waves);
    EXPECT_EQ(gpu.stats().kernelsLaunched, 2u);
}

TEST(GpuBasic, NestedLaunchDepthClampsPriority)
{
    GpuConfig cfg = tinyConfig();
    cfg.dynParModel = DynParModel::DTBL;
    cfg.maxPriorityLevels = 2;
    cfg.tbPolicy = TbPolicy::TbPri;

    // Three levels of nesting: priorities must be 0, 1, 2, 2.
    auto l3 = std::make_shared<LambdaProgram>(
        "l3", allocateFunctionId(), [](ThreadCtx &c) { c.alu(1); });
    auto l2 = std::make_shared<LambdaProgram>(
        "l2", allocateFunctionId(), [l3](ThreadCtx &c) {
            c.alu(1);
            if (c.threadIndex() == 0)
                c.launch({l3, 1, 32});
        });
    auto l1 = std::make_shared<LambdaProgram>(
        "l1", allocateFunctionId(), [l2](ThreadCtx &c) {
            c.alu(1);
            if (c.threadIndex() == 0)
                c.launch({l2, 1, 32});
        });
    auto l0 = std::make_shared<LambdaProgram>(
        "l0", allocateFunctionId(), [l1](ThreadCtx &c) {
            c.alu(1);
            if (c.threadIndex() == 0)
                c.launch({l1, 1, 32});
        });

    Gpu gpu(cfg);
    DispatchRecorder rec(gpu);
    gpu.launchHostKernel({l0, 1, 32});
    gpu.runToIdle();

    ASSERT_EQ(rec.records.size(), 4u);
    std::vector<std::uint32_t> prios;
    for (const auto &r : rec.records)
        prios.push_back(r.priority);
    std::sort(prios.begin(), prios.end());
    EXPECT_EQ(prios, (std::vector<std::uint32_t>{0, 1, 2, 2}));
}

TEST(GpuBasic, StatsIpcPositive)
{
    Gpu gpu(tinyConfig());
    auto prog = std::make_shared<LambdaProgram>(
        "k", allocateFunctionId(), [](ThreadCtx &c) {
            c.alu(4);
            c.ld(c.globalThreadIndex() * 4);
        });
    gpu.launchHostKernel({prog, 8, 64});
    gpu.runToIdle();
    EXPECT_GT(gpu.stats().ipc(), 0.0);
}

TEST(GpuBasic, TbsThatNoSmxCanHoldFailAtOnce)
{
    // A TB over any one SMX limit would wait for dispatch until the
    // cycle cap; both launch paths refuse it instead, naming the
    // resource. Under FatalThrows the refusal is an exception.
    const GpuConfig cfg = tinyConfig();
    auto fat = [&cfg](std::uint32_t regs, std::uint32_t smem) {
        return std::make_shared<LambdaProgram>(
            "fat", allocateFunctionId(), [](ThreadCtx &c) { c.alu(1); },
            regs, smem);
    };
    const FatalThrows fatal_throws;
    const struct
    {
        std::shared_ptr<LambdaProgram> program;
        std::uint32_t threads;
        const char *resource;
    } cases[] = {
        {fat(1, 0), cfg.maxThreadsPerSmx + kWarpSize, "threads"},
        {fat(cfg.regsPerSmx / 32 + 1, 0), 32, "registers"},
        {fat(1, cfg.smemPerSmx + 1), 32, "shared-memory"},
    };
    for (const auto &c : cases) {
        Gpu host(cfg);
        try {
            host.launchHostKernel({c.program, 1, c.threads});
            ADD_FAILURE() << "host launch accepted " << c.resource;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.resource),
                      std::string::npos)
                << e.what();
        }

        // The same TB as a child of a TB that fits.
        auto parent = std::make_shared<LambdaProgram>(
            "parent", allocateFunctionId(),
            [child = c.program, threads = c.threads](ThreadCtx &t) {
                if (t.threadIndex() == 0)
                    t.launch({child, 1, threads});
            });
        Gpu device(cfg);
        device.launchHostKernel({parent, 1, 32});
        try {
            device.runToIdle();
            ADD_FAILURE() << "device launch accepted " << c.resource;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.resource),
                      std::string::npos)
                << e.what();
        }
        EXPECT_LT(device.now(), 1000u) << c.resource;
    }
}
