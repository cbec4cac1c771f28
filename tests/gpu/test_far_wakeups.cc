/**
 * @file
 * SMX wakeups far from the step that arms them (DESIGN.md §11.3):
 * warps that sleep 1,023, 1,024 and 5,000 cycles on one ALU op give the
 * same canonical record run to idle, in slices that stop inside a
 * sleep, and across an idle gap, in both tick modes.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/result_cache.hh"
#include "sim/config_loader.hh"
#include "test_util.hh"

using namespace laperm;
using namespace laperm::test;

namespace {

constexpr std::uint32_t kWaits[] = {1023, 1024, 5000};
constexpr std::uint32_t kTbs = 3;
constexpr Cycle kSlice = 700; // shorter than every wait
constexpr Cycle kGap = 7000;

/**
 * kTbs one-warp TBs, one per SMX of tinyConfig under RR: TB i loads,
 * sleeps kWaits[i] cycles on one ALU op, and stores, so its SMX is
 * armed exactly that far past the step that issued the op.
 */
LaunchRequest
farWaitKernel()
{
    auto prog = std::make_shared<LambdaProgram>(
        "far-wait", allocateFunctionId(), [](ThreadCtx &c) {
            c.ld(c.globalThreadIndex() * 4, 4);
            c.alu(kWaits[c.tbIndex() % kTbs]);
            c.st(c.globalThreadIndex() * 4, 4);
        });
    return {prog, kTbs, kWarpSize};
}

enum class Drive
{
    ToIdle,  ///< runToIdle per wave
    Sliced,  ///< runUntil(now + kSlice) per wave until idle
    Gap,     ///< Sliced, with advanceTo(now + kGap) between the waves
};

struct Outcome
{
    std::string record;
    Cycle cycles = 0;
    WorkCounters work;
};

/** Two waves of farWaitKernel under RR in @p mode. */
Outcome
runTwoWaves(TickMode mode, Drive drive)
{
    GpuConfig cfg = tinyConfig();
    cfg.tbPolicy = TbPolicy::RR;
    cfg.tickMode = mode;
    Gpu gpu(cfg);
    for (int wave = 0; wave < 2; ++wave) {
        if (wave == 1 && drive == Drive::Gap)
            gpu.advanceTo(gpu.now() + kGap);
        gpu.launchHostKernel(farWaitKernel());
        if (drive == Drive::ToIdle) {
            gpu.runToIdle();
            continue;
        }
        while (!gpu.isIdle())
            gpu.runUntil(gpu.now() + kSlice);
    }
    Outcome out;
    const GpuStats &stats = gpu.stats();
    out.record = ResultRecord::fromStats("far-wait", cfg.dynParModel,
                                         cfg.tbPolicy, stats,
                                         machineHash(cfg))
                     .encode();
    out.cycles = stats.cycles;
    out.work = gpu.workCounters();
    return out;
}

} // namespace

TEST(FarWakeups, SlicesThatStopInsideAWaitMatchOneRun)
{
    for (TickMode mode : {TickMode::Dense, TickMode::Event}) {
        const Outcome whole = runTwoWaves(mode, Drive::ToIdle);
        const Outcome sliced = runTwoWaves(mode, Drive::Sliced);
        EXPECT_EQ(whole.record, sliced.record) << toString(mode);
        // Each wave has a TB that sleeps 5,000 cycles.
        EXPECT_GT(whole.cycles, 2 * Cycle(kWaits[2])) << toString(mode);
    }
}

TEST(FarWakeups, TickModesAgreeAcrossAnIdleGap)
{
    for (Drive drive : {Drive::ToIdle, Drive::Sliced, Drive::Gap}) {
        const Outcome dense = runTwoWaves(TickMode::Dense, drive);
        const Outcome event = runTwoWaves(TickMode::Event, drive);
        EXPECT_EQ(dense.record, event.record)
            << "drive " << static_cast<int>(drive);
        EXPECT_EQ(dense.cycles, event.cycles);
        // Both loops jump over the waits instead of visiting them cycle
        // by cycle, and they visit the same cycles.
        EXPECT_EQ(dense.work.batches, event.work.batches)
            << "drive " << static_cast<int>(drive);
        EXPECT_LT(event.work.batches, event.cycles / 20)
            << "drive " << static_cast<int>(drive);
    }
    const Outcome whole = runTwoWaves(TickMode::Event, Drive::ToIdle);
    const Outcome gap = runTwoWaves(TickMode::Event, Drive::Gap);
    EXPECT_GT(gap.cycles, whole.cycles);
    EXPECT_GE(gap.cycles, kGap + 2 * Cycle(kWaits[2]));
}
