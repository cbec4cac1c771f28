/**
 * @file
 * Section IV-E: hardware overhead microbenchmarks. The paper budgets
 * one cycle for the three-stage dispatch search, up to L cycles for
 * the KMU priority search, and up to 128 cycles for an on-chip queue
 * insert (hidden by TB-group setup). These google-benchmark timings
 * establish that the modeled operations are O(1)/O(L) as the hardware
 * design assumes — and measure the simulator's own costs.
 */

#include <benchmark/benchmark.h>

#include "gpu/gpu.hh"
#include "gpu/kmu.hh"
#include "kernels/lambda_program.hh"
#include "mem/cache.hh"
#include "sched/priority_queues.hh"

using namespace laperm;

namespace {

void
BM_PriorityQueuePushFront(benchmark::State &state)
{
    GpuStats stats;
    PriorityQueues q(5, 0);
    std::vector<DispatchUnit> units(1024);
    for (std::size_t i = 0; i < units.size(); ++i) {
        units[i].priority = static_cast<std::uint32_t>(i % 5);
        units[i].count = 1;
    }
    std::size_t i = 0;
    for (auto _ : state) {
        DispatchUnit &u = units[i++ % units.size()];
        u.nextTb = 0;
        q.push(&u, stats);
        bool blocked;
        benchmark::DoNotOptimize(q.front(0, blocked));
        u.nextTb = u.count;
        q.popIfExhausted(&u);
    }
}
BENCHMARK(BM_PriorityQueuePushFront);

void
BM_KmuPeekUnderBacklog(benchmark::State &state)
{
    // A large CDP backlog must not make admission O(n).
    Kmu kmu;
    auto prog = std::make_shared<LambdaProgram>(
        "k", 1, [](ThreadCtx &c) { c.alu(1); });
    for (int i = 0; i < state.range(0); ++i) {
        PendingLaunch p;
        p.req = {prog, 1, 32};
        p.priority = static_cast<std::uint32_t>(i % 4);
        p.readyAt = 0;
        kmu.push(std::move(p));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(kmu.peekReady(1, true));
}
BENCHMARK(BM_KmuPeekUnderBacklog)->Arg(64)->Arg(4096);

void
BM_CacheLookup(benchmark::State &state)
{
    CacheParams p;
    p.size = 32 * 1024;
    p.assoc = 4;
    Cache c(p);
    Addr line = 0;
    Cycle now = 0;
    for (auto _ : state) {
        auto r = c.lookupLoad(line, now);
        if (!r.hit && !r.mshrMerge)
            c.allocate(line, now, now, false);
        line = (line + kLineBytes) % (1 << 20);
        ++now;
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_CacheLookup);

void
BM_WarpTraceBuild(benchmark::State &state)
{
    auto prog = std::make_shared<LambdaProgram>(
        "t", 4, [](ThreadCtx &c) {
            for (std::uint32_t i = 0; i < 8; ++i) {
                c.ld(c.globalThreadIndex() * 4 + i * 4096, 4);
                c.alu(4);
            }
        });
    // One block and one warp of thread contexts, reused from build to
    // build as a trace forest's builder reuses them.
    ThreadBlock tb;
    std::vector<ThreadCtx> threads;
    for (auto _ : state) {
        const std::size_t ops =
            buildThreadBlockInto(tb, *prog, 0, 128, 1, threads);
        benchmark::DoNotOptimize(ops);
        benchmark::DoNotOptimize(tb.traces.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_WarpTraceBuild);

void
BM_GpuSimulatedCycle(benchmark::State &state)
{
    // Wall-clock cost per simulated cycle on a busy Table I device.
    GpuConfig cfg;
    cfg.dynParModel = DynParModel::DTBL;
    cfg.tbPolicy = TbPolicy::AdaptiveBind;
    auto child = std::make_shared<LambdaProgram>(
        "c", 5, [](ThreadCtx &c) {
            c.ld(c.globalThreadIndex() * 128, 4);
            c.alu(20);
        });
    auto parent = std::make_shared<LambdaProgram>(
        "p", 6, [child](ThreadCtx &c) {
            c.alu(40);
            if (c.threadIndex() < 8)
                c.launch({child, 1, 64});
        });

    for (auto _ : state) {
        state.PauseTiming();
        Gpu gpu(cfg);
        gpu.launchHostKernel({parent, 128, 128});
        state.ResumeTiming();
        gpu.runToIdle();
        state.counters["sim_cycles"] = static_cast<double>(
            gpu.stats().cycles);
    }
}
BENCHMARK(BM_GpuSimulatedCycle)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
