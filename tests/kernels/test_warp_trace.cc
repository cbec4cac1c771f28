#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <type_traits>

#include "common/rng.hh"
#include "gpu/thread_block.hh"
#include "kernels/lambda_program.hh"
#include "kernels/warp_trace.hh"

using namespace laperm;

namespace {

std::vector<ThreadCtx>
makeThreads(std::uint32_t count,
            const std::function<void(ThreadCtx &)> &body)
{
    std::vector<ThreadCtx> threads;
    for (std::uint32_t t = 0; t < count; ++t) {
        threads.emplace_back(0, t, count, 1);
        body(threads.back());
    }
    return threads;
}

/** Zip @p threads as one warp; the trace owns what its ops point to. */
WarpTrace
zip(std::vector<ThreadCtx> &threads)
{
    WarpTrace trace;
    zipWarp(trace, threads);
    return trace;
}

/** A warp op as the reference zip builds it: it owns its arrays. */
struct RefOp
{
    OpKind kind;
    std::uint32_t activeLanes = 0;
    std::uint32_t aluCycles = 0;
    std::vector<Addr> lines;
    std::vector<LaunchRequest> launches;
};

/**
 * The zip as it was before warp ops became spans: one vector per op,
 * every memory op sorted and deduplicated, every launch request copied
 * out of its lane. zipWarp must build exactly these ops.
 */
std::vector<RefOp>
referenceZip(const std::vector<ThreadCtx> &threads,
             std::uint32_t first_thread, std::uint32_t count)
{
    std::vector<RefOp> out;
    std::array<std::uint32_t, kWarpSize> pc{};
    std::array<std::uint32_t, kWarpSize> launched{};

    auto remaining = [&](std::uint32_t lane) {
        return pc[lane] < threads[first_thread + lane].ops().size();
    };
    auto cur = [&](std::uint32_t lane) -> const ThreadOp & {
        return threads[first_thread + lane].ops()[pc[lane]];
    };

    for (;;) {
        std::uint32_t leader = count;
        std::uint32_t first_live = count;
        for (std::uint32_t l = 0; l < count; ++l) {
            if (!remaining(l))
                continue;
            if (first_live == count)
                first_live = l;
            if (cur(l).kind != OpKind::Bar) {
                leader = l;
                break;
            }
        }
        if (first_live == count)
            break;
        if (leader == count)
            leader = first_live;

        RefOp &op = out.emplace_back();
        const OpKind kind = cur(leader).kind;
        op.kind = kind;
        for (std::uint32_t l = leader; l < count; ++l) {
            if (!remaining(l) || cur(l).kind != kind)
                continue;
            const ThreadOp &top = cur(l);
            ++op.activeLanes;
            switch (kind) {
              case OpKind::Alu:
                op.aluCycles = std::max(op.aluCycles, top.aluCycles);
                break;
              case OpKind::Load:
              case OpKind::Store:
                op.lines.push_back(top.addr);
                break;
              case OpKind::Launch:
                op.launches.push_back(
                    threads[first_thread + l].launches()[launched[l]++]);
                break;
              case OpKind::Bar:
                break;
            }
            ++pc[l];
        }
        if (kind == OpKind::Load || kind == OpKind::Store) {
            std::sort(op.lines.begin(), op.lines.end());
            op.lines.erase(std::unique(op.lines.begin(), op.lines.end()),
                           op.lines.end());
        }
    }
    return out;
}

/** Every field of @p trace's ops equals @p ref's, arrays in order. */
void
expectSameOps(const WarpTrace &trace, const std::vector<RefOp> &ref,
              const std::string &what)
{
    ASSERT_EQ(trace.ops.size(), ref.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const WarpOp &op = trace.ops[i];
        const RefOp &want = ref[i];
        const std::string at = what + " op " + std::to_string(i);
        EXPECT_EQ(op.kind, want.kind) << at;
        EXPECT_EQ(op.activeLanes, want.activeLanes) << at;
        EXPECT_EQ(op.aluCycles, want.aluCycles) << at;
        EXPECT_TRUE(std::ranges::equal(op.lines, want.lines)) << at;
        ASSERT_EQ(op.launches.size(), want.launches.size()) << at;
        for (std::size_t k = 0; k < want.launches.size(); ++k) {
            EXPECT_EQ(op.launches[k].program, want.launches[k].program)
                << at;
            EXPECT_EQ(op.launches[k].numTbs, want.launches[k].numTbs)
                << at;
            EXPECT_EQ(op.launches[k].threadsPerTb,
                      want.launches[k].threadsPerTb)
                << at;
            EXPECT_EQ(op.launches[k].tenant, want.launches[k].tenant)
                << at;
        }
    }
}

/** Every op's spans lie inside @p trace's own arrays. */
void
expectSpansInside(const WarpTrace &trace, const std::string &what)
{
    const Addr *lines = trace.lines.data();
    const LaunchRequest *launches = trace.launches.data();
    for (const WarpOp &op : trace.ops) {
        if (!op.lines.empty()) {
            EXPECT_GE(op.lines.data(), lines) << what;
            EXPECT_LE(op.lines.data() + op.lines.size(),
                      lines + trace.lines.size())
                << what;
        }
        if (!op.launches.empty()) {
            EXPECT_GE(op.launches.data(), launches) << what;
            EXPECT_LE(op.launches.data() + op.launches.size(),
                      launches + trace.launches.size())
                << what;
        }
    }
}

std::shared_ptr<const KernelProgram>
childProgram(const char *name)
{
    return std::make_shared<LambdaProgram>(
        name, allocateFunctionId(), [](ThreadCtx &c) { c.alu(1); });
}

} // namespace

static_assert(sizeof(ThreadOp) == 16);
static_assert(!std::is_copy_constructible_v<WarpTrace>);
static_assert(!std::is_copy_constructible_v<Warp>);
static_assert(!std::is_copy_assignable_v<Warp>);
static_assert(std::is_nothrow_move_constructible_v<Warp>);

TEST(WarpTrace, CoalescedLoadsMergeToOneLine)
{
    // 32 threads loading consecutive 4-byte words in one line.
    auto threads = makeThreads(32, [](ThreadCtx &c) {
        c.ld(c.threadIndex() * 4, 4);
    });
    const WarpTrace t = zip(threads);
    ASSERT_EQ(t.ops.size(), 1u);
    EXPECT_EQ(t.ops[0].kind, OpKind::Load);
    EXPECT_EQ(t.ops[0].activeLanes, 32u);
    EXPECT_EQ(t.ops[0].lines.size(), 1u);
}

TEST(WarpTrace, ScatteredLoadsProduceManyLines)
{
    auto threads = makeThreads(32, [](ThreadCtx &c) {
        c.ld(static_cast<Addr>(c.threadIndex()) * 4096, 4);
    });
    const WarpTrace t = zip(threads);
    ASSERT_EQ(t.ops.size(), 1u);
    EXPECT_EQ(t.ops[0].lines.size(), 32u);
}

TEST(WarpTrace, AluTakesMaxOverLanes)
{
    auto threads = makeThreads(4, [](ThreadCtx &c) {
        c.alu(c.threadIndex() + 1);
    });
    const WarpTrace t = zip(threads);
    ASSERT_EQ(t.ops.size(), 1u);
    EXPECT_EQ(t.ops[0].aluCycles, 4u);
}

TEST(WarpTrace, DivergentKindsSerialize)
{
    // Even threads compute, odd threads load: two warp ops.
    auto threads = makeThreads(4, [](ThreadCtx &c) {
        if (c.threadIndex() % 2 == 0)
            c.alu(2);
        else
            c.ld(0);
    });
    const WarpTrace t = zip(threads);
    ASSERT_EQ(t.ops.size(), 2u);
    EXPECT_EQ(t.ops[0].activeLanes, 2u);
    EXPECT_EQ(t.ops[1].activeLanes, 2u);
    EXPECT_NE(t.ops[0].kind, t.ops[1].kind);
}

TEST(WarpTrace, UnevenTraceLengths)
{
    auto threads = makeThreads(3, [](ThreadCtx &c) {
        for (std::uint32_t i = 0; i <= c.threadIndex(); ++i)
            c.ld(i * 4096 + c.threadIndex() * 131072);
    });
    const WarpTrace t = zip(threads);
    // Positions: step0 all 3 lanes, step1 two lanes, step2 one lane.
    ASSERT_EQ(t.ops.size(), 3u);
    EXPECT_EQ(t.ops[0].activeLanes, 3u);
    EXPECT_EQ(t.ops[1].activeLanes, 2u);
    EXPECT_EQ(t.ops[2].activeLanes, 1u);
}

TEST(WarpTrace, BarrierWaitsForAllLanes)
{
    // Lane 0 reaches the bar immediately; lane 1 loads first. The bar
    // must issue once, after the load, with both lanes.
    std::vector<ThreadCtx> threads;
    threads.emplace_back(0, 0, 2, 1);
    threads.back().bar();
    threads.back().alu(1);
    threads.emplace_back(0, 1, 2, 1);
    threads.back().ld(0);
    threads.back().bar();
    threads.back().alu(1);

    const WarpTrace t = zip(threads);
    ASSERT_EQ(t.ops.size(), 3u);
    EXPECT_EQ(t.ops[0].kind, OpKind::Load);
    EXPECT_EQ(t.ops[1].kind, OpKind::Bar);
    EXPECT_EQ(t.ops[1].activeLanes, 2u);
    EXPECT_EQ(t.ops[2].kind, OpKind::Alu);
}

TEST(WarpTrace, LaunchGathersPerLaneRequests)
{
    auto child = childProgram("c");
    auto threads = makeThreads(4, [&](ThreadCtx &c) {
        if (c.threadIndex() < 2)
            c.launch({child, c.threadIndex() + 1, 32});
    });
    const WarpTrace t = zip(threads);
    ASSERT_EQ(t.ops.size(), 1u);
    EXPECT_EQ(t.ops[0].kind, OpKind::Launch);
    ASSERT_EQ(t.ops[0].launches.size(), 2u);
    EXPECT_EQ(t.ops[0].launches[0].numTbs, 1u);
    EXPECT_EQ(t.ops[0].launches[1].numTbs, 2u);
    // The requests were moved, not copied: the trace holds the only
    // references besides this test's.
    EXPECT_EQ(child.use_count(), 3);
}

TEST(WarpTrace, EmptyThreadsProduceNoOps)
{
    auto threads = makeThreads(2, [](ThreadCtx &) {});
    const WarpTrace t = zip(threads);
    EXPECT_TRUE(t.ops.empty());
}

TEST(WarpTrace, MatchesReferenceZipOnRandomWarps)
{
    // Random warps from a fixed seed: every field of every op must
    // equal the reference zip's, including line and launch order.
    const std::array<std::shared_ptr<const KernelProgram>, 3> children = {
        childProgram("a"), childProgram("b"), childProgram("c")};
    constexpr std::uint32_t kWarps = 10000;
    constexpr OpKind kKinds[] = {OpKind::Alu, OpKind::Load, OpKind::Store,
                                 OpKind::Bar, OpKind::Launch};
    Rng rng(0x5eed);
    WarpTrace trace; // rebuilt every warp, like a recycled Warp
    std::vector<ThreadCtx> threads;
    std::uint64_t descending = 0, launches = 0, bars = 0, uneven = 0,
                  empty = 0, multi_line = 0;

    for (std::uint32_t w = 0; w < kWarps; ++w) {
        const std::uint32_t count =
            rng.nextBounded(4) == 0
                ? 1 + static_cast<std::uint32_t>(rng.nextBounded(kWarpSize))
                : kWarpSize;
        uneven += count != kWarpSize;
        // A per-warp script keeps lanes mostly converged; each step
        // picks a kind and an address pattern, and a lane sometimes
        // diverges from it or stops early.
        const std::uint32_t steps =
            static_cast<std::uint32_t>(rng.nextBounded(12));
        std::vector<OpKind> kind(steps);
        std::vector<std::uint64_t> pattern(steps), base(steps),
            bytes(steps);
        for (std::uint32_t s = 0; s < steps; ++s) {
            kind[s] = kKinds[rng.nextBounded(5)];
            pattern[s] = rng.nextBounded(5);
            base[s] = (1ull << 30) + rng.nextBounded(1u << 20);
            bytes[s] = rng.nextBounded(4) == 0 ? 1 + rng.nextBounded(300)
                                               : 4;
        }

        threads.clear();
        for (std::uint32_t l = 0; l < count; ++l) {
            ThreadCtx &c = threads.emplace_back(0, l, count, 1);
            if (rng.nextBounded(16) == 0) {
                ++empty;
                continue;
            }
            const std::uint32_t len =
                steps - static_cast<std::uint32_t>(
                            rng.nextBounded(steps / 4 + 1));
            for (std::uint32_t s = 0; s < len; ++s) {
                const OpKind k = rng.nextBounded(8) == 0
                                     ? kKinds[rng.nextBounded(5)]
                                     : kind[s];
                Addr addr = 0;
                switch (pattern[s]) {
                  case 0: addr = base[s] + 4ull * l; break;  // ascending
                  case 1: addr = base[s] - 64ull * l; break; // descending
                  case 2: addr = base[s]; break;             // repeated
                  case 3: addr = base[s] + 4096ull * l; break;
                  default: addr = rng.nextBounded(1u << 24); break;
                }
                switch (k) {
                  case OpKind::Alu:
                    c.alu(static_cast<std::uint32_t>(rng.nextBounded(6)));
                    break;
                  case OpKind::Load:
                  case OpKind::Store: {
                    const auto n = static_cast<std::uint32_t>(bytes[s]);
                    multi_line += lineAddr(addr) != lineAddr(addr + n - 1);
                    descending += pattern[s] == 1 && l > 0;
                    if (k == OpKind::Load)
                        c.ld(addr, n);
                    else
                        c.st(addr, n);
                    break;
                  }
                  case OpKind::Bar:
                    c.bar();
                    break;
                  case OpKind::Launch:
                    c.launch({children[rng.nextBounded(children.size())],
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(4)),
                              kWarpSize * (1 + static_cast<std::uint32_t>(
                                                   rng.nextBounded(4)))});
                    break;
                }
            }
        }

        // The reference copies the requests; zipWarp moves them, so it
        // runs second.
        const std::vector<RefOp> ref = referenceZip(threads, 0, count);
        for (const RefOp &op : ref) {
            launches += op.launches.size();
            bars += op.kind == OpKind::Bar;
        }
        zipWarp(trace, threads);
        const std::string what = "warp " + std::to_string(w);
        expectSameOps(trace, ref, what);
        expectSpansInside(trace, what);
        if (HasFailure())
            return;
    }
    // The mix reached every case it is meant to cover.
    EXPECT_GT(descending, 0u);
    EXPECT_GT(launches, 0u);
    EXPECT_GT(bars, 0u);
    EXPECT_GT(uneven, 0u);
    EXPECT_GT(empty, 0u);
    EXPECT_GT(multi_line, 0u);
}

TEST(WarpTrace, SpansSurviveThreadBlockRebuildAndReallocation)
{
    // Every lane loads up- and downward and launches a child, so every
    // warp owns lines and launches its ops point into.
    auto child = childProgram("child");
    const LambdaProgram program(
        "p", allocateFunctionId(), [child](ThreadCtx &c) {
            const Addr t = c.globalThreadIndex();
            c.ld((1ull << 30) + 4 * t, 4);
            c.alu(2);
            c.st((1ull << 30) - 256 * t, 200);
            c.launch({child, 1 + c.threadIndex() % 3, kWarpSize});
        });

    // Re-emit each warp of the TB and hold it to the reference zip.
    auto expectOwnData = [&](const ThreadBlock &tb, std::uint32_t tb_index,
                             std::uint32_t num_tbs, const char *when) {
        for (std::size_t w = 0; w < tb.warps.size(); ++w) {
            std::vector<ThreadCtx> threads;
            for (std::uint32_t l = 0; l < tb.warps[w].numThreads; ++l) {
                threads.emplace_back(
                    tb_index, static_cast<std::uint32_t>(w) * kWarpSize + l,
                    tb.numThreads, num_tbs);
                program.emitThread(threads.back());
            }
            const std::string what =
                std::string(when) + " warp " + std::to_string(w);
            EXPECT_EQ(tb.warps[w].ops.data(), tb.traces[w].ops.data())
                << what;
            expectSameOps(tb.traces[w],
                          referenceZip(threads, 0, tb.warps[w].numThreads),
                          what);
            expectSpansInside(tb.traces[w], what);
        }
    };

    ThreadBlock tb;
    std::vector<ThreadCtx> scratch;
    buildThreadBlockInto(tb, program, 0, kWarpSize, 1, scratch);
    expectOwnData(tb, 0, 1, "one warp");
    const Warp *before = tb.warps.data();

    // Eight warps: tb.warps reallocates and moves the built warp.
    buildThreadBlockInto(tb, program, 1, 8 * kWarpSize, 2, scratch);
    EXPECT_NE(tb.warps.data(), before);
    expectOwnData(tb, 1, 2, "rebuilt with more warps");

    // Moving built warps keeps their spans valid.
    before = tb.warps.data();
    tb.warps.reserve(2 * tb.warps.capacity());
    EXPECT_NE(tb.warps.data(), before);
    expectOwnData(tb, 1, 2, "after reallocation");

    buildThreadBlockInto(tb, program, 0, 3 * kWarpSize - 5, 1, scratch);
    expectOwnData(tb, 0, 1, "rebuilt with fewer warps");
}
