#include <gtest/gtest.h>

#include "gpu/warp_scheduler.hh"

using namespace laperm;

namespace {

Warp
makeWarp(std::uint64_t age, Cycle ready = 0)
{
    static const WarpOp kOp{};
    Warp w;
    w.age = age;
    w.readyAt = ready;
    w.ops = std::span(&kOp, 1); // non-empty so finishedOps() is false
    return w;
}

} // namespace

TEST(WarpScheduler, RoundRobinSlotAssignment)
{
    WarpScheduler sched(4, WarpPolicy::GTO);
    std::vector<Warp> warps(8);
    for (std::size_t i = 0; i < warps.size(); ++i) {
        warps[i] = makeWarp(i);
        sched.addWarp(&warps[i]);
    }
    for (std::size_t i = 0; i < warps.size(); ++i)
        EXPECT_EQ(warps[i].slot, i % 4);
    EXPECT_EQ(sched.liveWarps(), 8u);
}

TEST(WarpScheduler, GtoSticksToGreedyWarp)
{
    WarpScheduler sched(1, WarpPolicy::GTO);
    Warp a = makeWarp(0), b = makeWarp(1);
    sched.addWarp(&a);
    sched.addWarp(&b);
    Warp *first = sched.pick(0, 0);
    ASSERT_EQ(first, &a); // oldest first
    sched.issued(0, first, 0);
    // Both ready: the greedy warp keeps issuing.
    EXPECT_EQ(sched.pick(0, 1), &a);
    // Greedy stalls (its op pushed readyAt forward): re-file it into
    // the pending heap and fall back to the oldest ready warp.
    a.readyAt = 100;
    sched.requeue(&a);
    EXPECT_EQ(sched.pick(0, 1), &b);
}

TEST(WarpScheduler, LrrRotatesAmongReadyWarps)
{
    WarpScheduler sched(1, WarpPolicy::LRR);
    Warp a = makeWarp(0), b = makeWarp(1), c = makeWarp(2);
    for (Warp *w : {&a, &b, &c})
        sched.addWarp(w);
    Warp *w1 = sched.pick(0, 10);
    sched.issued(0, w1, 10);
    Warp *w2 = sched.pick(0, 11);
    sched.issued(0, w2, 11);
    Warp *w3 = sched.pick(0, 12);
    sched.issued(0, w3, 12);
    EXPECT_NE(w1, w2);
    EXPECT_NE(w2, w3);
    EXPECT_NE(w1, w3);
}

TEST(WarpScheduler, SkipsBarrierAndDoneWarps)
{
    WarpScheduler sched(1, WarpPolicy::GTO);
    Warp a = makeWarp(0), b = makeWarp(1);
    sched.addWarp(&a);
    sched.addWarp(&b);
    // a issues its barrier op and parks: it leaves the ready list
    // until the TB releases it.
    ASSERT_EQ(sched.pick(0, 0), &a);
    a.atBarrier = true;
    sched.parkAtBarrier(&a);
    EXPECT_EQ(sched.pick(0, 0), &b);
    // b runs out of ops and retires.
    b.done = true;
    sched.removeWarp(&b);
    EXPECT_EQ(sched.pick(0, 0), nullptr);
}

TEST(WarpScheduler, NextWakeupIgnoresBlockedWarps)
{
    WarpScheduler sched(2, WarpPolicy::GTO);
    // Slots round-robin: a, c land in slot 0; b in slot 1.
    Warp a = makeWarp(0, 50), b = makeWarp(1, 30), c = makeWarp(2, 10);
    for (Warp *w : {&a, &b, &c})
        sched.addWarp(w);
    // c becomes ready at 10 and parks at its barrier.
    ASSERT_EQ(sched.pick(0, 10), &c);
    c.atBarrier = true;
    sched.parkAtBarrier(&c);
    EXPECT_EQ(sched.nextWakeup(0), 30u);
    // b retires while still stalled.
    b.done = true;
    sched.removeWarp(&b);
    EXPECT_EQ(sched.nextWakeup(0), 50u);
    // A warp that's already ready wakes "now".
    ASSERT_EQ(sched.pick(0, 50), &a);
    EXPECT_EQ(sched.nextWakeup(7), 7u);
}

TEST(WarpScheduler, RemoveWarpClearsGreedy)
{
    WarpScheduler sched(1, WarpPolicy::GTO);
    Warp a = makeWarp(0);
    sched.addWarp(&a);
    sched.issued(0, &a, 0);
    sched.removeWarp(&a);
    EXPECT_EQ(sched.liveWarps(), 0u);
    EXPECT_EQ(sched.pick(0, 10), nullptr);
}
