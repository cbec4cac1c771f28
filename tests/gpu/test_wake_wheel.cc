#include <gtest/gtest.h>

#include <vector>

#include "gpu/wake_wheel.hh"

using namespace laperm;

TEST(WakeWheel, TakesEachCycleInAscendingSmxOrder)
{
    WakeWheel wheel(80); // two bitset words per cycle, as on v100
    EXPECT_TRUE(wheel.empty());
    EXPECT_EQ(wheel.next(), kNoCycle);
    for (SmxId id : {79u, 3u, 64u, 0u, 3u})
        wheel.set(id, 10);
    wheel.set(5, 12);
    EXPECT_EQ(wheel.next(), 10u);

    std::vector<SmxId> due;
    wheel.take(10, due);
    EXPECT_EQ(due, (std::vector<SmxId>{0, 3, 64, 79}));
    EXPECT_EQ(wheel.next(), 12u);

    due.clear();
    wheel.take(11, due); // nothing armed there
    EXPECT_TRUE(due.empty());
    wheel.take(12, due);
    EXPECT_EQ(due, (std::vector<SmxId>{5}));
    EXPECT_TRUE(wheel.empty());
}

TEST(WakeWheel, FindsTheNextCycleAcrossTheWrap)
{
    // Arm near the end of one turn and just past it: the earliest
    // cycle wins although its bucket index is the larger one.
    WakeWheel wheel(13);
    const Cycle base = 5 * WakeWheel::kSpan - 3;
    wheel.set(7, base + 4); // bucket 1 of the next turn
    wheel.set(2, base);     // bucket kSpan - 3
    EXPECT_EQ(wheel.next(), base);

    std::vector<SmxId> due;
    wheel.take(base, due);
    EXPECT_EQ(due, (std::vector<SmxId>{2}));
    EXPECT_EQ(wheel.next(), base + 4);

    // The far edge of the window: kSpan - 1 cycles ahead.
    wheel.set(1, base + WakeWheel::kSpan - 1);
    due.clear();
    wheel.take(base + 4, due);
    EXPECT_EQ(due, (std::vector<SmxId>{7}));
    EXPECT_EQ(wheel.next(), base + WakeWheel::kSpan - 1);

    wheel.clear();
    EXPECT_TRUE(wheel.empty());
    due.clear();
    wheel.take(base + WakeWheel::kSpan - 1, due);
    EXPECT_TRUE(due.empty());
}
