#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hh"

using namespace laperm;

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        auto v = r.nextBounded(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng r(11);
    const int n = 100000;
    double sum = 0, sum2 = 0;
    for (int i = 0; i < n; ++i) {
        double g = r.nextGaussian();
        sum += g;
        sum2 += g * g;
    }
    double mean = sum / n;
    double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, ZipfSkewed)
{
    Rng r(5);
    const int n = 50000;
    int first_decile = 0;
    for (int i = 0; i < n; ++i) {
        auto v = r.nextZipf(1000, 1.0);
        EXPECT_LT(v, 1000u);
        if (v < 100)
            ++first_decile;
    }
    // With s=1 the first 10% of ranks should carry well over half the
    // mass (H(100)/H(1000) ~ 0.67).
    EXPECT_GT(first_decile, n / 2);
}

TEST(Rng, ZipfDegenerate)
{
    Rng r(5);
    EXPECT_EQ(r.nextZipf(1, 1.2), 0u);
}

TEST(Rng, ZipfDeterministicAcrossInstances)
{
    // Two generators with one seed emit identical Zipf streams
    // (perfbench's serve-mixed workload replays a Zipf request mix and
    // depends on this); a different seed diverges quickly.
    Rng a(123), b(123), c(124);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        const auto va = a.nextZipf(512, 1.1);
        EXPECT_EQ(va, b.nextZipf(512, 1.1));
        same += (va == c.nextZipf(512, 1.1));
    }
    EXPECT_LT(same, 200); // collisions only by chance on the hot head
}

TEST(Rng, ZipfRankFrequencyShape)
{
    // Rank-frequency must fall off like 1/rank^s: with s=1 the count
    // ratio between rank 0 and rank 9 is ~10, and the head dominates
    // every later decade. Generous slack keeps this a shape test, not
    // a distribution-exactness test.
    Rng r(9);
    const int n = 200000;
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<std::size_t>(r.nextZipf(1000, 1.0))];
    EXPECT_GT(counts[0], counts[9] * 5);
    EXPECT_LT(counts[0], counts[9] * 20);
    int head = 0, second = 0;
    for (int i = 0; i < 10; ++i)
        head += counts[static_cast<std::size_t>(i)];
    for (int i = 10; i < 100; ++i)
        second += counts[static_cast<std::size_t>(i)];
    EXPECT_GT(head, second / 3); // H(10) vs H(100)-H(10), wide margin
    EXPECT_GT(second, head / 3);
}

TEST(Rng, ZipfRegressionPin)
{
    // Exact first 16 draws of the (seed 42, n=1000, s=1.1) stream.
    // perfbench's serve-mixed workload picks its requests with
    // nextZipf; an implementation change that reshuffles the draws
    // silently changes the recorded benchmark, so it must fail here
    // first.
    const std::uint64_t expected[16] = {0,   7,  62, 484, 920, 126,
                                        84,  247, 117, 30, 63,  3,
                                        163, 4,   78,  316};
    Rng r(42);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(r.nextZipf(1000, 1.1), expected[i]) << "draw " << i;
}
