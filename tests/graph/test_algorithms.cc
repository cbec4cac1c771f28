#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "graph/algorithms.hh"
#include "graph/generators.hh"

using namespace laperm;

namespace {

/**
 * The round-scan Jones-Plassmann: each round rescans every uncolored
 * vertex for local priority maxima. Vertices the round cap leaves
 * uncolored keep kUnreached.
 */
ColoringResult
referenceJpColoring(const Csr &csr, std::uint64_t seed,
                    std::uint32_t max_rounds)
{
    const std::uint32_t n = csr.numVertices();
    ColoringResult res;
    res.color.assign(n, kUnreached);
    Rng rng(seed);
    std::vector<std::uint64_t> prio(n);
    for (std::uint32_t v = 0; v < n; ++v)
        prio[v] = (rng.next() << 20) | v;

    std::uint32_t uncolored = n;
    while (uncolored > 0 && res.rounds.size() < max_rounds) {
        std::vector<std::uint32_t> this_round;
        for (std::uint32_t v = 0; v < n; ++v) {
            if (res.color[v] != kUnreached)
                continue;
            bool local_max = true;
            for (std::uint32_t u : csr.neighbors(v)) {
                if (res.color[u] == kUnreached && prio[u] > prio[v]) {
                    local_max = false;
                    break;
                }
            }
            if (local_max)
                this_round.push_back(v);
        }
        if (this_round.empty())
            break;
        for (std::uint32_t v : this_round) {
            std::vector<std::uint32_t> used;
            for (std::uint32_t u : csr.neighbors(v)) {
                if (res.color[u] != kUnreached)
                    used.push_back(res.color[u]);
            }
            std::sort(used.begin(), used.end());
            std::uint32_t c = 0;
            for (std::uint32_t uc : used) {
                if (uc == c)
                    ++c;
                else if (uc > c)
                    break;
            }
            res.color[v] = c;
        }
        uncolored -= static_cast<std::uint32_t>(this_round.size());
        res.rounds.push_back(std::move(this_round));
    }
    return res;
}

Csr
pathGraph(std::uint32_t n)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t v = 0; v + 1 < n; ++v)
        edges.emplace_back(v, v + 1);
    return Csr::fromEdges(n, std::move(edges), true);
}

} // namespace

TEST(Bfs, PathGraphLevels)
{
    Csr g = pathGraph(6);
    BfsResult r = bfs(g, 0);
    for (std::uint32_t v = 0; v < 6; ++v)
        EXPECT_EQ(r.level[v], v);
    EXPECT_EQ(r.frontiers.size(), 6u);
}

TEST(Bfs, FrontiersPartitionReachableVertices)
{
    Csr g = genRmat(11, 8, 3);
    BfsResult r = bfs(g, 0);
    std::vector<bool> seen(g.numVertices(), false);
    std::uint32_t reached = 0;
    for (std::size_t l = 0; l < r.frontiers.size(); ++l) {
        for (std::uint32_t v : r.frontiers[l]) {
            EXPECT_FALSE(seen[v]);
            seen[v] = true;
            EXPECT_EQ(r.level[v], l);
            ++reached;
        }
    }
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        if (r.level[v] != kUnreached) {
            EXPECT_TRUE(seen[v]);
        }
    }
    EXPECT_GT(reached, 0u);
}

TEST(Bfs, LevelsAreShortestHopCounts)
{
    Csr g = genCitation(3000, 6, 11);
    BfsResult r = bfs(g, 10);
    // Triangle inequality over edges: levels differ by at most 1.
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        if (r.level[v] == kUnreached)
            continue;
        for (std::uint32_t u : g.neighbors(v)) {
            if (r.level[u] == kUnreached)
                continue;
            EXPECT_LE(r.level[u], r.level[v] + 1);
        }
    }
}

TEST(Sssp, PathGraphDistances)
{
    Csr g = pathGraph(5);
    std::vector<std::uint32_t> w(g.numEdges(), 3);
    SsspResult r = sssp(g, w, 0);
    for (std::uint32_t v = 0; v < 5; ++v)
        EXPECT_EQ(r.dist[v], 3 * v);
}

TEST(Sssp, NoEdgeRelaxable)
{
    // Final distances satisfy dist[v] <= dist[u] + w(u,v).
    Csr g = genCage(2000, 24, 8, 5);
    auto w = genEdgeWeights(g, 32, 5);
    SsspResult r = sssp(g, w, 100, 1000);
    for (std::uint32_t u = 0; u < g.numVertices(); ++u) {
        if (r.dist[u] == kUnreached)
            continue;
        auto nbrs = g.neighbors(u);
        std::uint64_t base = g.offset(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i)
            EXPECT_LE(r.dist[nbrs[i]], r.dist[u] + w[base + i]);
    }
}

TEST(Sssp, RoundsShrinkEventually)
{
    Csr g = genUniform(2000, 8, 2);
    auto w = genEdgeWeights(g, 16, 2);
    SsspResult r = sssp(g, w, 0, 64);
    ASSERT_GT(r.rounds.size(), 1u);
    EXPECT_EQ(r.rounds[0].size(), 1u); // just the source
}

TEST(Coloring, Valid)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        Csr g = genRmat(11, 8, seed);
        ColoringResult r = jpColoring(g, seed);
        EXPECT_TRUE(coloringValid(g, r.color)) << "seed " << seed;
    }
}

TEST(Coloring, RoundsAreIndependentSets)
{
    Csr g = genCitation(2000, 8, 4);
    ColoringResult r = jpColoring(g, 4);
    for (const auto &round : r.rounds) {
        std::vector<bool> in_round(g.numVertices(), false);
        for (std::uint32_t v : round)
            in_round[v] = true;
        for (std::uint32_t v : round) {
            for (std::uint32_t u : g.neighbors(v))
                EXPECT_FALSE(in_round[u] && u != v);
        }
    }
}

TEST(Coloring, EveryVertexColoredOnce)
{
    Csr g = genCage(1500, 16, 6, 7);
    ColoringResult r = jpColoring(g, 7);
    std::vector<int> times(g.numVertices(), 0);
    for (const auto &round : r.rounds) {
        for (std::uint32_t v : round)
            ++times[v];
    }
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        EXPECT_LE(times[v], 1);
        EXPECT_NE(r.color[v], kUnreached);
    }
}

TEST(Coloring, ValidWhenTheRoundCapIsHit)
{
    Csr g = genRmat(11, 8, 1);
    ColoringResult r = jpColoring(g, 1, 2);
    ASSERT_EQ(r.rounds.size(), 2u);
    ASSERT_LT(r.rounds[0].size() + r.rounds[1].size(), g.numVertices())
        << "the cap must leave vertices uncolored";
    EXPECT_TRUE(coloringValid(g, r.color));
    std::uint32_t above_degree = 0;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        if (r.color[v] > g.degree(v))
            ++above_degree;
    }
    EXPECT_EQ(above_degree, 0u);
}

TEST(Coloring, MatchesRoundScanReferenceOnSymmetricGraphs)
{
    std::vector<Csr> graphs;
    Rng rng(0xC01);
    for (int i = 0; i < 200; ++i) {
        const auto n = 1 + static_cast<std::uint32_t>(rng.nextBounded(300));
        const std::uint64_t m = rng.nextBounded(8ull * n + 1);
        std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
        for (std::uint64_t e = 0; e < m; ++e) {
            edges.emplace_back(static_cast<std::uint32_t>(rng.nextBounded(n)),
                               static_cast<std::uint32_t>(rng.nextBounded(n)));
        }
        graphs.push_back(Csr::fromEdges(n, std::move(edges), true));
    }
    graphs.push_back(genCitation(3000, 8, 2));
    graphs.push_back(genRmat(11, 8, 2));
    graphs.push_back(genCage(3000, 128, 8, 2));

    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const Csr &g = graphs[i];
        for (std::uint32_t max_rounds : {3u, 128u}) {
            ColoringResult got = jpColoring(g, i, max_rounds);
            ColoringResult ref = referenceJpColoring(g, i, max_rounds);
            ASSERT_EQ(got.rounds, ref.rounds)
                << "graph " << i << " max_rounds " << max_rounds;
            for (const auto &round : ref.rounds) {
                for (std::uint32_t v : round)
                    ASSERT_EQ(got.color[v], ref.color[v]) << "vertex " << v;
            }
            EXPECT_TRUE(coloringValid(g, got.color)) << "graph " << i;
        }
    }
}
