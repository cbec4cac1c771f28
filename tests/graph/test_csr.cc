#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "graph/csr.hh"

using namespace laperm;

namespace {

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

struct ReferenceCsr
{
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint32_t> cols;
};

/** The comparison-sort build: sort and dedup the whole pair list. */
ReferenceCsr
referenceFromEdges(std::uint32_t num_vertices, EdgeList edges,
                   bool symmetric)
{
    if (symmetric) {
        std::size_t n = edges.size();
        edges.reserve(2 * n);
        for (std::size_t i = 0; i < n; ++i)
            edges.emplace_back(edges[i].second, edges[i].first);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    ReferenceCsr ref;
    ref.offsets.assign(num_vertices + 1, 0);
    for (const auto &[u, v] : edges) {
        if (u != v)
            ++ref.offsets[u + 1];
    }
    for (std::uint32_t v = 0; v < num_vertices; ++v)
        ref.offsets[v + 1] += ref.offsets[v];
    for (const auto &[u, v] : edges) {
        if (u != v)
            ref.cols.push_back(v);
    }
    return ref;
}

} // namespace

TEST(Csr, FromEdgesBasic)
{
    Csr g = Csr::fromEdges(4, {{0, 1}, {0, 2}, {2, 3}}, false);
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 1u);
    auto n0 = g.neighbors(0);
    ASSERT_EQ(n0.size(), 2u);
    EXPECT_EQ(n0[0], 1u);
    EXPECT_EQ(n0[1], 2u);
}

TEST(Csr, SymmetricInsertsReverseEdges)
{
    Csr g = Csr::fromEdges(3, {{0, 1}}, true);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.neighbors(1)[0], 0u);
}

TEST(Csr, DuplicatesAndSelfLoopsRemoved)
{
    Csr g = Csr::fromEdges(3, {{0, 1}, {0, 1}, {1, 1}, {2, 2}}, false);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(Csr, OffsetsConsistent)
{
    Csr g = Csr::fromEdges(5, {{0, 1}, {1, 2}, {1, 3}, {4, 0}}, false);
    std::uint64_t total = 0;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(g.offset(v), total);
        total += g.degree(v);
    }
    EXPECT_EQ(total, g.numEdges());
}

TEST(Csr, MaxDegree)
{
    Csr g = Csr::fromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}}, false);
    EXPECT_EQ(g.maxDegree(), 3u);
    Csr empty = Csr::fromEdges(2, {}, false);
    EXPECT_EQ(empty.maxDegree(), 0u);
}

TEST(Csr, MatchesSortedPairReferenceOnRandomEdgeLists)
{
    Rng rng(0xC5A);
    for (int trial = 0; trial < 3000; ++trial) {
        // Every 100th list has no vertices; the rest have 1..100, and
        // up to 8 edges per vertex, about a quarter of them repeats of
        // earlier edges and a quarter of the rest self-loops.
        const auto n = trial % 100 == 0
                           ? 0u
                           : 1 + static_cast<std::uint32_t>(
                                     rng.nextBounded(100));
        const std::uint64_t m = n == 0 ? 0 : rng.nextBounded(8ull * n + 1);
        EdgeList edges;
        for (std::uint64_t e = 0; e < m; ++e) {
            if (!edges.empty() && rng.nextBounded(4) == 0) {
                edges.push_back(edges[rng.nextBounded(edges.size())]);
                continue;
            }
            auto u = static_cast<std::uint32_t>(rng.nextBounded(n));
            auto v = rng.nextBounded(4) == 0
                         ? u
                         : static_cast<std::uint32_t>(rng.nextBounded(n));
            edges.emplace_back(u, v);
        }
        const bool symmetric = trial % 2 == 1;
        const Csr g = Csr::fromEdges(n, edges, symmetric);
        const ReferenceCsr ref = referenceFromEdges(n, edges, symmetric);
        ASSERT_EQ(g.offsets(), ref.offsets) << "trial " << trial;
        ASSERT_EQ(g.cols(), ref.cols) << "trial " << trial;
    }
}
