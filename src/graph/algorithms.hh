/**
 * @file
 * Reference CPU implementations of the graph algorithms used by the
 * workloads. The simulator is timing-only: these compute the functional
 * results (levels, distances, colors, per-iteration worklists) that the
 * kernel programs replay as memory-access traces.
 */

#ifndef LAPERM_GRAPH_ALGORITHMS_HH
#define LAPERM_GRAPH_ALGORITHMS_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/csr.hh"

namespace laperm {

constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

/** Level-synchronous BFS decomposition. */
struct BfsResult
{
    std::vector<std::uint32_t> level;               ///< per vertex
    std::vector<std::vector<std::uint32_t>> frontiers; ///< per level
};

BfsResult bfs(const Csr &csr, std::uint32_t source);

/** Bellman-Ford with per-round active worklists (GPU-style SSSP). */
struct SsspResult
{
    std::vector<std::uint32_t> dist;                 ///< per vertex
    std::vector<std::vector<std::uint32_t>> rounds;  ///< active per round
};

SsspResult sssp(const Csr &csr, const std::vector<std::uint32_t> &weights,
                std::uint32_t source, std::uint32_t max_rounds = 64);

/** Jones-Plassmann greedy coloring with per-round colored sets. */
struct ColoringResult
{
    std::vector<std::uint32_t> color;                ///< per vertex
    std::vector<std::vector<std::uint32_t>> rounds;  ///< colored per round
};

/**
 * Jones-Plassmann coloring under seeded random priorities. Round r
 * holds, in ascending id order, the uncolored vertices whose every
 * higher-priority neighbour was colored in an earlier round; each
 * takes the smallest color no colored neighbour holds. Vertices still
 * uncolored after @p max_rounds rounds appear in no round and are
 * colored by the same rule in vertex order, so the coloring is valid
 * either way. O(n + m + n log n) for n vertices and m edges.
 *
 * @pre @p csr is symmetric (every generator builds one): a vertex
 *      waits for the higher-priority vertices it lists and is released
 *      by the ones that list it, which agree only in a symmetric graph.
 */
ColoringResult jpColoring(const Csr &csr, std::uint64_t seed,
                          std::uint32_t max_rounds = 128);

/** True iff no edge connects two equal colors (test helper). */
bool coloringValid(const Csr &csr, const std::vector<std::uint32_t> &color);

} // namespace laperm

#endif // LAPERM_GRAPH_ALGORITHMS_HH
