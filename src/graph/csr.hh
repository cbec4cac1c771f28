/**
 * @file
 * Compressed Sparse Row graph representation — the data structure the
 * paper's graph benchmarks (BFS, SSSP, CLR) operate on, whose memory
 * layout drives the locality behaviour analyzed in Section III.
 */

#ifndef LAPERM_GRAPH_CSR_HH
#define LAPERM_GRAPH_CSR_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace laperm {

/** Directed graph in CSR form (stored edges both ways if undirected). */
class Csr
{
  public:
    Csr() = default;

    /**
     * Build from an edge list; duplicates and self-loops are removed,
     * and every adjacency list is sorted ascending. A counting sort by
     * source, then a sort of each list: O(n + m + sum of d log d) for
     * n vertices, m edges and per-vertex list lengths d.
     * @param symmetric also insert the reverse of every edge.
     */
    static Csr fromEdges(std::uint32_t num_vertices,
                         std::vector<std::pair<std::uint32_t,
                                               std::uint32_t>> edges,
                         bool symmetric);

    std::uint32_t numVertices() const
    {
        return static_cast<std::uint32_t>(offsets_.size()) - 1;
    }

    std::uint64_t numEdges() const { return cols_.size(); }

    std::uint32_t degree(std::uint32_t v) const
    {
        return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
    }

    std::uint64_t offset(std::uint32_t v) const { return offsets_[v]; }

    std::span<const std::uint32_t> neighbors(std::uint32_t v) const
    {
        return {cols_.data() + offsets_[v],
                cols_.data() + offsets_[v + 1]};
    }

    const std::vector<std::uint64_t> &offsets() const { return offsets_; }
    const std::vector<std::uint32_t> &cols() const { return cols_; }

    /** Max degree over all vertices (0 for the empty graph). */
    std::uint32_t maxDegree() const;

  private:
    std::vector<std::uint64_t> offsets_; ///< size numVertices + 1
    std::vector<std::uint32_t> cols_;
};

} // namespace laperm

#endif // LAPERM_GRAPH_CSR_HH
