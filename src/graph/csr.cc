#include "graph/csr.hh"

#include <algorithm>

#include "common/log.hh"

namespace laperm {

Csr
Csr::fromEdges(std::uint32_t num_vertices,
               std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
               bool symmetric)
{
    // Counting sort by source: count out-degrees, prefix-sum them into
    // offsets, scatter the targets, then sort and dedup each adjacency
    // list. A list holds exactly the targets the sorted pair list would
    // give its source, so offsets and cols match a whole-list sort.
    Csr g;
    g.offsets_.assign(num_vertices + 1, 0);
    for (const auto &[u, v] : edges) {
        laperm_assert(u < num_vertices && v < num_vertices,
                      "edge (%u,%u) out of range", u, v);
        if (u == v)
            continue;
        ++g.offsets_[u + 1];
        if (symmetric)
            ++g.offsets_[v + 1];
    }
    for (std::uint32_t v = 0; v < num_vertices; ++v)
        g.offsets_[v + 1] += g.offsets_[v];

    g.cols_.resize(g.offsets_[num_vertices]);
    std::vector<std::uint64_t> cursor(g.offsets_.begin(),
                                      g.offsets_.end() - 1);
    for (const auto &[u, v] : edges) {
        if (u == v)
            continue;
        g.cols_[cursor[u]++] = v;
        if (symmetric)
            g.cols_[cursor[v]++] = u;
    }

    // Compact: each deduped list slides down to the end of the last.
    std::uint32_t *cols = g.cols_.data();
    std::uint64_t out = 0;
    std::uint64_t begin = 0;
    for (std::uint32_t v = 0; v < num_vertices; ++v) {
        const std::uint64_t end = g.offsets_[v + 1];
        std::sort(cols + begin, cols + end);
        std::uint32_t *last = std::unique(cols + begin, cols + end);
        if (out != begin)
            std::copy(cols + begin, last, cols + out);
        out += static_cast<std::uint64_t>(last - (cols + begin));
        g.offsets_[v + 1] = out;
        begin = end;
    }
    g.cols_.resize(out);
    return g;
}

std::uint32_t
Csr::maxDegree() const
{
    std::uint32_t best = 0;
    for (std::uint32_t v = 0; v < numVertices(); ++v)
        best = std::max(best, degree(v));
    return best;
}

} // namespace laperm
