#include "graph/algorithms.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"

namespace laperm {

BfsResult
bfs(const Csr &csr, std::uint32_t source)
{
    laperm_assert(source < csr.numVertices(), "BFS source out of range");
    BfsResult res;
    res.level.assign(csr.numVertices(), kUnreached);
    res.level[source] = 0;
    res.frontiers.push_back({source});
    for (;;) {
        const auto &front = res.frontiers.back();
        std::vector<std::uint32_t> next;
        for (std::uint32_t u : front) {
            for (std::uint32_t v : csr.neighbors(u)) {
                if (res.level[v] == kUnreached) {
                    res.level[v] = res.level[u] + 1;
                    next.push_back(v);
                }
            }
        }
        if (next.empty())
            break;
        res.frontiers.push_back(std::move(next));
    }
    return res;
}

SsspResult
sssp(const Csr &csr, const std::vector<std::uint32_t> &weights,
     std::uint32_t source, std::uint32_t max_rounds)
{
    laperm_assert(weights.size() == csr.numEdges(),
                  "weight array does not match edge count");
    SsspResult res;
    res.dist.assign(csr.numVertices(), kUnreached);
    res.dist[source] = 0;
    std::vector<std::uint32_t> active = {source};
    std::vector<bool> in_next(csr.numVertices(), false);
    while (!active.empty() && res.rounds.size() < max_rounds) {
        res.rounds.push_back(active);
        std::vector<std::uint32_t> next;
        for (std::uint32_t u : active) {
            std::uint64_t base = csr.offset(u);
            auto nbrs = csr.neighbors(u);
            for (std::size_t i = 0; i < nbrs.size(); ++i) {
                std::uint32_t v = nbrs[i];
                std::uint32_t w = weights[base + i];
                if (res.dist[u] != kUnreached &&
                    res.dist[u] + w < res.dist[v]) {
                    res.dist[v] = res.dist[u] + w;
                    if (!in_next[v]) {
                        in_next[v] = true;
                        next.push_back(v);
                    }
                }
            }
        }
        for (std::uint32_t v : next)
            in_next[v] = false;
        active = std::move(next);
    }
    return res;
}

ColoringResult
jpColoring(const Csr &csr, std::uint64_t seed, std::uint32_t max_rounds)
{
    const std::uint32_t n = csr.numVertices();
    ColoringResult res;
    res.color.assign(n, kUnreached);

    // Random priorities with vertex id as the tie-break.
    Rng rng(seed);
    std::vector<std::uint64_t> prio(n);
    for (std::uint32_t v = 0; v < n; ++v)
        prio[v] = (rng.next() << 20) | v;

    // A vertex joins the round after its last higher-priority neighbour
    // is colored: blockers[v] counts those still uncolored. That is the
    // round a scan for uncolored local maxima would find it in.
    std::vector<std::uint32_t> blockers(n, 0);
    std::vector<std::uint32_t> round;
    for (std::uint32_t v = 0; v < n; ++v) {
        for (std::uint32_t u : csr.neighbors(v)) {
            if (prio[u] > prio[v])
                ++blockers[v];
        }
        if (blockers[v] == 0)
            round.push_back(v);
    }

    // Smallest color no colored neighbour holds. A vertex's color never
    // exceeds its degree, so markers up to the max degree suffice;
    // stamping them with the vertex id saves clearing them.
    std::vector<std::uint32_t> marker(csr.maxDegree() + 1, kUnreached);
    auto smallestFreeColor = [&](std::uint32_t v) {
        for (std::uint32_t u : csr.neighbors(v)) {
            if (res.color[u] != kUnreached)
                marker[res.color[u]] = v;
        }
        std::uint32_t c = 0;
        while (marker[c] == v)
            ++c;
        return c;
    };

    while (!round.empty() && res.rounds.size() < max_rounds) {
        // A round is an independent set, so its colors are
        // independent of the order they are picked in.
        std::vector<std::uint32_t> next;
        for (std::uint32_t v : round) {
            res.color[v] = smallestFreeColor(v);
            for (std::uint32_t u : csr.neighbors(v)) {
                if (prio[u] < prio[v] && --blockers[u] == 0)
                    next.push_back(u);
            }
        }
        std::sort(next.begin(), next.end());
        res.rounds.push_back(std::move(round));
        round = std::move(next);
    }
    // Vertices the round cap left uncolored, in vertex order.
    for (std::uint32_t v = 0; v < n; ++v) {
        if (res.color[v] == kUnreached)
            res.color[v] = smallestFreeColor(v);
    }
    return res;
}

bool
coloringValid(const Csr &csr, const std::vector<std::uint32_t> &color)
{
    for (std::uint32_t v = 0; v < csr.numVertices(); ++v) {
        for (std::uint32_t u : csr.neighbors(v)) {
            if (u != v && color[u] == color[v])
                return false;
        }
    }
    return true;
}

} // namespace laperm
