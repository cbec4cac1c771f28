#include "graph/generators.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"

namespace laperm {

Csr
genCitation(std::uint32_t n, std::uint32_t avg_degree, std::uint64_t seed)
{
    laperm_assert(n >= 2, "citation graph needs >= 2 vertices");
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(static_cast<std::size_t>(n) * avg_degree);

    // A paper cites mostly recent work (ids close to its own) plus a
    // few influential older papers chosen preferentially (approximated
    // by a Zipf over the id range, favouring a heavy head).
    const std::uint32_t window = std::max<std::uint32_t>(64, n / 50);
    for (std::uint32_t v = 1; v < n; ++v) {
        std::uint32_t cites =
            1 + static_cast<std::uint32_t>(rng.nextBounded(2 * avg_degree));
        for (std::uint32_t i = 0; i < cites; ++i) {
            std::uint32_t u;
            if (rng.nextDouble() < 0.8) {
                // Local citation within the recency window.
                std::uint32_t w = std::min(window, v);
                u = v - 1 - static_cast<std::uint32_t>(rng.nextBounded(w));
            } else {
                // Influential classic: skewed towards small ids.
                u = static_cast<std::uint32_t>(rng.nextZipf(v, 1.1));
            }
            edges.emplace_back(v, u);
        }
    }
    return Csr::fromEdges(n, std::move(edges), true);
}

Csr
genRmat(std::uint32_t scale_log2, std::uint32_t avg_degree,
        std::uint64_t seed)
{
    laperm_assert(scale_log2 >= 2 && scale_log2 <= 28, "bad RMAT scale");
    const std::uint32_t n = 1u << scale_log2;
    const std::uint64_t m = static_cast<std::uint64_t>(n) * avg_degree / 2;
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(m);

    const double a = 0.57, b = 0.19, c = 0.19; // Graph500 parameters
    const double ab = a + b, abc = a + b + c;
    for (std::uint64_t e = 0; e < m; ++e) {
        std::uint32_t u = 0, v = 0;
        for (std::uint32_t bit = 0; bit < scale_log2; ++bit) {
            // Quadrant by p: [0,a) neither bit, [a,ab) v's, [ab,abc)
            // u's, [abc,1) both. The thresholds ascend, so v's bit is
            // the parity of the thresholds p reaches.
            const double p = rng.nextDouble();
            const bool pa = p >= a, pab = p >= ab, pabc = p >= abc;
            u |= static_cast<std::uint32_t>(pab) << bit;
            v |= static_cast<std::uint32_t>(pa ^ pab ^ pabc) << bit;
        }
        edges.emplace_back(u, v);
    }
    return Csr::fromEdges(n, std::move(edges), true);
}

Csr
genCage(std::uint32_t n, std::uint32_t bandwidth, std::uint32_t avg_degree,
        std::uint64_t seed)
{
    laperm_assert(bandwidth >= 1, "cage bandwidth must be >= 1");
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(static_cast<std::size_t>(n) * avg_degree);
    for (std::uint32_t v = 0; v < n; ++v) {
        std::uint32_t deg = avg_degree / 2 +
            static_cast<std::uint32_t>(rng.nextBounded(avg_degree / 2 + 1));
        for (std::uint32_t i = 0; i < deg; ++i) {
            std::int64_t off = static_cast<std::int64_t>(
                                   rng.nextBounded(2 * bandwidth + 1)) -
                               bandwidth;
            std::int64_t u = static_cast<std::int64_t>(v) + off;
            if (u < 0 || u >= static_cast<std::int64_t>(n) ||
                u == static_cast<std::int64_t>(v)) {
                continue;
            }
            edges.emplace_back(v, static_cast<std::uint32_t>(u));
        }
    }
    return Csr::fromEdges(n, std::move(edges), true);
}

Csr
genUniform(std::uint32_t n, std::uint32_t avg_degree, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    const std::uint64_t m = static_cast<std::uint64_t>(n) * avg_degree / 2;
    edges.reserve(m);
    for (std::uint64_t e = 0; e < m; ++e) {
        auto u = static_cast<std::uint32_t>(rng.nextBounded(n));
        auto v = static_cast<std::uint32_t>(rng.nextBounded(n));
        edges.emplace_back(u, v);
    }
    return Csr::fromEdges(n, std::move(edges), true);
}

std::vector<std::uint32_t>
genEdgeWeights(const Csr &csr, std::uint32_t max_weight,
               std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint32_t> w(csr.numEdges());
    for (auto &x : w)
        x = 1 + static_cast<std::uint32_t>(rng.nextBounded(max_weight));
    return w;
}

} // namespace laperm
