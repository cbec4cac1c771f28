/**
 * @file
 * Shared data layout and input construction for the graph workloads
 * (BFS, SSSP, CLR): the CSR arrays in simulated memory plus the
 * per-vertex child-parameter buffer the parent writes and children
 * read (the paper's Section III temporal-locality pattern), and the
 * host graphs those workloads share while they are alive.
 */

#ifndef LAPERM_WORKLOADS_GRAPH_COMMON_HH
#define LAPERM_WORKLOADS_GRAPH_COMMON_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bump_alloc.hh"
#include "graph/csr.hh"
#include "graph/generators.hh"
#include "workloads/workload.hh"

namespace laperm {

/**
 * Vertex degree above which the benchmarks spawn a child launch. The
 * CDP implementations of [15] convert any vertex with more than a few
 * neighbors into a device launch so the bulk of the edge expansion
 * runs in (coalesced) dynamic TBs.
 */
constexpr std::uint32_t kSpawnDegree = 16;

/** Threads per TB used by the top-level graph kernels. */
constexpr std::uint32_t kGraphTbThreads = 64;

/** Threads per dynamic (child) TB. */
constexpr std::uint32_t kChildTbThreads = 64;

/** Max TBs per child launch; larger expansions stride internally. */
constexpr std::uint32_t kMaxChildTbs = 8;

/** TB count for a child launch expanding @p work items. */
constexpr std::uint32_t
childTbCount(std::uint32_t work)
{
    std::uint32_t tbs = (work + kChildTbThreads - 1) / kChildTbThreads;
    return tbs < 1 ? 1 : (tbs > kMaxChildTbs ? kMaxChildTbs : tbs);
}

/** Device-memory layout of one CSR graph plus per-vertex state. */
struct GraphLayout
{
    Addr rowOff = 0;   ///< 8B per vertex (offset pairs)
    Addr cols = 0;     ///< 4B per edge
    Addr weights = 0;  ///< 4B per edge (SSSP only)
    Addr vdata = 0;    ///< 4B per vertex (level / dist / color)
    Addr mask = 0;     ///< 1B per vertex status mask (visited/colored)
    Addr prio = 0;     ///< 8B per vertex (CLR priorities)
    Addr params = 0;   ///< 16B per vertex: parent-written child args
    Addr worklist = 0; ///< 4B per vertex: flattened frontier storage

    Addr rowAddr(std::uint32_t v) const { return rowOff + 8ull * v; }
    Addr colAddr(std::uint64_t e) const { return cols + 4ull * e; }
    Addr weightAddr(std::uint64_t e) const { return weights + 4ull * e; }
    Addr vdataAddr(std::uint32_t v) const { return vdata + 4ull * v; }
    Addr maskAddr(std::uint32_t v) const { return mask + v; }
    Addr prioAddr(std::uint32_t v) const { return prio + 8ull * v; }
    Addr paramAddr(std::uint32_t v) const { return params + 16ull * v; }
    Addr worklistAddr(std::uint64_t i) const { return worklist + 4ull * i; }

    /** Allocate all regions for @p csr (weights only if requested). */
    void allocate(BumpAllocator &mem, const Csr &csr, bool with_weights);
};

/**
 * Build the graph for one of the paper's inputs:
 * "citation", "graph500", or "cage" (Table II).
 */
Csr buildGraphInput(const std::string &input, Scale scale,
                    std::uint64_t seed);

/**
 * buildGraphInput(@p input, @p scale, @p seed), shared by every caller
 * that holds it at the same time. The first caller of a key builds the
 * graph while later callers of that key wait; a graph someone still
 * holds is handed out again; a graph is freed with its last holder,
 * and its entry goes with it, so the registry keeps nothing alive. A
 * build that fails raises in its caller and in every waiter and leaves
 * no entry: each waiter raises it through rethrowHere (common/log.hh),
 * so it throws or exits as its own FatalThrows scope decides.
 * Thread-safe.
 */
std::shared_ptr<const Csr> sharedGraphInput(const std::string &input,
                                            Scale scale,
                                            std::uint64_t seed);

/** Keys sharedGraphInput has an entry for: graphs held or in flight. */
std::size_t sharedGraphEntries();

/** A well-connected source vertex (highest degree). */
std::uint32_t pickSource(const Csr &csr);

} // namespace laperm

#endif // LAPERM_WORKLOADS_GRAPH_COMMON_HH
