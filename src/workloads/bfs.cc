/**
 * @file
 * Breadth-First Search with dynamic parallelism [29]: a level-
 * synchronous top-down BFS whose parent kernel expands low-degree
 * frontier vertices inline and launches a child kernel / TB group per
 * high-degree vertex — the canonical CDP pattern of Section III.
 */

#include "workloads/bfs.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "graph/algorithms.hh"
#include "kernels/kernel_program.hh"
#include "kernels/thread_ctx.hh"
#include "workloads/graph_common.hh"

namespace laperm {

namespace {

/** Immutable per-instance data shared by all BFS kernel programs. */
struct BfsData
{
    /** The input graph, shared by every workload holding it. */
    std::shared_ptr<const Csr> csr;
    GraphLayout layout;
    BfsResult result;
    /** First worklist slot of each level's frontier. */
    std::vector<std::uint64_t> frontierStart;
    /** Vertex that first discovered v (kUnreached for none). */
    std::vector<std::uint32_t> discoverer;
    /** Index of v within its level's frontier. */
    std::vector<std::uint32_t> posInFrontier;
    std::uint32_t childFuncId = 0;
    std::uint32_t topFuncId = 0;
};

/** Emit the edge-expansion trace for one (vertex, edge) visit. */
void
emitEdgeVisit(ThreadCtx &ctx, const BfsData &d, std::uint32_t u,
              std::uint64_t edge, std::uint32_t next_level)
{
    const GraphLayout &l = d.layout;
    ctx.ld(l.colAddr(edge), 4);
    std::uint32_t v = d.csr->cols()[edge];
    // Duplicate-culling via the status mask [29]: a dense, heavily
    // shared structure — the main sibling-footprint overlap.
    ctx.ld(l.maskAddr(v), 1);
    ctx.alu(2);
    if (d.result.level[v] < next_level)
        return; // already visited: culled by the mask probe
    ctx.ld(l.vdataAddr(v), 4); // level[v]
    if (d.discoverer[v] == u && d.result.level[v] == next_level) {
        ctx.st(l.maskAddr(v), 1);  // mark visited
        ctx.st(l.vdataAddr(v), 4); // claim v
        ctx.st(l.worklistAddr(d.frontierStart[next_level] +
                              d.posInFrontier[v]),
               4); // append to the next frontier
    }
}

/** Child kernel: cooperatively expand one high-degree vertex. */
class BfsChildProgram : public KernelProgram
{
  public:
    BfsChildProgram(std::shared_ptr<const BfsData> data, std::uint32_t u)
        : data_(std::move(data)), u_(u)
    {}

    std::string name() const override { return "bfs_expand"; }
    std::uint32_t functionId() const override
    {
        return data_->childFuncId;
    }
    std::uint32_t regsPerThread() const override { return 24; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const BfsData &d = *data_;
        const GraphLayout &l = d.layout;
        const std::uint64_t base = d.csr->offset(u_);
        const std::uint32_t deg = d.csr->degree(u_);
        const std::uint32_t stride = ctx.numTbs() * ctx.threadsPerTb();
        const std::uint32_t next_level = d.result.level[u_] + 1;

        // Parent-written launch parameters and the vertex's CSR row —
        // the shared parent-child footprint (broadcast within a warp).
        ctx.ld(l.paramAddr(u_), 16);
        ctx.ld(l.rowAddr(u_), 8);
        ctx.alu(4);
        for (std::uint64_t e = ctx.globalThreadIndex(); e < deg;
             e += stride) {
            emitEdgeVisit(ctx, d, u_, base + e, next_level);
        }
    }

  private:
    std::shared_ptr<const BfsData> data_;
    std::uint32_t u_;
};

/** Parent kernel: one level of the frontier. */
class BfsTopProgram : public KernelProgram
{
  public:
    BfsTopProgram(std::shared_ptr<const BfsData> data, std::uint32_t level)
        : data_(std::move(data)), level_(level)
    {}

    std::string name() const override { return "bfs_top"; }
    std::uint32_t functionId() const override { return data_->topFuncId; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const BfsData &d = *data_;
        const GraphLayout &l = d.layout;
        const auto &frontier = d.result.frontiers[level_];
        const std::uint32_t i = ctx.globalThreadIndex();
        if (i >= frontier.size())
            return;
        const std::uint32_t u = frontier[i];
        const std::uint32_t deg = d.csr->degree(u);

        ctx.ld(l.worklistAddr(d.frontierStart[level_] + i), 4);
        ctx.ld(l.rowAddr(u), 8);
        ctx.ld(l.vdataAddr(u), 4);
        ctx.alu(6);

        if (deg > kSpawnDegree) {
            // Generate the child's arguments, then launch: the child
            // re-reads exactly what this thread just wrote.
            ctx.st(l.paramAddr(u), 16);
            ctx.launch({std::make_shared<BfsChildProgram>(data_, u),
                        childTbCount(deg), kChildTbThreads});
        } else {
            const std::uint64_t base = d.csr->offset(u);
            for (std::uint32_t j = 0; j < deg; ++j)
                emitEdgeVisit(ctx, d, u, base + j, level_ + 1);
        }
    }

  private:
    std::shared_ptr<const BfsData> data_;
    std::uint32_t level_;
};

} // namespace

std::string
BfsWorkload::app() const
{
    return "bfs";
}

std::string
BfsWorkload::input() const
{
    return input_;
}

void
BfsWorkload::setup(Scale scale, std::uint64_t seed)
{
    scale_ = scale;
    seed_ = seed;

    auto data = std::make_shared<BfsData>();
    data->csr = sharedGraphInput(input_, scale, seed);
    const Csr &csr = *data->csr;
    data->layout.allocate(mem_, csr, false);
    data->result = bfs(csr, pickSource(csr));
    data->childFuncId = allocateFunctionId();
    data->topFuncId = allocateFunctionId();

    const std::uint32_t n = csr.numVertices();
    data->discoverer.assign(n, kUnreached);
    data->posInFrontier.assign(n, 0);
    data->frontierStart.assign(data->result.frontiers.size() + 1, 0);
    for (std::size_t lvl = 0; lvl < data->result.frontiers.size(); ++lvl) {
        const auto &front = data->result.frontiers[lvl];
        data->frontierStart[lvl + 1] =
            data->frontierStart[lvl] + front.size();
        for (std::size_t i = 0; i < front.size(); ++i)
            data->posInFrontier[front[i]] =
                static_cast<std::uint32_t>(i);
        for (std::uint32_t u : front) {
            for (std::uint32_t v : csr.neighbors(u)) {
                if (data->result.level[v] == lvl + 1 &&
                    data->discoverer[v] == kUnreached) {
                    data->discoverer[v] = u;
                }
            }
        }
    }

    std::uint32_t max_waves;
    switch (scale) {
      case Scale::Tiny: max_waves = 5; break;
      case Scale::Small: max_waves = 12; break;
      case Scale::Huge: max_waves = 24; break;
      default: max_waves = 20; break;
    }
    std::uint32_t levels = static_cast<std::uint32_t>(
        std::min<std::size_t>(data->result.frontiers.size(), max_waves));
    waves_.clear();
    for (std::uint32_t lvl = 0; lvl < levels; ++lvl) {
        std::uint32_t front =
            static_cast<std::uint32_t>(data->result.frontiers[lvl].size());
        std::uint32_t tbs =
            (front + kGraphTbThreads - 1) / kGraphTbThreads;
        waves_.push_back({std::make_shared<BfsTopProgram>(data, lvl), tbs,
                          kGraphTbThreads});
    }
}

} // namespace laperm
