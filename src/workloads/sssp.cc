/**
 * @file
 * Single-Source Shortest Path with dynamic parallelism [37]: per-round
 * worklists of relaxed vertices; high-degree vertices relax their
 * neighbors in a child launch, reading the distance the parent wrote.
 */

#include "workloads/sssp.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "graph/algorithms.hh"
#include "kernels/kernel_program.hh"
#include "kernels/thread_ctx.hh"
#include "workloads/graph_common.hh"

namespace laperm {

namespace {

struct SsspData
{
    /** The input graph, shared by every workload holding it. */
    std::shared_ptr<const Csr> csr;
    std::vector<std::uint32_t> weights;
    GraphLayout layout;
    SsspResult result;
    std::vector<std::uint64_t> roundStart;
    /**
     * Per round, one bit per edge index, set when that edge relaxed its
     * target in that round. Csr::fromEdges drops duplicate edges, so an
     * index names exactly one (u, v).
     */
    std::vector<std::vector<std::uint64_t>> relaxed;
    std::uint32_t childFuncId = 0;
    std::uint32_t topFuncId = 0;
};

void
emitRelax(ThreadCtx &ctx, const SsspData &d, std::uint32_t round,
          std::uint64_t edge)
{
    const GraphLayout &l = d.layout;
    ctx.ld(l.colAddr(edge), 4);
    ctx.ld(l.weightAddr(edge), 4);
    std::uint32_t v = d.csr->cols()[edge];
    ctx.ld(l.vdataAddr(v), 4); // dist[v]
    ctx.alu(3);
    if (round < d.relaxed.size() &&
        ((d.relaxed[round][edge / 64] >> (edge % 64)) & 1)) {
        ctx.st(l.vdataAddr(v), 4); // new distance
        // Worklist dedup flag (dense shared mask), then append to the
        // next round's worklist (ring over the buffer).
        ctx.ld(l.maskAddr(v), 1);
        ctx.st(l.maskAddr(v), 1);
        std::uint64_t slot =
            (d.roundStart[round + 1] + v) % d.csr->numVertices();
        ctx.st(l.worklistAddr(slot), 4);
    }
}

class SsspChildProgram : public KernelProgram
{
  public:
    SsspChildProgram(std::shared_ptr<const SsspData> data, std::uint32_t u,
                     std::uint32_t round)
        : data_(std::move(data)), u_(u), round_(round)
    {}

    std::string name() const override { return "sssp_relax"; }
    std::uint32_t functionId() const override
    {
        return data_->childFuncId;
    }
    std::uint32_t regsPerThread() const override { return 26; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const SsspData &d = *data_;
        const GraphLayout &l = d.layout;
        const std::uint64_t base = d.csr->offset(u_);
        const std::uint32_t deg = d.csr->degree(u_);
        const std::uint32_t stride = ctx.numTbs() * ctx.threadsPerTb();

        ctx.ld(l.paramAddr(u_), 16); // parent-written (u, dist[u])
        ctx.ld(l.rowAddr(u_), 8);
        ctx.ld(l.vdataAddr(u_), 4);  // dist[u], freshly stored by parent
        ctx.alu(4);
        for (std::uint64_t e = ctx.globalThreadIndex(); e < deg;
             e += stride) {
            emitRelax(ctx, d, round_, base + e);
        }
    }

  private:
    std::shared_ptr<const SsspData> data_;
    std::uint32_t u_;
    std::uint32_t round_;
};

class SsspTopProgram : public KernelProgram
{
  public:
    SsspTopProgram(std::shared_ptr<const SsspData> data,
                   std::uint32_t round)
        : data_(std::move(data)), round_(round)
    {}

    std::string name() const override { return "sssp_top"; }
    std::uint32_t functionId() const override { return data_->topFuncId; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const SsspData &d = *data_;
        const GraphLayout &l = d.layout;
        const auto &active = d.result.rounds[round_];
        const std::uint32_t i = ctx.globalThreadIndex();
        if (i >= active.size())
            return;
        const std::uint32_t u = active[i];
        const std::uint32_t deg = d.csr->degree(u);

        ctx.ld(l.worklistAddr((d.roundStart[round_] + i) %
                              d.csr->numVertices()),
               4);
        ctx.ld(l.rowAddr(u), 8);
        ctx.ld(l.vdataAddr(u), 4); // dist[u]
        ctx.alu(8);

        if (deg > kSpawnDegree) {
            ctx.st(l.paramAddr(u), 16);
            ctx.launch({std::make_shared<SsspChildProgram>(data_, u,
                                                           round_),
                        childTbCount(deg), kChildTbThreads});
        } else {
            const std::uint64_t base = d.csr->offset(u);
            for (std::uint32_t j = 0; j < deg; ++j)
                emitRelax(ctx, d, round_, base + j);
        }
    }

  private:
    std::shared_ptr<const SsspData> data_;
    std::uint32_t round_;
};

} // namespace

std::string
SsspWorkload::app() const
{
    return "sssp";
}

std::string
SsspWorkload::input() const
{
    return input_;
}

void
SsspWorkload::setup(Scale scale, std::uint64_t seed)
{
    scale_ = scale;
    seed_ = seed;

    auto data = std::make_shared<SsspData>();
    data->csr = sharedGraphInput(input_, scale, seed);
    const Csr &csr = *data->csr;
    data->weights = genEdgeWeights(csr, 64, seed ^ 0x55);
    data->layout.allocate(mem_, csr, true);
    data->childFuncId = allocateFunctionId();
    data->topFuncId = allocateFunctionId();

    std::uint32_t max_rounds;
    switch (scale) {
      case Scale::Tiny: max_rounds = 4; break;
      case Scale::Small: max_rounds = 8; break;
      case Scale::Huge: max_rounds = 18; break;
      default: max_rounds = 14; break;
    }
    data->result = sssp(csr, data->weights, pickSource(csr), max_rounds);

    // Re-run the relaxation schedule to record which edges update.
    {
        std::vector<std::uint32_t> dist(csr.numVertices(),
                                        kUnreached);
        dist[pickSource(csr)] = 0;
        data->relaxed.assign(
            data->result.rounds.size(),
            std::vector<std::uint64_t>((csr.numEdges() + 63) / 64));
        for (std::size_t r = 0; r < data->result.rounds.size(); ++r) {
            for (std::uint32_t u : data->result.rounds[r]) {
                std::uint64_t base = csr.offset(u);
                auto nbrs = csr.neighbors(u);
                for (std::size_t i = 0; i < nbrs.size(); ++i) {
                    std::uint32_t v = nbrs[i];
                    std::uint32_t w = data->weights[base + i];
                    if (dist[u] != kUnreached && dist[u] + w < dist[v]) {
                        dist[v] = dist[u] + w;
                        const std::uint64_t edge = base + i;
                        data->relaxed[r][edge / 64] |= 1ull << (edge % 64);
                    }
                }
            }
        }
    }

    // Worklists live in one n-entry ring buffer; rounds start at the
    // cumulative offset modulo n.
    data->roundStart.assign(data->result.rounds.size() + 1, 0);
    for (std::size_t r = 0; r < data->result.rounds.size(); ++r) {
        data->roundStart[r + 1] =
            (data->roundStart[r] + data->result.rounds[r].size()) %
            csr.numVertices();
    }

    waves_.clear();
    for (std::size_t r = 0; r < data->result.rounds.size(); ++r) {
        std::uint32_t active =
            static_cast<std::uint32_t>(data->result.rounds[r].size());
        if (active == 0)
            continue;
        std::uint32_t tbs =
            (active + kGraphTbThreads - 1) / kGraphTbThreads;
        waves_.push_back({std::make_shared<SsspTopProgram>(data, r), tbs,
                          kGraphTbThreads});
    }
}

} // namespace laperm
