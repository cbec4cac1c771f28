/**
 * @file
 * Graph coloring with dynamic parallelism [31]: Jones-Plassmann rounds.
 * Each round's kernel scans the neighborhood of the vertices that win
 * the priority race; heavy neighborhoods are scanned by child TBs that
 * re-read the priorities/colors the parent round produced.
 */

#include "workloads/clr.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "graph/algorithms.hh"
#include "kernels/kernel_program.hh"
#include "kernels/thread_ctx.hh"
#include "workloads/graph_common.hh"

namespace laperm {

namespace {

struct ClrData
{
    /** The input graph, shared by every workload holding it. */
    std::shared_ptr<const Csr> csr;
    GraphLayout layout;
    ColoringResult result;
    std::vector<std::uint64_t> roundStart;
    /** Round in which each vertex is colored (kUnreached if beyond). */
    std::vector<std::uint32_t> roundOf;
    std::uint32_t childFuncId = 0;
    std::uint32_t topFuncId = 0;
};

/** Scan one neighbor: status mask first, then priority or color. */
void
emitNeighborScan(ThreadCtx &ctx, const ClrData &d, std::uint64_t edge,
                 std::uint32_t round)
{
    const GraphLayout &l = d.layout;
    ctx.ld(l.colAddr(edge), 4);
    std::uint32_t v = d.csr->cols()[edge];
    // The colored-status mask is the dense shared structure every
    // scan probes first.
    ctx.ld(l.maskAddr(v), 1);
    ctx.alu(2);
    if (d.roundOf[v] < round) {
        // Already colored: its color constrains our choice.
        ctx.ld(l.vdataAddr(v), 4);
    } else {
        // Still uncolored: compare priorities.
        ctx.ld(l.prioAddr(v), 8);
    }
}

class ClrChildProgram : public KernelProgram
{
  public:
    ClrChildProgram(std::shared_ptr<const ClrData> data, std::uint32_t u,
                    std::uint32_t round)
        : data_(std::move(data)), u_(u), round_(round)
    {}

    std::string name() const override { return "clr_scan"; }
    std::uint32_t functionId() const override
    {
        return data_->childFuncId;
    }
    std::uint32_t regsPerThread() const override { return 28; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const ClrData &d = *data_;
        const GraphLayout &l = d.layout;
        const std::uint64_t base = d.csr->offset(u_);
        const std::uint32_t deg = d.csr->degree(u_);
        const std::uint32_t stride = ctx.numTbs() * ctx.threadsPerTb();

        ctx.ld(l.paramAddr(u_), 16);
        ctx.ld(l.rowAddr(u_), 8);
        ctx.ld(l.prioAddr(u_), 8);
        ctx.alu(4);
        for (std::uint64_t e = ctx.globalThreadIndex(); e < deg;
             e += stride) {
            emitNeighborScan(ctx, d, base + e, round_);
        }
        // The last TB's thread 0 commits the color after the scan.
        if (ctx.tbIndex() == ctx.numTbs() - 1 && ctx.threadIndex() == 0) {
            ctx.alu(6);
            ctx.st(l.vdataAddr(u_), 4);
            ctx.st(l.maskAddr(u_), 1);
        }
    }

  private:
    std::shared_ptr<const ClrData> data_;
    std::uint32_t u_;
    std::uint32_t round_;
};

class ClrTopProgram : public KernelProgram
{
  public:
    ClrTopProgram(std::shared_ptr<const ClrData> data, std::uint32_t round)
        : data_(std::move(data)), round_(round)
    {}

    std::string name() const override { return "clr_top"; }
    std::uint32_t functionId() const override { return data_->topFuncId; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const ClrData &d = *data_;
        const GraphLayout &l = d.layout;
        const auto &round = d.result.rounds[round_];
        const std::uint32_t i = ctx.globalThreadIndex();
        if (i >= round.size())
            return;
        const std::uint32_t u = round[i];
        const std::uint32_t deg = d.csr->degree(u);

        ctx.ld(l.worklistAddr((d.roundStart[round_] + i) %
                              d.csr->numVertices()),
               4);
        ctx.ld(l.rowAddr(u), 8);
        ctx.ld(l.prioAddr(u), 8);
        ctx.alu(6);

        if (deg > kSpawnDegree) {
            ctx.st(l.paramAddr(u), 16);
            ctx.launch({std::make_shared<ClrChildProgram>(data_, u,
                                                          round_),
                        childTbCount(deg), kChildTbThreads});
        } else {
            const std::uint64_t base = d.csr->offset(u);
            for (std::uint32_t j = 0; j < deg; ++j)
                emitNeighborScan(ctx, d, base + j, round_);
            ctx.alu(4);
            ctx.st(l.vdataAddr(u), 4); // commit color
            ctx.st(l.maskAddr(u), 1);
        }
    }

  private:
    std::shared_ptr<const ClrData> data_;
    std::uint32_t round_;
};

} // namespace

std::string
ClrWorkload::app() const
{
    return "clr";
}

std::string
ClrWorkload::input() const
{
    return input_;
}

void
ClrWorkload::setup(Scale scale, std::uint64_t seed)
{
    scale_ = scale;
    seed_ = seed;

    auto data = std::make_shared<ClrData>();
    data->csr = sharedGraphInput(input_, scale, seed);
    const Csr &csr = *data->csr;
    data->layout.allocate(mem_, csr, false);
    data->result = jpColoring(csr, seed ^ 0xC010F);
    data->childFuncId = allocateFunctionId();
    data->topFuncId = allocateFunctionId();

    data->roundOf.assign(csr.numVertices(), kUnreached);
    for (std::size_t r = 0; r < data->result.rounds.size(); ++r) {
        for (std::uint32_t v : data->result.rounds[r])
            data->roundOf[v] = static_cast<std::uint32_t>(r);
    }

    std::uint32_t max_waves;
    switch (scale) {
      case Scale::Tiny: max_waves = 4; break;
      case Scale::Small: max_waves = 8; break;
      case Scale::Huge: max_waves = 16; break;
      default: max_waves = 12; break;
    }

    data->roundStart.assign(data->result.rounds.size() + 1, 0);
    for (std::size_t r = 0; r < data->result.rounds.size(); ++r) {
        data->roundStart[r + 1] =
            (data->roundStart[r] + data->result.rounds[r].size()) %
            csr.numVertices();
    }

    std::uint32_t rounds = static_cast<std::uint32_t>(
        std::min<std::size_t>(data->result.rounds.size(), max_waves));
    waves_.clear();
    for (std::uint32_t r = 0; r < rounds; ++r) {
        std::uint32_t active =
            static_cast<std::uint32_t>(data->result.rounds[r].size());
        std::uint32_t tbs =
            (active + kGraphTbThreads - 1) / kGraphTbThreads;
        waves_.push_back({std::make_shared<ClrTopProgram>(data, r), tbs,
                          kGraphTbThreads});
    }
}

} // namespace laperm
