#include "workloads/regx.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "common/rng.hh"
#include "kernels/kernel_program.hh"
#include "kernels/thread_ctx.hh"

namespace laperm {

namespace {

constexpr std::uint32_t kScanThreads = 128;
constexpr std::uint32_t kTableLines = 64; ///< 8KB transition table

struct RegxData
{
    std::uint32_t numPackets = 0;
    std::vector<std::uint32_t> payloadLen;   ///< bytes
    std::vector<std::uint64_t> payloadOff;   ///< bytes into the pool
    std::vector<bool> prefilterHit;
    /** Per packet: pseudo-random but deterministic table walk seed. */
    std::vector<std::uint32_t> walkSeed;
    /** The walk's skew: most transitions stay in a few states. */
    Zipf walkLaw{kTableLines, 1.2};

    Addr headersA = 0, payloadA = 0, tableA = 0, paramsA = 0,
         resultsA = 0;
    std::uint32_t topFuncId = 0, scanFuncId = 0;

    Addr
    tableLine(std::uint32_t state) const
    {
        return tableA + kLineBytes * (state % kTableLines);
    }
};

class RegxScanProgram : public KernelProgram
{
  public:
    RegxScanProgram(std::shared_ptr<const RegxData> d, std::uint32_t pkt)
        : d_(std::move(d)), pkt_(pkt)
    {}

    std::string name() const override { return "regx_scan"; }
    std::uint32_t functionId() const override { return d_->scanFuncId; }
    std::uint32_t regsPerThread() const override { return 28; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const RegxData &d = *d_;
        const std::uint32_t len = d.payloadLen[pkt_];
        const std::uint32_t stride =
            ctx.numTbs() * ctx.threadsPerTb() * 4;
        ctx.ld(d.paramsA + 16ull * pkt_, 16);

        // Each thread scans a strided slice of the payload; every few
        // bytes the NFA indexes the shared transition table. The table
        // walk is Zipf-hot: most transitions stay in a few states.
        Rng walk(d.walkSeed[pkt_] + ctx.globalThreadIndex());
        for (std::uint32_t pos = ctx.globalThreadIndex() * 4; pos < len;
             pos += stride) {
            ctx.ld(d.payloadA + d.payloadOff[pkt_] + pos, 4);
            std::uint32_t state =
                static_cast<std::uint32_t>(walk.nextZipf(d.walkLaw));
            ctx.ld(d.tableLine(state), 4);
            ctx.alu(4);
        }
        if (ctx.globalThreadIndex() == 0) {
            ctx.alu(4);
            ctx.st(d.resultsA + 4ull * pkt_, 4);
        }
    }

  private:
    std::shared_ptr<const RegxData> d_;
    std::uint32_t pkt_;
};

class RegxTopProgram : public KernelProgram
{
  public:
    explicit RegxTopProgram(std::shared_ptr<const RegxData> d)
        : d_(std::move(d))
    {}

    std::string name() const override { return "regx_prefilter"; }
    std::uint32_t functionId() const override { return d_->topFuncId; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const RegxData &d = *d_;
        std::uint32_t pkt = ctx.globalThreadIndex();
        if (pkt >= d.numPackets)
            return;
        ctx.ld(d.headersA + 16ull * pkt, 16);
        // Peek at the payload head for the prefilter signature.
        ctx.ld(d.payloadA + d.payloadOff[pkt], 4);
        ctx.ld(d.tableLine(0), 4); // NFA start state
        ctx.alu(6);
        if (d.prefilterHit[pkt]) {
            ctx.st(d.paramsA + 16ull * pkt, 16);
            std::uint32_t tbs = std::max(
                1u, std::min(4u, d.payloadLen[pkt] /
                                     (kScanThreads * 4)));
            ctx.launch({std::make_shared<RegxScanProgram>(d_, pkt), tbs,
                        kScanThreads});
        } else {
            ctx.st(d.resultsA + 4ull * pkt, 4);
        }
    }

  private:
    std::shared_ptr<const RegxData> d_;
};

} // namespace

void
RegxWorkload::setup(Scale scale, std::uint64_t seed)
{
    scale_ = scale;
    seed_ = seed;

    auto d = std::make_shared<RegxData>();
    switch (scale) {
      case Scale::Tiny: d->numPackets = 600; break;
      case Scale::Small: d->numPackets = 48000; break;
      case Scale::Huge: d->numPackets = 160000; break;
      default: d->numPackets = 64000; break;
    }

    const bool darpa = input_ == "darpa";
    Rng rng(seed);
    d->payloadLen.resize(d->numPackets);
    d->payloadOff.resize(d->numPackets);
    d->prefilterHit.resize(d->numPackets);
    d->walkSeed.resize(d->numPackets);
    std::uint64_t pool = 0;
    for (std::uint32_t p = 0; p < d->numPackets; ++p) {
        std::uint32_t len;
        bool hit;
        if (darpa) {
            // Bimodal: many small control packets, some MTU-sized ones;
            // attacks arrive in bursts (clustered prefilter hits).
            len = rng.nextDouble() < 0.6
                      ? 64 + static_cast<std::uint32_t>(
                                 rng.nextBounded(192))
                      : 1024 + static_cast<std::uint32_t>(
                                   rng.nextBounded(476));
            bool burst = ((p / 64) % 5) == 0;
            hit = rng.nextDouble() < (burst ? 0.8 : 0.1);
        } else {
            len = 128 + static_cast<std::uint32_t>(rng.nextBounded(896));
            hit = rng.nextDouble() < 0.3;
        }
        d->payloadLen[p] = len;
        d->payloadOff[p] = pool;
        pool += (len + kLineBytes - 1) / kLineBytes * kLineBytes;
        d->prefilterHit[p] = hit;
        d->walkSeed[p] = static_cast<std::uint32_t>(rng.next());
    }

    d->headersA = mem_.allocArray(d->numPackets, 16, "headers");
    d->payloadA = mem_.alloc(pool, "payload");
    d->tableA = mem_.alloc(kTableLines * kLineBytes, "nfa_table");
    d->paramsA = mem_.allocArray(d->numPackets, 16, "params");
    d->resultsA = mem_.allocArray(d->numPackets, 4, "results");
    d->topFuncId = allocateFunctionId();
    d->scanFuncId = allocateFunctionId();

    waves_.clear();
    waves_.push_back({std::make_shared<RegxTopProgram>(d),
                      (d->numPackets + 127) / 128, 128});
}

} // namespace laperm
