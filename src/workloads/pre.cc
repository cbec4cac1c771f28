#include "workloads/pre.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "common/rng.hh"
#include "kernels/kernel_program.hh"
#include "kernels/thread_ctx.hh"

namespace laperm {

namespace {

constexpr std::uint32_t kPreThreads = 128;
constexpr std::uint32_t kUserSpawn = 24; ///< ratings above this -> child
constexpr std::uint32_t kFeatureBytes = 64;

struct PreData
{
    std::uint32_t numUsers = 0, numItems = 0;
    std::vector<std::uint64_t> userOff; ///< CSR over ratings
    std::vector<std::uint32_t> items;   ///< rated item per rating

    Addr userOffA = 0, itemsA = 0, ratingsA = 0, featuresA = 0,
         profileA = 0, paramsA = 0, scoresA = 0;
    std::uint32_t profileFuncId = 0, topFuncId = 0, scoreFuncId = 0;

    std::uint32_t
    ratings(std::uint32_t u) const
    {
        return static_cast<std::uint32_t>(userOff[u + 1] - userOff[u]);
    }
};

/** Score one rating: read the item's features, accumulate. */
void
emitScore(ThreadCtx &ctx, const PreData &d, std::uint64_t r)
{
    ctx.ld(d.itemsA + 4ull * r, 4);
    ctx.ld(d.ratingsA + 4ull * r, 4);
    std::uint32_t item = d.items[r];
    ctx.ld(d.featuresA + static_cast<Addr>(kFeatureBytes) * item,
           kFeatureBytes);
    ctx.alu(10);
}

class PreScoreProgram : public KernelProgram
{
  public:
    PreScoreProgram(std::shared_ptr<const PreData> d, std::uint32_t user)
        : d_(std::move(d)), user_(user)
    {}

    std::string name() const override { return "pre_score"; }
    std::uint32_t functionId() const override { return d_->scoreFuncId; }
    std::uint32_t regsPerThread() const override { return 30; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const PreData &d = *d_;
        std::uint64_t base = d.userOff[user_];
        std::uint32_t count = d.ratings(user_);
        std::uint32_t stride = ctx.numTbs() * ctx.threadsPerTb();
        ctx.ld(d.paramsA + 16ull * user_, 16);
        ctx.ld(d.profileA + 64ull * user_, 64); // parent-written profile
        for (std::uint32_t r = ctx.globalThreadIndex(); r < count;
             r += stride) {
            emitScore(ctx, d, base + r);
        }
        ctx.st(d.scoresA + 64ull * user_ +
                   4ull * (ctx.globalThreadIndex() % 16),
               4);
    }

  private:
    std::shared_ptr<const PreData> d_;
    std::uint32_t user_;
};

class PreTopProgram : public KernelProgram
{
  public:
    explicit PreTopProgram(std::shared_ptr<const PreData> d)
        : d_(std::move(d))
    {}

    std::string name() const override { return "pre_recommend"; }
    std::uint32_t functionId() const override { return d_->topFuncId; }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const PreData &d = *d_;
        std::uint32_t u = ctx.globalThreadIndex();
        if (u >= d.numUsers)
            return;
        ctx.ld(d.userOffA + 8ull * u, 8);
        ctx.ld(d.profileA + 64ull * u, 64);
        ctx.alu(6);
        std::uint32_t count = d.ratings(u);
        if (count > kUserSpawn) {
            ctx.st(d.paramsA + 16ull * u, 16);
            std::uint32_t tbs =
                std::min(4u, (count + kPreThreads - 1) / kPreThreads);
            ctx.launch({std::make_shared<PreScoreProgram>(d_, u), tbs,
                        kPreThreads});
        } else {
            std::uint64_t base = d.userOff[u];
            for (std::uint32_t r = 0; r < count; ++r)
                emitScore(ctx, d, base + r);
            ctx.st(d.scoresA + 64ull * u, 4);
        }
    }

  private:
    std::shared_ptr<const PreData> d_;
};

/** First wave: build user profiles from their ratings. */
class PreProfileProgram : public KernelProgram
{
  public:
    explicit PreProfileProgram(std::shared_ptr<const PreData> d)
        : d_(std::move(d))
    {}

    std::string name() const override { return "pre_profile"; }
    std::uint32_t functionId() const override
    {
        return d_->profileFuncId;
    }

    void
    emitThread(ThreadCtx &ctx) const override
    {
        const PreData &d = *d_;
        std::uint32_t u = ctx.globalThreadIndex();
        if (u >= d.numUsers)
            return;
        ctx.ld(d.userOffA + 8ull * u, 8);
        std::uint64_t base = d.userOff[u];
        std::uint32_t count = std::min(d.ratings(u), 8u);
        for (std::uint32_t r = 0; r < count; ++r)
            ctx.ld(d.ratingsA + 4ull * (base + r), 4);
        ctx.alu(8);
        ctx.st(d.profileA + 64ull * u, 64);
    }

  private:
    std::shared_ptr<const PreData> d_;
};

} // namespace

void
PreWorkload::setup(Scale scale, std::uint64_t seed)
{
    scale_ = scale;
    seed_ = seed;

    auto d = std::make_shared<PreData>();
    std::uint32_t avg_ratings;
    switch (scale) {
      case Scale::Tiny:
        d->numUsers = 1000;
        d->numItems = 400;
        avg_ratings = 12;
        break;
      case Scale::Small:
        d->numUsers = 30000;
        d->numItems = 6000;
        avg_ratings = 24;
        break;
      case Scale::Huge:
        d->numUsers = 250000;
        d->numItems = 40000;
        avg_ratings = 32;
        break;
      default:
        d->numUsers = 100000;
        d->numItems = 16000;
        avg_ratings = 32;
        break;
    }

    // MovieLens-like skew: user activity and item popularity are both
    // heavy-tailed.
    Rng rng(seed);
    const Zipf boost_law(100, 1.3);
    const Zipf item_law(d->numItems, 1.3);
    d->userOff.assign(d->numUsers + 1, 0);
    std::vector<std::uint32_t> counts(d->numUsers);
    for (std::uint32_t u = 0; u < d->numUsers; ++u) {
        double boost =
            1.0 + 8.0 * static_cast<double>(
                            rng.nextZipf(boost_law)) / 100.0;
        counts[u] = 2 + static_cast<std::uint32_t>(
                            rng.nextBounded(
                                static_cast<std::uint64_t>(
                                    avg_ratings * boost)));
    }
    for (std::uint32_t u = 0; u < d->numUsers; ++u)
        d->userOff[u + 1] = d->userOff[u] + counts[u];
    d->items.resize(d->userOff[d->numUsers]);
    for (auto &item : d->items)
        item = static_cast<std::uint32_t>(rng.nextZipf(item_law));

    std::uint64_t m = d->items.size();
    d->userOffA = mem_.allocArray(d->numUsers + 1, 8, "userOff");
    d->itemsA = mem_.allocArray(m, 4, "items");
    d->ratingsA = mem_.allocArray(m, 4, "ratings");
    d->featuresA =
        mem_.allocArray(d->numItems, kFeatureBytes, "features");
    d->profileA = mem_.allocArray(d->numUsers, 64, "profiles");
    d->paramsA = mem_.allocArray(d->numUsers, 16, "params");
    d->scoresA = mem_.allocArray(d->numUsers, 64, "scores");
    d->profileFuncId = allocateFunctionId();
    d->topFuncId = allocateFunctionId();
    d->scoreFuncId = allocateFunctionId();

    std::uint32_t tbs = (d->numUsers + 127) / 128;
    waves_.clear();
    waves_.push_back({std::make_shared<PreProfileProgram>(d), tbs, 128});
    waves_.push_back({std::make_shared<PreTopProgram>(d), tbs, 128});
}

} // namespace laperm
