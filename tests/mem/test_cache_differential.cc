/**
 * @file
 * Differential test of the set-block cache against the original
 * array-of-structs cache, kept here as RefCache (the
 * "referenceZip" idiom): both are driven by the same seeded streams of
 * loads, stores, allocates, out-of-order L2-style timestamps and MSHR
 * trims at a monotone clock, over every preset's L1 and L2 geometry,
 * and every result, victim, contains() answer and statistic must
 * match. Also checks the multiply-shift remainder against `%`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fast_mod.hh"
#include "common/rng.hh"
#include "mem/cache.hh"

using namespace laperm;

namespace {

/** The cache as it was before the set-block layout (reference). */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &params)
        : params_(params),
          numSets_(params.size / (params.assoc * kLineBytes))
    {
        ways_.resize(static_cast<std::size_t>(numSets_) * params_.assoc);
    }

    CacheAccessResult lookupLoad(Addr line, Cycle now)
    {
        CacheAccessResult res;
        ++stats_.accesses;
        if (Way *way = findWay(line)) {
            way->lruStamp = ++lruClock_;
            if (way->fillReady <= now) {
                ++stats_.hits;
                res.hit = true;
            } else {
                ++stats_.misses;
                ++stats_.mshrMerges;
                res.mshrMerge = true;
                res.fillReady = way->fillReady;
            }
            return res;
        }
        auto it = mshr_.find(line);
        if (it != mshr_.end()) {
            if (it->second <= now) {
                mshr_.erase(it);
            } else {
                ++stats_.misses;
                ++stats_.mshrMerges;
                res.mshrMerge = true;
                res.fillReady = it->second;
                return res;
            }
        }
        ++stats_.misses;
        return res;
    }

    CacheAccessResult lookupStore(Addr line, Cycle now)
    {
        CacheAccessResult res;
        if (params_.writeEvict) {
            if (Way *way = findWay(line)) {
                way->valid = false;
                ++stats_.storeEvicts;
            }
            return res;
        }
        ++stats_.accesses;
        if (Way *way = findWay(line)) {
            way->lruStamp = ++lruClock_;
            way->dirty = true;
            if (way->fillReady <= now) {
                ++stats_.hits;
                res.hit = true;
            } else {
                ++stats_.misses;
                ++stats_.mshrMerges;
                res.mshrMerge = true;
                res.fillReady = way->fillReady;
            }
            return res;
        }
        ++stats_.misses;
        return res;
    }

    bool allocate(Addr line, Cycle fill_ready, Cycle now, bool dirty)
    {
        Way *base = &ways_[static_cast<std::size_t>(setIndex(line)) *
                           params_.assoc];
        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (!victim || base[w].lruStamp < victim->lruStamp)
                victim = &base[w];
        }
        bool victim_dirty = false;
        if (victim->valid) {
            ++stats_.evictions;
            if (victim->dirty) {
                victim_dirty = true;
                ++stats_.writebacks;
            }
            if (victim->fillReady > now)
                mshr_[victim->line] = victim->fillReady;
        }
        victim->line = line;
        victim->valid = true;
        victim->dirty = dirty;
        victim->fillReady = fill_ready;
        victim->lruStamp = ++lruClock_;
        return victim_dirty;
    }

    bool contains(Addr line) const
    {
        const Way *base = &ways_[static_cast<std::size_t>(setIndex(line)) *
                                 params_.assoc];
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (base[w].valid && base[w].line == line)
                return true;
        }
        return false;
    }

    void trimExpiredMshr(Cycle safe_now)
    {
        if (mshr_.size() < params_.mshrTrimWatermark)
            return;
        std::erase_if(mshr_, [safe_now](const auto &e) {
            return e.second <= safe_now;
        });
    }

    void reset()
    {
        std::fill(ways_.begin(), ways_.end(), Way{});
        mshr_.clear();
        lruClock_ = 0;
        stats_ = CacheStats{};
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Way
    {
        Addr line = 0;
        bool valid = false;
        bool dirty = false;
        Cycle fillReady = 0;
        std::uint64_t lruStamp = 0;
    };

    std::uint32_t setIndex(Addr line) const
    {
        return static_cast<std::uint32_t>((line / kLineBytes) % numSets_);
    }

    Way *findWay(Addr line)
    {
        Way *base = &ways_[static_cast<std::size_t>(setIndex(line)) *
                           params_.assoc];
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (base[w].valid && base[w].line == line)
                return &base[w];
        }
        return nullptr;
    }

    CacheParams params_;
    std::uint32_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t lruClock_ = 0;
    std::unordered_map<Addr, Cycle> mshr_;
    CacheStats stats_;
};

struct Geometry
{
    std::uint32_t sets;
    std::uint32_t assoc;
};

// Every preset's L1 (48, 64, 96, 192 sets, 4-way) and L2 (768, 1024,
// 2048, 3072 sets, 16-way), plus a single set and an odd way count.
const Geometry kGeometries[] = {
    {48, 4},   {64, 4},    {96, 4},    {192, 4},  {768, 16},
    {1024, 16}, {2048, 16}, {3072, 16}, {1, 4},    {5, 3},
};

void
expectSame(const CacheAccessResult &a, const CacheAccessResult &b,
           const std::string &where)
{
    EXPECT_EQ(a.hit, b.hit) << where;
    EXPECT_EQ(a.mshrMerge, b.mshrMerge) << where;
    EXPECT_EQ(a.fillReady, b.fillReady) << where;
    EXPECT_EQ(a.victimDirty, b.victimDirty) << where;
}

void
expectSame(const CacheStats &a, const CacheStats &b,
           const std::string &where)
{
    EXPECT_EQ(a.accesses, b.accesses) << where;
    EXPECT_EQ(a.hits, b.hits) << where;
    EXPECT_EQ(a.misses, b.misses) << where;
    EXPECT_EQ(a.mshrMerges, b.mshrMerges) << where;
    EXPECT_EQ(a.evictions, b.evictions) << where;
    EXPECT_EQ(a.writebacks, b.writebacks) << where;
    EXPECT_EQ(a.storeEvicts, b.storeEvicts) << where;
}

/**
 * Drive a Cache and a RefCache with one seeded stream. Lines are drawn
 * from a window of 3x the capacity (a hot eighth of it half the time),
 * so hits, evictions of in-flight lines and MSHR merges all occur.
 * Access times run up to @p jitter cycles ahead of a monotone clock, as
 * L2 timestamps do; trims use the clock, which bounds every later
 * timestamp.
 */
void
runStream(const Geometry &g, bool write_evict, std::uint32_t watermark,
          Cycle jitter, std::uint64_t seed)
{
    CacheParams p;
    p.name = "diff";
    p.assoc = g.assoc;
    p.size = g.sets * g.assoc * kLineBytes;
    p.writeEvict = write_evict;
    p.mshrTrimWatermark = watermark;
    Cache cache(p);
    RefCache ref(p);
    ASSERT_EQ(cache.numSets(), g.sets);

    const std::string tag = "sets=" + std::to_string(g.sets) +
                            " assoc=" + std::to_string(g.assoc) +
                            " evict=" + std::to_string(write_evict) +
                            " seed=" + std::to_string(seed);
    Rng rng(seed);
    const std::uint64_t lines = 3ull * g.sets * g.assoc;
    auto draw_line = [&]() -> Addr {
        const std::uint64_t window =
            rng.nextBounded(2) ? lines
                               : std::max<std::uint64_t>(1, lines / 8);
        return rng.nextBounded(window) * kLineBytes;
    };

    Cycle clock = 0;
    constexpr int kOps = 40000;
    for (int i = 0; i < kOps; ++i) {
        clock += rng.nextBounded(3);
        const Cycle now = clock + rng.nextBounded(jitter + 1);
        const Addr line = draw_line();
        const std::string where = tag + " op=" + std::to_string(i);
        const std::uint64_t kind = rng.nextBounded(100);
        if (kind < 60) {
            const CacheAccessResult a = cache.lookupLoad(line, now);
            const CacheAccessResult b = ref.lookupLoad(line, now);
            expectSame(a, b, where);
            if (!a.hit && !a.mshrMerge) {
                const Cycle fill = now + 1 + rng.nextBounded(800);
                EXPECT_EQ(cache.allocate(line, fill, now, false),
                          ref.allocate(line, fill, now, false))
                    << where;
            }
        } else if (kind < 85) {
            const CacheAccessResult a = cache.lookupStore(line, now);
            const CacheAccessResult b = ref.lookupStore(line, now);
            expectSame(a, b, where);
            if (!write_evict && !a.hit && !a.mshrMerge) {
                EXPECT_EQ(cache.allocate(line, now, now, true),
                          ref.allocate(line, now, now, true))
                    << where;
            }
        } else if (kind < 90) {
            // A bare allocate, even of a line already present: both
            // must then agree on which duplicate a lookup finds.
            const Cycle fill = now + rng.nextBounded(600);
            const bool dirty = rng.nextBounded(2) != 0;
            EXPECT_EQ(cache.allocate(line, fill, now, dirty),
                      ref.allocate(line, fill, now, dirty))
                << where;
        } else if (kind < 97) {
            EXPECT_EQ(cache.contains(line), ref.contains(line)) << where;
        } else {
            cache.trimExpiredMshr(clock);
            ref.trimExpiredMshr(clock);
        }
        if (::testing::Test::HasFailure())
            return; // one divergence is enough to read
        if (i % 4096 == 0)
            expectSame(cache.stats(), ref.stats(), where);
        if (i == kOps / 2) {
            cache.reset();
            ref.reset();
        }
    }
    expectSame(cache.stats(), ref.stats(), tag);
}

} // namespace

TEST(CacheDifferential, MatchesReferenceOnEveryPresetGeometry)
{
    std::uint64_t seed = 1;
    for (const Geometry &g : kGeometries) {
        for (bool write_evict : {true, false}) {
            runStream(g, write_evict, 16, write_evict ? 0 : 300, seed++);
            if (HasFailure())
                return;
        }
    }
}

TEST(CacheDifferential, MatchesReferenceWithEagerTrim)
{
    // Watermark 0 trims on every call, so trims interleave with merges
    // of entries that are still live at the access times.
    std::uint64_t seed = 100;
    for (const Geometry &g : {Geometry{1, 4}, Geometry{5, 3},
                              Geometry{64, 4}, Geometry{768, 16}}) {
        runStream(g, false, 0, 500, seed++);
        if (HasFailure())
            return;
    }
}

TEST(FastMod, MatchesRemainderOperator)
{
    std::vector<std::uint32_t> divisors = {
        // Set counts, L2 banks and DRAM banks of the presets.
        48, 64, 96, 192, 768, 1024, 2048, 3072, 6, 8, 16, 40, 256,
        // Edge divisors.
        1, 3, 5, 7, 0xFFFFFFFFu, 0xFFFFFFFEu};
    for (unsigned k = 0; k < 32; ++k)
        divisors.push_back(1u << k);
    Rng rng(7);
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t shift = 32 + rng.nextBounded(32);
        divisors.push_back(static_cast<std::uint32_t>(rng.next() >> shift));
    }
    for (std::uint32_t d : divisors) {
        if (d == 0)
            continue;
        const FastMod mod(d);
        const std::uint64_t edges[] = {0,         1,
                                       d - 1ull,  d,
                                       d + 1ull,  2ull * d - 1,
                                       0xFFFFFFFFull, 0x100000000ull,
                                       ~0ull,     ~0ull - d};
        for (std::uint64_t n : edges)
            ASSERT_EQ(mod(n), n % d) << n << " % " << d;
        // Numerators of every width, so both the 32-bit and the wide
        // path run.
        for (int j = 0; j < 2000; ++j) {
            const std::uint64_t n = rng.next() >> rng.nextBounded(64);
            ASSERT_EQ(mod(n), n % d) << n << " % " << d;
        }
    }
}
