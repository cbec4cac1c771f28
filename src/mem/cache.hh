/**
 * @file
 * Set-associative cache tag array with LRU replacement and MSHR-style
 * merging of outstanding misses. Timing is "ready-cycle" based: the
 * owner computes completion cycles analytically, the cache tracks tag
 * state and pending fills.
 */

#ifndef LAPERM_MEM_CACHE_HH
#define LAPERM_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fast_mod.hh"
#include "common/types.hh"
#include "sim/stats.hh"

namespace laperm {

/** Cache geometry and behaviour parameters. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t size = 32 * 1024;
    std::uint32_t assoc = 4;
    /**
     * Kepler L1 behaviour: stores do not allocate and evict a hitting
     * line (write-evict / write-through). When false the cache is
     * write-back write-allocate (L2 behaviour).
     */
    bool writeEvict = false;
    /**
     * MSHR entry count below which trimExpiredMshr() is a no-op; keeps
     * the amortized sweep from touching tiny, cheap tables.
     */
    std::uint32_t mshrTrimWatermark = 16;
};

/** Outcome of a tag lookup (16 bytes: returned in registers). */
struct CacheAccessResult
{
    Cycle fillReady = 0;     ///< when the line's data is available
    bool hit = false;        ///< line present and fill complete
    bool mshrMerge = false;  ///< missed, merged into an outstanding fill
    bool victimDirty = false; ///< an eviction produced a writeback
};

/**
 * Outstanding fills whose line left the tag array before the fill
 * completed: line -> completion cycle. A flat open-addressed table
 * (linear probing over a power-of-two slot array, backward-shift
 * deletion, so no tombstones), keyed by line. Only point operations
 * and an erase filter exist, so no result depends on slot order.
 */
class InflightTable
{
  public:
    /** find() result for a line with no entry. */
    static constexpr std::size_t kMissing = ~std::size_t(0);

    std::size_t size() const { return size_; }

    /** Slot of @p line's entry, or kMissing. */
    std::size_t find(Addr line) const;

    /** Completion cycle held in slot @p ix (a find() result). */
    Cycle readyAt(std::size_t ix) const { return slots_[ix].ready; }

    /** Record (or overwrite) @p line's completion cycle. */
    void put(Addr line, Cycle ready);

    /** Drop the entry in slot @p ix (a find() result). */
    void eraseAt(std::size_t ix);

    /** Drop every entry completing at or before @p cycle. */
    void eraseCompletedBy(Cycle cycle);

    void clear();

  private:
    struct Slot
    {
        Addr line;
        Cycle ready;
    };

    static constexpr Addr kEmpty = ~Addr(0);

    std::size_t home(Addr line) const;
    void grow();

    std::vector<Slot> slots_; ///< empty, or a power of two
    std::size_t size_ = 0;
    unsigned shift_ = 64;     ///< 64 - log2(slots_.size())
};

/**
 * Tag array + MSHR. The cache does not know about latencies; callers
 * pass the fill-completion cycle for misses and receive the merged
 * ready cycle for MSHR hits.
 *
 * Each set is one contiguous block of 64-bit words: its line tags (an
 * empty way holds kNoLine), then their fill-ready cycles, then their
 * LRU stamps (0 for an empty way), then one dirty byte per way, padded
 * to whole host cache lines. A lookup scans the tags, and a hit then
 * reads one fill word and writes one stamp beside them.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up a load to @p line at @p now.
     *
     * On a miss, the caller must subsequently call allocate() with the
     * fill-ready cycle obtained from the next level. On an MSHR merge
     * the returned fillReady is the pending fill's completion.
     */
    CacheAccessResult lookupLoad(Addr line, Cycle now);

    /**
     * Handle a store to @p line at @p now.
     *
     * writeEvict caches invalidate a hitting line and never allocate.
     * write-back caches mark the line dirty, allocating on miss (the
     * caller provides fill timing via allocate()).
     */
    CacheAccessResult lookupStore(Addr line, Cycle now);

    /**
     * Install @p line with fill completing at @p fill_ready; evicts the
     * LRU way. @p dirty marks the installed line dirty (store allocate).
     * @return true if the victim was dirty (writeback needed).
     */
    bool allocate(Addr line, Cycle fill_ready, Cycle now, bool dirty);

    /** Whether @p line is currently present (test helper). */
    bool contains(Addr line) const;

    /**
     * Eagerly drop outstanding-fill records that no future access can
     * merge with. @p safe_now must lower-bound every timestamp later
     * lookups will carry (the device clock qualifies; the current
     * access time does NOT — L2 timestamps arrive out of order), so
     * trimming is invisible to the timing model.
     */
    void trimExpiredMshr(Cycle safe_now);

    /** Reset tags, MSHRs and statistics. */
    void reset();

    const CacheStats &stats() const { return stats_; }
    const CacheParams &params() const { return params_; }
    std::uint32_t numSets() const { return numSets_; }

    /**
     * In-flight fills recorded in the MSHR table at eviction (host
     * work, not a simulated statistic; reset() keeps it).
     */
    std::uint64_t mshrInserts() const { return mshrInserts_; }

  private:
    /** Tag of an empty way: never a line (lines are 128B-aligned). */
    static constexpr Addr kNoLine = ~Addr(0);

    /** First word of @p line's set block (tags; see the class note). */
    std::uint64_t *setBlock(Addr line)
    {
        return words_.data() + base_ +
               setMod_(line / kLineBytes) * setWords_;
    }
    const std::uint64_t *setBlock(Addr line) const
    {
        return words_.data() + base_ +
               setMod_(line / kLineBytes) * setWords_;
    }
    /** Way holding @p line in @p set, or -1. */
    int findWay(const std::uint64_t *set, Addr line) const
    {
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (set[w] == line)
                return static_cast<int>(w);
        }
        return -1;
    }
    /** lookupLoad() of a line the tag array does not hold. */
    CacheAccessResult loadMiss(Addr line, Cycle now);
    std::uint8_t *dirtyBytes(std::uint64_t *set) const
    {
        return reinterpret_cast<std::uint8_t *>(set + 3 * params_.assoc);
    }

    CacheParams params_;
    std::uint32_t numSets_;
    FastMod setMod_;
    std::size_t setWords_; ///< block stride, whole host lines
    std::vector<std::uint64_t> words_;
    std::size_t base_ = 0; ///< first 64-byte-aligned word of words_
    std::uint64_t lruClock_ = 0;
    /**
     * Fills evicted from the tag array before completing. Trimmed
     * eagerly by the owner via trimExpiredMshr() so long runs don't
     * accumulate dead entries that every miss then probes through.
     */
    InflightTable mshr_;
    std::uint64_t mshrInserts_ = 0;
    CacheStats stats_;
};

// Inline: every SMX load starts here, and most end here.
inline CacheAccessResult
Cache::lookupLoad(Addr line, Cycle now)
{
    ++stats_.accesses;
    std::uint64_t *set = setBlock(line);
    const int found = findWay(set, line);
    if (found < 0)
        return loadMiss(line, now);
    const std::uint32_t w = static_cast<std::uint32_t>(found);
    const std::uint32_t assoc = params_.assoc;
    set[2 * assoc + w] = ++lruClock_;
    CacheAccessResult res;
    const Cycle fill = set[assoc + w];
    if (fill <= now) {
        ++stats_.hits;
        res.hit = true;
    } else {
        // The line is being filled by an earlier miss: merge.
        ++stats_.misses;
        ++stats_.mshrMerges;
        res.mshrMerge = true;
        res.fillReady = fill;
    }
    return res;
}

} // namespace laperm

#endif // LAPERM_MEM_CACHE_HH
