#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace laperm {

namespace {

/** 64-bit words per host cache line (the set-block alignment). */
constexpr std::size_t kHostLineWords = 8;

} // namespace

std::size_t
InflightTable::home(Addr line) const
{
    // Fibonacci hashing of the line number.
    return static_cast<std::size_t>(
        ((line / kLineBytes) * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::size_t
InflightTable::find(Addr line) const
{
    if (size_ == 0)
        return kMissing;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(line);; i = (i + 1) & mask) {
        if (slots_[i].line == line)
            return i;
        if (slots_[i].line == kEmpty)
            return kMissing;
    }
}

void
InflightTable::put(Addr line, Cycle ready)
{
    if ((size_ + 1) * 2 > slots_.size())
        grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(line);; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (s.line == line) {
            s.ready = ready;
            return;
        }
        if (s.line == kEmpty) {
            s = {line, ready};
            ++size_;
            return;
        }
    }
}

void
InflightTable::eraseAt(std::size_t ix)
{
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless that would move one before its home.
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = ix;
    for (std::size_t j = (ix + 1) & mask; slots_[j].line != kEmpty;
         j = (j + 1) & mask) {
        const std::size_t h = home(slots_[j].line);
        // Stay put when the home lies cyclically in (hole, j].
        const bool stays = hole <= j ? (hole < h && h <= j)
                                     : (hole < h || h <= j);
        if (!stays) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole].line = kEmpty;
    --size_;
}

void
InflightTable::eraseCompletedBy(Cycle cycle)
{
    // A deletion only pulls entries back into the current slot (checked
    // again) or from slots not yet visited, so one pass sees them all.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        while (slots_[i].line != kEmpty && slots_[i].ready <= cycle)
            eraseAt(i);
    }
}

void
InflightTable::grow()
{
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : 2 * old.size();
    slots_.assign(cap, Slot{kEmpty, 0});
    shift_ = 64u - static_cast<unsigned>(std::countr_zero(cap));
    size_ = 0;
    for (const Slot &s : old) {
        if (s.line != kEmpty)
            put(s.line, s.ready);
    }
}

void
InflightTable::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{kEmpty, 0});
    size_ = 0;
}

Cache::Cache(const CacheParams &params)
    : params_(params),
      numSets_(params.size / (params.assoc * kLineBytes)),
      setMod_(std::max<std::uint32_t>(numSets_, 1)),
      // Tags, fills and LRU stamps (a word each per way), then one
      // dirty byte per way, rounded up to whole host lines.
      setWords_((3 * std::size_t{params.assoc} + (params.assoc + 7) / 8 +
                 kHostLineWords - 1) /
                kHostLineWords * kHostLineWords)
{
    laperm_assert(numSets_ > 0, "cache %s too small", params_.name.c_str());
    laperm_assert(params_.size % (params_.assoc * kLineBytes) == 0,
                  "cache %s: size not divisible by assoc*line",
                  params_.name.c_str());
    words_.resize(numSets_ * setWords_ + kHostLineWords - 1);
    const std::uintptr_t addr =
        reinterpret_cast<std::uintptr_t>(words_.data());
    base_ = ((64 - addr % 64) % 64) / sizeof(std::uint64_t);
    reset();
}

CacheAccessResult
Cache::loadMiss(Addr line, Cycle now)
{
    CacheAccessResult res;
    // Not in the tag array: check for a fill that outlived its line
    // (victim of an intervening allocation).
    const std::size_t ix = mshr_.find(line);
    if (ix != InflightTable::kMissing) {
        if (mshr_.readyAt(ix) <= now) {
            mshr_.eraseAt(ix);
        } else {
            ++stats_.misses;
            ++stats_.mshrMerges;
            res.mshrMerge = true;
            res.fillReady = mshr_.readyAt(ix);
            return res;
        }
    }
    ++stats_.misses;
    return res;
}

CacheAccessResult
Cache::lookupStore(Addr line, Cycle now)
{
    CacheAccessResult res;
    std::uint64_t *set = setBlock(line);
    const int found = findWay(set, line);
    const std::uint32_t assoc = params_.assoc;
    const std::uint32_t w = found >= 0 ? static_cast<std::uint32_t>(found)
                                       : 0;
    if (params_.writeEvict) {
        // Kepler-style L1: write-through, no allocate; a hitting line is
        // evicted so later loads observe the new data from L2. Stores do
        // not participate in the L1 hit-rate statistics. The empty way
        // gets stamp 0, which makes it the next victim, as the first
        // empty way always is.
        if (found >= 0) {
            set[w] = kNoLine;
            set[2 * assoc + w] = 0;
            dirtyBytes(set)[w] = 0;
            ++stats_.storeEvicts;
        }
        return res;
    }
    // Write-back, write-allocate (L2).
    ++stats_.accesses;
    if (found >= 0) {
        set[2 * assoc + w] = ++lruClock_;
        dirtyBytes(set)[w] = 1;
        const Cycle fill = set[assoc + w];
        if (fill <= now) {
            ++stats_.hits;
            res.hit = true;
        } else {
            ++stats_.misses;
            ++stats_.mshrMerges;
            res.mshrMerge = true;
            res.fillReady = fill;
        }
        return res;
    }
    ++stats_.misses;
    return res;
}

bool
Cache::allocate(Addr line, Cycle fill_ready, Cycle now, bool dirty)
{
    std::uint64_t *set = setBlock(line);
    const std::uint32_t assoc = params_.assoc;
    // The victim is the least recently used way. Empty ways carry stamp
    // 0 and live ones distinct stamps >= 1, so the first minimum is the
    // first empty way if there is one, and the search may stop there.
    const std::uint64_t *lru = set + 2 * assoc;
    std::uint32_t v = 0;
    for (std::uint32_t w = 0; w < assoc && lru[v] != 0; ++w) {
        if (lru[w] < lru[v])
            v = w;
    }
    std::uint8_t *dirty_bytes = dirtyBytes(set);
    bool victim_dirty = false;
    if (set[v] != kNoLine) {
        ++stats_.evictions;
        if (dirty_bytes[v]) {
            victim_dirty = true;
            ++stats_.writebacks;
        }
        // Preserve an in-flight fill for MSHR merging after eviction.
        if (set[assoc + v] > now) {
            mshr_.put(set[v], set[assoc + v]);
            ++mshrInserts_;
        }
    }
    set[v] = line;
    set[assoc + v] = fill_ready;
    set[2 * assoc + v] = ++lruClock_;
    dirty_bytes[v] = dirty ? 1 : 0;
    return victim_dirty;
}

void
Cache::trimExpiredMshr(Cycle safe_now)
{
    // An entry with fillReady <= safe_now can never merge again: every
    // later lookup carries now >= safe_now and would erase-and-miss.
    // Access-time `now` is NOT a valid bound here — L2 sees timestamps
    // out of order, so an entry dead at one access can still satisfy a
    // merge for a logically earlier one.
    if (mshr_.size() < params_.mshrTrimWatermark)
        return;
    mshr_.eraseCompletedBy(safe_now);
}

bool
Cache::contains(Addr line) const
{
    return findWay(setBlock(line), line) >= 0;
}

void
Cache::reset()
{
    // Emptying a way takes its tag and its LRU stamp; an empty way's
    // fill and dirty fields are never read before allocate() sets them.
    const std::uint32_t assoc = params_.assoc;
    for (std::uint32_t s = 0; s < numSets_; ++s) {
        std::uint64_t *set = words_.data() + base_ + s * setWords_;
        std::fill(set, set + assoc, kNoLine);
        std::fill(set + 2 * assoc, set + 3 * assoc, 0);
    }
    mshr_.clear();
    lruClock_ = 0;
    stats_ = CacheStats{};
}

} // namespace laperm
