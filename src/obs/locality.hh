/**
 * @file
 * Locality-attribution counters: classify every L1/L2 cache hit by the
 * TB relationship between the hitting TB and the previous toucher of
 * the line — the reuse classes the paper's Section III argues LaPerm
 * exploits (parent-child, child-sibling) versus plain self reuse.
 */

#ifndef LAPERM_OBS_LOCALITY_HH
#define LAPERM_OBS_LOCALITY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "sim/observer.hh"

namespace laperm {
namespace obs {

/** Reuse relationship between a hit and the line's previous toucher. */
enum class ReuseClass : std::uint8_t
{
    Self,    ///< the same TB touched the line before
    Parent,  ///< the accessor's direct parent touched it (parent-line reuse)
    Child,   ///< a direct child of the accessor touched it
    Sibling, ///< a TB sharing the accessor's direct parent touched it
    Other,   ///< any other TB (incl. unrelated host TBs)
};

constexpr std::uint32_t kNumReuseClasses = 5;

const char *toString(ReuseClass c);

/** Per-cache-level hit counters, one per ReuseClass. */
struct LocalityCounters
{
    std::uint64_t byClass[kNumReuseClasses] = {};

    std::uint64_t count(ReuseClass c) const
    {
        return byClass[static_cast<std::uint32_t>(c)];
    }

    /** Sum over all classes; equals the level's CacheStats::hits. */
    std::uint64_t total() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t v : byClass)
            t += v;
        return t;
    }
};

/**
 * The tracker the memory system feeds. Maintains a per-cache-instance
 * "last toucher" record per 128B line (independent of residency — the
 * relationship is between access streams, not tag state) and counts
 * each hit under the accessor/toucher relationship.
 *
 * Pure observation: it never influences timing, and when no tracker is
 * attached the memory system skips all of this. The maps are only ever
 * point-looked-up, never iterated, so bucket order cannot leak into
 * any output.
 *
 * Implements the MemObserver interface the memory system publishes
 * through (sim/observer.hh) — the engine never sees this class.
 */
class LocalityTracker : public MemObserver
{
  public:
    explicit LocalityTracker(std::uint32_t num_l1);

    /** Record an L1 access; counts a hit into its reuse class. */
    void onL1Access(std::uint32_t l1_index, Addr line, bool hit,
                    const MemAccessor &who) override;

    /** Record an L2 access; counts a hit into its reuse class. */
    void onL2Access(Addr line, bool hit, const MemAccessor &who) override;

    /** Aggregated over all L1 instances. */
    const LocalityCounters &l1() const { return l1_; }
    const LocalityCounters &l2() const { return l2_; }

    /**
     * Write "level class hits share" rows (TSV, deterministic order).
     * @return false if the file could not be opened or written.
     */
    bool writeTsv(const std::string &path) const;

  private:
    struct Toucher
    {
        TbUid uid = kNoTb;
        TbUid parent = kNoTb;
    };
    using LineMap = std::unordered_map<Addr, Toucher>;

    static ReuseClass classify(const Toucher &prev,
                               const MemAccessor &who);
    void account(LineMap &lines, LocalityCounters &counters, Addr line,
                 bool hit, const MemAccessor &who);

    std::vector<LineMap> l1Lines_;
    LineMap l2Lines_;
    LocalityCounters l1_;
    LocalityCounters l2_;
};

} // namespace obs
} // namespace laperm

#endif // LAPERM_OBS_LOCALITY_HH
