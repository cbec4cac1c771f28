/**
 * @file
 * Near-term SMX wakeups for the event-driven core (DESIGN.md §11.3).
 */

#ifndef LAPERM_GPU_WAKE_WHEEL_HH
#define LAPERM_GPU_WAKE_WHEEL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace laperm {

/**
 * SMX wakeups due less than kSpan cycles after the batch that arms
 * them: one SMX-id bitset per cycle, indexed by cycle mod kSpan, and a
 * bitmap of the cycles that hold any. Cycles are taken in increasing
 * order and every armed cycle is less than kSpan past the last one
 * taken, so the index is unambiguous. Taking a cycle yields its SMXs
 * in ascending id, the dense loop's tick order, with no sort and no
 * heap. Wakeups further out belong in the EventQueue.
 */
class WakeWheel
{
  public:
    static constexpr Cycle kSpan = 1024;

    explicit WakeWheel(std::uint32_t num_smx)
        : words_((num_smx + 63) / 64), bits_(kSpan * words_, 0)
    {
    }

    /** Arm SMX @p id for @p cycle (idempotent). */
    void set(SmxId id, Cycle cycle)
    {
        const std::size_t b = bucket(cycle);
        bits_[b * words_ + id / 64] |= std::uint64_t(1) << (id % 64);
        busy_[b / 64] |= std::uint64_t(1) << (b % 64);
        nextAt_ = std::min(nextAt_, cycle);
    }

    bool empty() const { return nextAt_ == kNoCycle; }

    /** The earliest armed cycle; kNoCycle if none. */
    Cycle next() const { return nextAt_; }

    /**
     * Append @p cycle's SMXs to @p out, ascending, and disarm them.
     * No SMX may be armed for an earlier cycle.
     */
    void take(Cycle cycle, std::vector<SmxId> &out)
    {
        if (cycle != nextAt_)
            return;
        const std::size_t b = bucket(cycle);
        busy_[b / 64] &= ~(std::uint64_t(1) << (b % 64));
        std::uint64_t *words = &bits_[b * words_];
        for (std::uint32_t i = 0; i < words_; ++i) {
            for (std::uint64_t m = words[i]; m != 0; m &= m - 1)
                out.push_back(i * 64 +
                              static_cast<SmxId>(std::countr_zero(m)));
            words[i] = 0;
        }
        nextAt_ = scan(cycle + 1);
    }

    /** Disarm everything. */
    void clear()
    {
        std::fill(bits_.begin(), bits_.end(), 0);
        busy_.fill(0);
        nextAt_ = kNoCycle;
    }

  private:
    static constexpr std::size_t kBusyWords = kSpan / 64;

    static std::size_t bucket(Cycle cycle)
    {
        return static_cast<std::size_t>(cycle & (kSpan - 1));
    }

    /**
     * The earliest armed cycle, given that every armed cycle is at
     * least @p from (and so less than from + kSpan); kNoCycle if none.
     */
    Cycle scan(Cycle from) const
    {
        const std::size_t start = bucket(from);
        std::size_t w = start / 64;
        std::uint64_t word = busy_[w] & (~std::uint64_t(0) << (start % 64));
        // One word past a full turn re-reads the first word's low bits.
        for (std::size_t k = 0; k <= kBusyWords; ++k) {
            if (word != 0) {
                const std::size_t b =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(word));
                return from + ((b - start) & (kSpan - 1));
            }
            w = (w + 1) % kBusyWords;
            word = busy_[w];
        }
        return kNoCycle;
    }

    std::uint32_t words_; ///< 64-bit words per SMX-id bitset
    std::vector<std::uint64_t> bits_;
    std::array<std::uint64_t, kBusyWords> busy_{};
    Cycle nextAt_ = kNoCycle; ///< earliest armed cycle
};

} // namespace laperm

#endif // LAPERM_GPU_WAKE_WHEEL_HH
