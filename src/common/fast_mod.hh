/**
 * @file
 * Exact remainder by a run-time divisor without a divide instruction.
 */

#ifndef LAPERM_COMMON_FAST_MOD_HH
#define LAPERM_COMMON_FAST_MOD_HH

#include <cstdint>

namespace laperm {

/**
 * n % d for a divisor 1 <= d < 2^32 fixed at construction, by the
 * direct multiply-shift of Lemire, Kaser & Kurz ("Faster remainder by
 * direct computation", 2019). For n < 2^32, with M = ceil(2^64 / d),
 * n % d is the high 64 bits of (M * n mod 2^64) * d: two multiplies.
 * Larger n use the same identity at twice the width, with
 * M' = ceil(2^128 / d). Both are exact. A power of two (1 included)
 * is a mask instead; d == 0, which a config check rejects later,
 * gives 0 instead of a trap.
 */
class FastMod
{
  public:
    explicit FastMod(std::uint32_t d = 1)
        : d_(d), pow2_(d != 0 && (d & (d - 1)) == 0),
          m64_(d == 0 ? 0 : ~std::uint64_t(0) / d + 1),
          m128_(d == 0 ? 0 : ~U128(0) / d + 1)
    {
    }

    std::uint64_t operator()(std::uint64_t n) const
    {
        if (pow2_)
            return n & (d_ - 1);
        if (n >> 32 == 0) [[likely]]
            return static_cast<std::uint64_t>((U128(m64_ * n) * d_) >> 64);
        const U128 low = m128_ * n;
        const U128 lo_d = U128(static_cast<std::uint64_t>(low)) * d_;
        const U128 hi_d = U128(static_cast<std::uint64_t>(low >> 64)) * d_;
        return static_cast<std::uint64_t>((hi_d + (lo_d >> 64)) >> 64);
    }

  private:
    using U128 = __uint128_t;

    std::uint32_t d_;
    bool pow2_;
    std::uint64_t m64_;
    U128 m128_;
};

} // namespace laperm

#endif // LAPERM_COMMON_FAST_MOD_HH
