/**
 * @file
 * Deterministic, seedable pseudo-random number generator used by every
 * input-data generator so experiment runs are exactly reproducible.
 */

#ifndef LAPERM_COMMON_RNG_HH
#define LAPERM_COMMON_RNG_HH

#include <bit>
#include <cstdint>

namespace laperm {

class Zipf;

/**
 * xoshiro256** generator. Small, fast, and fully deterministic across
 * platforms (unlike std::mt19937 distributions, whose mapping to ranges
 * is implementation-defined via std::uniform_int_distribution).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded generation.
        const __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Standard normal via Box-Muller. */
    double nextGaussian();

    /**
     * Zipf-distributed integer in [0, n) with exponent @p s: the
     * inverse CDF of the bounded Pareto approximation of the Zipf law,
     * clamped into range. O(1); one nextDouble() per draw, none when
     * n <= 1. A caller drawing often from one law should hold a Zipf,
     * which computes the law's constants once.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s);

    /** A draw from @p law: the value nextZipf(n, s) would return. */
    std::uint64_t nextZipf(const Zipf &law);

  private:
    std::uint64_t s_[4];
    bool haveGauss_ = false;
    double gauss_ = 0.0;
};

/** The Zipf law over [0, n) with exponent s, for Rng::nextZipf. */
class Zipf
{
  public:
    Zipf(std::uint64_t n, double s);

  private:
    friend class Rng;

    std::uint64_t n_;
    bool unitExponent_; ///< s == 1
    /** s == 1: log(n); otherwise pow(n, 1 - s) - 1. */
    double scale_;
    /** s != 1: 1 / (1 - s). */
    double power_;
};

} // namespace laperm

#endif // LAPERM_COMMON_RNG_HH
