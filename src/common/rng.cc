#include "common/rng.hh"

#include <cmath>

namespace laperm {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &w : s_)
        w = splitmix64(sm);
}

double
Rng::nextGaussian()
{
    if (haveGauss_) {
        haveGauss_ = false;
        return gauss_;
    }
    double u1 = nextDouble();
    double u2 = nextDouble();
    while (u1 <= 1e-300)
        u1 = nextDouble();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    gauss_ = r * std::sin(theta);
    haveGauss_ = true;
    return r * std::cos(theta);
}

Zipf::Zipf(std::uint64_t n, double s)
    : n_(n), unitExponent_(s == 1.0),
      scale_(unitExponent_
                 ? std::log(static_cast<double>(n))
                 : std::pow(static_cast<double>(n), 1.0 - s) - 1.0),
      power_(unitExponent_ ? 1.0 : 1.0 / (1.0 - s))
{
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    return nextZipf(Zipf(n, s));
}

std::uint64_t
Rng::nextZipf(const Zipf &law)
{
    // Inverse-CDF on the bounded Pareto approximation of the Zipf law,
    // then clamp into range. Accurate enough for workload skew modeling.
    if (law.n_ <= 1)
        return 0;
    const double u = nextDouble();
    const double v = law.unitExponent_
                         ? std::exp(u * law.scale_)
                         : std::pow(u * law.scale_ + 1.0, law.power_);
    std::uint64_t k = static_cast<std::uint64_t>(v) - (v >= 1.0 ? 1 : 0);
    return k >= law.n_ ? law.n_ - 1 : k;
}

} // namespace laperm
