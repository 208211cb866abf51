#include "rng.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <random>

#include "error.h"

namespace sosim::util {

namespace {

constexpr std::size_t kMt64Middle = 156;
constexpr std::uint64_t kMt64Matrix = 0xb502'6f5a'a966'19e9ULL;

/**
 * One step of the twist recurrence: the top 33 bits of a joined to the
 * low 31 bits of b, folded into the word `far` (kMt64Middle ahead).
 */
std::uint64_t
twistWord(std::uint64_t a, std::uint64_t b, std::uint64_t far)
{
    const std::uint64_t y =
        (a & 0xffff'ffff'8000'0000ULL) | (b & 0x7fff'ffffULL);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMt64Matrix);
}

} // namespace

double
unitDouble(std::uint64_t word)
{
    // The compiler's unsigned conversion without its branch on the top
    // bit: for word >= 2^63 convert (word >> 1) | (word & 1) as signed
    // (the low bit kept sticky, so the rounding is unchanged) and
    // double it; below 2^63 convert word itself.
    const std::uint64_t top = word >> 63;
    const auto halved =
        static_cast<std::int64_t>((word >> top) | (word & top));
    const double d =
        static_cast<double>(halved) * static_cast<double>(1 + top);
    return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
}

Mt64::Mt64(result_type seed)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
        const result_type prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
}

void
Mt64::twist()
{
    constexpr std::size_t m = kMt64Middle;
    for (std::size_t k = 0; k < kN - m; ++k)
        state_[k] = twistWord(state_[k], state_[k + 1], state_[k + m]);
    for (std::size_t k = kN - m; k < kN - 1; ++k)
        state_[k] =
            twistWord(state_[k], state_[k + 1], state_[k + m - kN]);
    state_[kN - 1] = twistWord(state_[kN - 1], state_[0], state_[m - 1]);
    index_ = 0;
}

void
Mt64::fill(result_type *out, std::size_t n)
{
    while (n > 0) {
        if (index_ == kN)
            twist();
        const std::size_t run = std::min(n, kN - index_);
        for (std::size_t j = 0; j < run; ++j)
            out[j] = temper(state_[index_ + j]);
        index_ += run;
        out += run;
        n -= run;
    }
}

Rng::Rng(std::uint64_t seed) : engine_(seed) {}

double
Rng::uniform(double lo, double hi)
{
    // std::uniform_real_distribution's arithmetic.
    return unitDouble(engine_()) * (hi - lo) + lo;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    SOSIM_REQUIRE(lo <= hi, "uniformInt: lo must be <= hi");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    double out = 0.0;
    fillNormal(&out, 1, stddev, mean);
    return out;
}

void
Rng::fillNormal(double *out, std::size_t n, double stddev, double mean)
{
    // libstdc++'s normal_distribution, one fresh distribution per
    // deviate (the second deviate of each accepted pair is dropped):
    // attempts (x, y) until 0 < x^2 + y^2 <= 1, then y * mult.  Attempt
    // a of a block owns words 2a and 2a+1; accepted attempts are
    // compacted in order, so the k-th accepted one is the k-th deviate.
    constexpr std::size_t kBlock = 128;
    std::array<std::uint64_t, 2 * kBlock> words{};
    std::array<double, kBlock> ys{};
    std::array<double, kBlock> r2s{};
    while (n > 0) {
        const std::size_t attempts = std::min(n, kBlock);
        engine_.fill(words.data(), 2 * attempts);
        std::size_t accepted = 0;
        for (std::size_t a = 0; a < attempts; ++a) {
            const double x = 2.0 * unitDouble(words[2 * a]) - 1.0;
            const double y = 2.0 * unitDouble(words[2 * a + 1]) - 1.0;
            const double r2 = x * x + y * y;
            ys[accepted] = y;
            r2s[accepted] = r2;
            accepted += (r2 <= 1.0) & (r2 != 0.0);
        }
        for (std::size_t k = 0; k < accepted; ++k) {
            const double mult = std::sqrt(-2.0 * std::log(r2s[k]) / r2s[k]);
            out[k] = ys[k] * mult * stddev + mean;
        }
        out += accepted;
        n -= accepted;
    }
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::size_t
Rng::zipf(std::size_t n, double s)
{
    ZipfSampler sampler(n, s);
    return sampler.sample(*this);
}

Rng
Rng::fork()
{
    // Draw two words so sibling forks are decorrelated even when the
    // parent engine state advances by a single step between forks.
    const std::uint64_t a = engine_();
    const std::uint64_t b = engine_();
    return Rng(a ^ (b << 1) ^ 0x9e37'79b9'7f4a'7c15ULL);
}

ZipfSampler::ZipfSampler(std::size_t n, double s)
{
    SOSIM_REQUIRE(n >= 1, "ZipfSampler: need at least one rank");
    SOSIM_REQUIRE(s >= 0.0, "ZipfSampler: exponent must be non-negative");
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = total;
    }
    for (auto &c : cdf_)
        c /= total;
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.uniform();
    // First rank whose cumulative mass covers u.
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

double
ZipfSampler::pmf(std::size_t rank) const
{
    SOSIM_REQUIRE(rank < cdf_.size(), "ZipfSampler::pmf: rank out of range");
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

} // namespace sosim::util
