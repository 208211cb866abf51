#ifndef SOSIM_UTIL_RNG_H
#define SOSIM_UTIL_RNG_H

/**
 * @file
 * Seeded random number generation for reproducible experiments.
 *
 * Every stochastic component in the simulator draws from an Rng instance
 * that is explicitly seeded, so a whole experiment is a pure function of
 * its seed.  The engine is an in-tree MT19937-64 (Mt64), word-identical
 * to std::mt19937_64, and the normal deviate is an in-tree polar method
 * with libstdc++'s arithmetic, so streams do not depend on the standard
 * library's distribution code (uniformInt still uses
 * std::uniform_int_distribution).  On top sit the distributions the
 * workload generator needs (Zipf popularity skew in particular).
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sosim::util {

/**
 * MT19937-64 (Matsumoto & Nishimura), producing the same words as
 * std::mt19937_64 for every seed.  The twist selects the matrix term
 * with a mask instead of libstdc++'s data-dependent branch on the low
 * bit, which mispredicts half the time.
 */
class Mt64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt64(result_type seed);

    /** Next tempered word. */
    result_type
    operator()()
    {
        if (index_ == kN)
            twist();
        return temper(state_[index_++]);
    }

    /** The next n words into out; equal to n calls of operator(). */
    void fill(result_type *out, std::size_t n);

  private:
    static constexpr std::size_t kN = 312;

    static result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555'5555'5555'5555ULL;
        z ^= (z << 17) & 0x71d6'7fff'eda6'0000ULL;
        z ^= (z << 37) & 0xfff7'eee0'0000'0000ULL;
        return z ^ (z >> 43);
    }

    void twist();

    std::array<result_type, kN> state_{};
    std::size_t index_ = kN;
};

/**
 * std::generate_canonical<double, 53> over one 64-bit word, bit for
 * bit: double(word) / 2^64 with round-to-nearest, and 1.0 clamped to the
 * largest double below it.  Branch-free, unlike the compiler's unsigned
 * conversion.
 */
double unitDouble(std::uint64_t word);

/** Deterministic, explicitly-seeded random source. */
class Rng
{
  public:
    /** Construct with an explicit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x5050'cafe'f00dULL);

    /** Uniform double in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean = 0.0, double stddev = 1.0);

    /**
     * n normal deviates into out; equal, value for value and in the
     * engine state it leaves, to n calls of normal(mean, stddev).
     *
     * Each deviate is one accepted attempt of the Marsaglia polar
     * method, and each attempt draws exactly two words, so the block
     * draws the still-missing count of attempts at a time (never more
     * than the sequential calls would) and evaluates them without a
     * branch per draw.
     */
    void fillNormal(double *out, std::size_t n, double stddev,
                    double mean = 0.0);

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /**
     * Zipf-distributed rank in [0, n), exponent s.
     *
     * Used to skew per-instance popularity (hot shards draw more power).
     * Implemented by inverse-CDF over the precomputable harmonic weights
     * for small n, which is exact.
     *
     * @param n Number of ranks.
     * @param s Skew exponent; 0 degenerates to uniform.
     * @return A rank, with rank 0 the most popular.
     */
    std::size_t zipf(std::size_t n, double s);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            const auto j =
                static_cast<std::size_t>(uniformInt(0, (std::int64_t)i - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for per-instance streams). */
    Rng fork();

    /** Access the underlying engine (for std distributions). */
    Mt64 &engine() { return engine_; }

  private:
    Mt64 engine_;
};

/**
 * Precomputed Zipf sampler for repeated draws with fixed (n, s).
 *
 * Rng::zipf recomputes the harmonic weights on every call; this class
 * computes the CDF once and binary-searches per draw.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of ranks (must be >= 1).
     * @param s Skew exponent (>= 0).
     */
    ZipfSampler(std::size_t n, double s);

    /** Draw a rank in [0, n) using the supplied generator. */
    std::size_t sample(Rng &rng) const;

    /** Probability mass of a given rank. */
    double pmf(std::size_t rank) const;

  private:
    std::vector<double> cdf_;
};

} // namespace sosim::util

#endif // SOSIM_UTIL_RNG_H
