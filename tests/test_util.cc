/**
 * @file
 * Unit tests for util: Rng determinism and distributions, ZipfSampler,
 * Table formatting, the error macros and checked integer parsing.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using sosim::util::FatalError;
using sosim::util::LogicError;
using sosim::util::Mt64;
using sosim::util::Rng;
using sosim::util::Table;
using sosim::util::ZipfSampler;

TEST(Error, RequireThrowsFatalWithMessage)
{
    try {
        SOSIM_REQUIRE(false, "bad user input");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad user input"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("fatal"), std::string::npos);
    }
}

TEST(Error, AssertThrowsLogicError)
{
    EXPECT_THROW(SOSIM_ASSERT(false, "invariant"), LogicError);
    EXPECT_NO_THROW(SOSIM_ASSERT(true, "invariant"));
    EXPECT_NO_THROW(SOSIM_REQUIRE(true, "ok"));
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform() == b.uniform())
            ++equal;
    EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= (v == 0);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.uniformInt(3, 1), FatalError);
}

TEST(Rng, NormalHasRequestedMoments)
{
    Rng rng(11);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(5.0, 2.0);
        sum += x;
        sum2 += x * x;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(3);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_TRUE(rng.chance(2.0));
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng(9);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = v;
    rng.shuffle(shuffled);
    auto sorted = shuffled;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, v);
}

TEST(Rng, ForkProducesIndependentStreams)
{
    Rng parent(42);
    Rng child1 = parent.fork();
    Rng child2 = parent.fork();
    // Children differ from each other.
    int equal = 0;
    for (int i = 0; i < 50; ++i)
        if (child1.uniform() == child2.uniform())
            ++equal;
    EXPECT_LT(equal, 3);
    // Forking is deterministic in the parent seed.
    Rng parent2(42);
    Rng child1b = parent2.fork();
    Rng child1a(0); // placeholder to silence unused warnings
    (void)child1a;
    Rng reference = Rng(42).fork();
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(child1b.uniform(), reference.uniform());
}

// ---------------------------------------------------------------------
// Bit identity with the standard library.  Rng's engine and its normal
// deviate are in-tree; these pin them to std::mt19937_64 and to
// libstdc++'s distributions, so every generated trace stays the same.

const std::uint64_t kOracleSeeds[] = {
    0, 1, 2018, std::numeric_limits<std::uint64_t>::max()};

/** Bitwise double equality (tells -0.0 from +0.0). */
::testing::AssertionResult
sameBits(double got, double want)
{
    if (std::bit_cast<std::uint64_t>(got) ==
        std::bit_cast<std::uint64_t>(want))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::hexfloat << got << " != " << want;
}

/** The deviate Rng::normal produced when it wrapped the std types. */
double
oracleNormal(std::mt19937_64 &engine, double mean, double stddev)
{
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine);
}

double
oracleUniform(std::mt19937_64 &engine, double lo = 0.0, double hi = 1.0)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine);
}

std::int64_t
oracleUniformInt(std::mt19937_64 &engine, std::int64_t lo, std::int64_t hi)
{
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine);
}

TEST(Rng, Mt64MatchesStdEngineForEverySeed)
{
    for (const auto seed : kOracleSeeds) {
        SCOPED_TRACE(seed);
        Mt64 ours(seed);
        std::mt19937_64 oracle(seed);
        // More than three twists of the 312-word state.
        for (int i = 0; i < 4 * 312 + 7; ++i)
            ASSERT_EQ(ours(), oracle()) << "word " << i;
    }
    static_assert(Mt64::min() == std::mt19937_64::min());
    static_assert(Mt64::max() == std::mt19937_64::max());
}

TEST(Rng, Mt64FillEqualsSequentialWords)
{
    Mt64 ours(2018);
    std::mt19937_64 oracle(2018);
    std::vector<std::uint64_t> block;
    // Runs that start, end and straddle twist boundaries.
    for (const std::size_t n : {0, 1, 311, 312, 313, 1000, 5}) {
        block.assign(n, 0);
        ours.fill(block.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(block[i], oracle()) << "n=" << n << " i=" << i;
        ASSERT_EQ(ours(), oracle()) << "after n=" << n;
    }
}

TEST(Rng, ForkMatchesStdEngineDerivation)
{
    for (const auto seed : kOracleSeeds) {
        SCOPED_TRACE(seed);
        Rng parent(seed);
        std::mt19937_64 oracle(seed);
        for (int generation = 0; generation < 3; ++generation) {
            Rng child = parent.fork();
            const std::uint64_t a = oracle();
            const std::uint64_t b = oracle();
            std::mt19937_64 child_oracle(a ^ (b << 1) ^
                                         0x9e37'79b9'7f4a'7c15ULL);
            for (int i = 0; i < 3 * 312 + 1; ++i)
                ASSERT_EQ(child.engine()(), child_oracle());
        }
        // The parent continues exactly where the oracle does.
        for (int i = 0; i < 10; ++i)
            ASSERT_EQ(parent.engine()(), oracle());
    }
}

TEST(Rng, UnitDoubleMatchesGenerateCanonical)
{
    // A one-word engine, so generate_canonical converts exactly `word`.
    struct OneWord {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type{0}; }
        result_type word;
        result_type operator()() { return word; }
    };
    constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
    std::vector<std::uint64_t> words = {
        0,
        1,
        (std::uint64_t{1} << 53) - 1,
        (std::uint64_t{1} << 53) + 1,
        (std::uint64_t{1} << 54) + 1,
        (std::uint64_t{1} << 54) + 3,
        (std::uint64_t{1} << 55) + 0x4,
        (std::uint64_t{1} << 55) + 0x5,
        kTop - 1,
        kTop,
        kTop + 1,
        kTop + 0x400,  // exactly half an ulp above 2^63: ties to even
        kTop + 0x401,  // just above the tie
        kTop + 0xc00,  // tie, rounds up to even
        ~std::uint64_t{0} - 0x400,  // just below the tie: rounds down
        ~std::uint64_t{0} - 0x3ff,  // tie, rounds to 2^64: clamped
        ~std::uint64_t{0},          // rounds to 2^64: clamped
    };
    std::mt19937_64 fill(7);
    for (int i = 0; i < 100000; ++i)
        words.push_back(fill());
    for (const auto word : words) {
        OneWord engine{word};
        const double want =
            std::generate_canonical<double, 53>(engine);
        ASSERT_TRUE(sameBits(sosim::util::unitDouble(word), want))
            << "word 0x" << std::hex << word;
        ASSERT_LT(sosim::util::unitDouble(word), 1.0);
    }
}

TEST(Rng, FillNormalEqualsSequentialStdNormals)
{
    for (const auto seed : kOracleSeeds) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        std::vector<double> block;
        for (const std::size_t n : {0, 1, 2, 2016, 5000, 1, 0, 2016}) {
            block.assign(n, 0.0);
            rng.fillNormal(block.data(), n, 3.5);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_TRUE(
                    sameBits(block[i], oracleNormal(oracle, 0.0, 3.5)))
                    << "n=" << n << " i=" << i;
            // Other draws between blocks: the engine must be exactly
            // where the sequential calls would have left it.
            ASSERT_EQ(rng.chance(0.3), oracleUniform(oracle) < 0.3);
            ASSERT_EQ(rng.uniformInt(0, 287),
                      oracleUniformInt(oracle, 0, 287));
        }
    }
}

TEST(Rng, NormalMatchesStdNormalDistribution)
{
    Rng rng(2018);
    std::mt19937_64 oracle(2018);
    const double params[][2] = {
        {0.0, 1.0}, {5.0, 2.0}, {-3.25, 0.02}, {0.0, 0.0}, {1e6, 40.0}};
    for (int i = 0; i < 20000; ++i) {
        const auto &p = params[i % 5];
        ASSERT_TRUE(sameBits(rng.normal(p[0], p[1]),
                             oracleNormal(oracle, p[0], p[1])))
            << "draw " << i;
    }
    // The mean applies in fillNormal too.
    std::vector<double> block(100);
    rng.fillNormal(block.data(), block.size(), 2.0, 5.0);
    for (const double v : block)
        ASSERT_TRUE(sameBits(v, oracleNormal(oracle, 5.0, 2.0)));
}

TEST(Rng, UniformUniformIntAndShuffleMatchStdDistributions)
{
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    const std::int64_t ranges[][2] = {{0, 0},
                                      {0, 1},
                                      {0, 287},
                                      {-5, 5},
                                      {0, 6'000'000'000},
                                      {kMin, kMax},
                                      {kMin / 2, kMax / 2 + 12345}};
    for (const auto seed : kOracleSeeds) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < 5000; ++i) {
            ASSERT_TRUE(sameBits(rng.uniform(), oracleUniform(oracle)));
            ASSERT_TRUE(sameBits(rng.uniform(-2.5, 7.0),
                                 oracleUniform(oracle, -2.5, 7.0)));
            const auto &r = ranges[i % 7];
            ASSERT_EQ(rng.uniformInt(r[0], r[1]),
                      oracleUniformInt(oracle, r[0], r[1]));
        }
        std::vector<int> ours(1000), theirs(1000);
        for (int i = 0; i < 1000; ++i)
            ours[i] = theirs[i] = i;
        rng.shuffle(ours);
        for (std::size_t i = theirs.size(); i > 1; --i) {
            const auto j = static_cast<std::size_t>(
                oracleUniformInt(oracle, 0, (std::int64_t)i - 1));
            std::swap(theirs[i - 1], theirs[j]);
        }
        ASSERT_EQ(ours, theirs);
        ASSERT_EQ(rng.engine()(), oracle());
    }
}

TEST(Zipf, RejectsBadParameters)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), FatalError);
    EXPECT_THROW(ZipfSampler(5, -0.5), FatalError);
}

TEST(Zipf, ZeroExponentIsUniform)
{
    ZipfSampler z(4, 0.0);
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_NEAR(z.pmf(r), 0.25, 1e-12);
}

TEST(Zipf, PmfDecreasesWithRank)
{
    ZipfSampler z(10, 1.2);
    for (std::size_t r = 1; r < 10; ++r)
        EXPECT_GT(z.pmf(r - 1), z.pmf(r));
    EXPECT_THROW(z.pmf(10), FatalError);
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler z(17, 0.8);
    double total = 0.0;
    for (std::size_t r = 0; r < 17; ++r)
        total += z.pmf(r);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, SamplingMatchesPmf)
{
    ZipfSampler z(5, 1.0);
    Rng rng(13);
    std::vector<int> counts(5, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_NEAR(static_cast<double>(counts[r]) / n, z.pmf(r), 0.01);
}

TEST(Zipf, RngConvenienceWrapperInRange)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(rng.zipf(7, 1.1), 7u);
}

TEST(Table, PrintsAlignedColumns)
{
    Table t({"a", "long-header"});
    t.addRow({"x", "1"});
    t.addRow({"yyyy", "2"});
    std::ostringstream os;
    t.print(os);
    const auto out = os.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("yyyy"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CsvOutputIsCommaSeparated)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsArityMismatchAndEmptyHeader)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
    EXPECT_THROW(Table(std::vector<std::string>{}), FatalError);
}

TEST(Format, FixedAndPercent)
{
    EXPECT_EQ(sosim::util::fmtFixed(3.14159, 2), "3.14");
    EXPECT_EQ(sosim::util::fmtFixed(2.0, 0), "2");
    EXPECT_EQ(sosim::util::fmtPercent(0.131), "13.1%");
    EXPECT_EQ(sosim::util::fmtPercent(-0.05, 0), "-5%");
}

TEST(ParseInteger, AcceptsWholeTokensInRange)
{
    using sosim::util::parseInteger;
    EXPECT_EQ(parseInteger<int>("0"), 0);
    EXPECT_EQ(parseInteger<int>("-7"), -7);
    EXPECT_EQ(parseInteger<int>("2147483647"), 2147483647);
    EXPECT_EQ(parseInteger<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    // Decimal stays decimal: a leading zero is not an octal prefix.
    EXPECT_EQ(parseInteger<int>("010"), 10);
    EXPECT_EQ(parseInteger<std::uint64_t>("0x1f", true), 31u);
    EXPECT_EQ(parseInteger<std::uint64_t>("0XFF", true), 255u);
}

TEST(ParseInteger, RejectsPrefixesSignsAndOverflow)
{
    using sosim::util::parseInteger;
    for (const char *bad : {"", "abc", "3abc", "12x", " 1", "1 ", "+1",
                            "1.5", "2147483648", "-2147483649"})
        EXPECT_FALSE(parseInteger<int>(bad).has_value()) << bad;
    for (const char *bad : {"-1", "18446744073709551616", "0x10"})
        EXPECT_FALSE(parseInteger<std::uint64_t>(bad).has_value()) << bad;
    for (const char *bad : {"0x", "0xzz", "0x1g", "0x-1", "x1"})
        EXPECT_FALSE(parseInteger<std::uint64_t>(bad, true).has_value())
            << bad;
}

} // namespace
