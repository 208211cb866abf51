/**
 * @file
 * Unit tests for the cluster module: k-means (+ balanced variant), PCA,
 * and t-SNE.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "cluster/pca.h"
#include "cluster/tsne.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace sosim::cluster;
using sosim::util::FatalError;
using sosim::util::LogicError;

std::vector<Point>
twoBlobs(std::size_t per_blob, unsigned seed)
{
    sosim::util::Rng rng(seed);
    std::vector<Point> points;
    for (std::size_t i = 0; i < per_blob; ++i)
        points.push_back({rng.normal(0.0, 0.1), rng.normal(0.0, 0.1)});
    for (std::size_t i = 0; i < per_blob; ++i)
        points.push_back({rng.normal(5.0, 0.1), rng.normal(5.0, 0.1)});
    return points;
}

TEST(SquaredDistance, BasicsAndValidation)
{
    EXPECT_DOUBLE_EQ(squaredDistance({0.0, 0.0}, {3.0, 4.0}), 25.0);
    EXPECT_DOUBLE_EQ(squaredDistance({1.0}, {1.0}), 0.0);
    EXPECT_THROW(squaredDistance({1.0}, {1.0, 2.0}), FatalError);
}

TEST(KMeans, SeparatesTwoBlobs)
{
    const auto points = twoBlobs(20, 1);
    KMeansConfig config;
    config.k = 2;
    const auto result = kMeans(points, config);
    ASSERT_EQ(result.assignment.size(), points.size());
    // All first-blob points share one label, all second-blob the other.
    const auto label0 = result.assignment[0];
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_EQ(result.assignment[i], label0);
    const auto label1 = result.assignment[20];
    EXPECT_NE(label0, label1);
    for (std::size_t i = 20; i < 40; ++i)
        EXPECT_EQ(result.assignment[i], label1);
    EXPECT_GT(result.iterations, 0);
}

TEST(KMeans, SingleClusterCentroidIsMean)
{
    std::vector<Point> points = {{0.0, 0.0}, {2.0, 0.0}, {1.0, 3.0}};
    KMeansConfig config;
    config.k = 1;
    const auto result = kMeans(points, config);
    ASSERT_EQ(result.centroids.size(), 1u);
    EXPECT_NEAR(result.centroids[0][0], 1.0, 1e-9);
    EXPECT_NEAR(result.centroids[0][1], 1.0, 1e-9);
}

TEST(KMeans, KEqualsNGivesZeroInertia)
{
    std::vector<Point> points = {{0.0}, {1.0}, {2.0}, {5.0}};
    KMeansConfig config;
    config.k = 4;
    const auto result = kMeans(points, config);
    EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, DeterministicForFixedSeed)
{
    const auto points = twoBlobs(15, 2);
    KMeansConfig config;
    config.k = 4;
    config.seed = 99;
    const auto a = kMeans(points, config);
    const auto b = kMeans(points, config);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, ValidatesInput)
{
    std::vector<Point> points = {{1.0}, {2.0}};
    KMeansConfig config;
    config.k = 3;
    EXPECT_THROW(kMeans(points, config), FatalError); // k > n
    config.k = 0;
    EXPECT_THROW(kMeans(points, config), FatalError);
    config.k = 1;
    EXPECT_THROW(kMeans({}, config), FatalError);
    std::vector<Point> ragged = {{1.0}, {1.0, 2.0}};
    EXPECT_THROW(kMeans(ragged, config), FatalError);
}

TEST(KMeans, HandlesDuplicatePoints)
{
    std::vector<Point> points(10, Point{1.0, 1.0});
    KMeansConfig config;
    config.k = 3;
    const auto result = kMeans(points, config);
    EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, ClusterSizesCountsAssignment)
{
    const auto sizes = clusterSizes({0, 1, 1, 2, 1}, 3);
    EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 3, 1}));
    EXPECT_THROW(clusterSizes({5}, 3), FatalError);
}

TEST(KMeansBalance, EqualizesSizesWithinOne)
{
    // A lopsided distribution: 30 points near origin, 2 far away.
    sosim::util::Rng rng(3);
    std::vector<Point> points;
    for (int i = 0; i < 30; ++i)
        points.push_back({rng.normal(0.0, 0.2)});
    points.push_back({100.0});
    points.push_back({101.0});

    KMeansConfig config;
    config.k = 4;
    auto result = kMeans(points, config);
    equalizeClusterSizes(points, result);
    const auto sizes = clusterSizes(result.assignment, 4);
    const auto [min_it, max_it] =
        std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_LE(*max_it - *min_it, 1u);
    // Every point still assigned to a valid cluster.
    for (const auto c : result.assignment)
        EXPECT_LT(c, 4u);
}

TEST(KMeansBalance, NoopForSingleCluster)
{
    std::vector<Point> points = {{1.0}, {2.0}};
    KMeansConfig config;
    config.k = 1;
    auto result = kMeans(points, config);
    const auto before = result.assignment;
    equalizeClusterSizes(points, result);
    EXPECT_EQ(result.assignment, before);
}

TEST(KMeansBalance, PreservesTotalCount)
{
    const auto points = twoBlobs(13, 4); // 26 points.
    KMeansConfig config;
    config.k = 4;
    auto result = kMeans(points, config);
    equalizeClusterSizes(points, result);
    const auto sizes = clusterSizes(result.assignment, 4);
    std::size_t total = 0;
    for (const auto s : sizes)
        total += s;
    EXPECT_EQ(total, points.size());
}

/**
 * The balancing drain in its original form: for every single move,
 * rescan all (point, destination) pairs of the over-full cluster and take
 * the first strict minimum.  O(moves * n * k); kept as the oracle that
 * equalizeClusterSizes must reproduce bit for bit.
 */
void
equalizeReference(const std::vector<Point> &points, KMeansResult &result)
{
    const std::size_t n = points.size();
    const std::size_t k = result.centroids.size();
    SOSIM_REQUIRE(result.assignment.size() == n,
                  "equalizeClusterSizes: assignment size mismatch");
    if (k <= 1)
        return;

    auto sizes = clusterSizes(result.assignment, k);
    const std::size_t base = n / k;
    const std::size_t extra = n % k; // First `extra` clusters get base+1.

    auto target_of = [&](std::size_t c) { return base + (c < extra); };

    // Greedily drain over-full clusters into under-full ones, moving the
    // point whose reassignment costs the least extra inertia.
    for (std::size_t c = 0; c < k; ++c) {
        while (sizes[c] > target_of(c)) {
            double best_cost = std::numeric_limits<double>::max();
            std::size_t best_point = n, best_dst = k;
            for (std::size_t i = 0; i < n; ++i) {
                if (result.assignment[i] != c)
                    continue;
                for (std::size_t dst = 0; dst < k; ++dst) {
                    if (dst == c || sizes[dst] >= target_of(dst))
                        continue;
                    const double cost =
                        squaredDistance(points[i], result.centroids[dst]) -
                        squaredDistance(points[i], result.centroids[c]);
                    if (cost < best_cost) {
                        best_cost = cost;
                        best_point = i;
                        best_dst = dst;
                    }
                }
            }
            SOSIM_ASSERT(best_point < n,
                         "equalizeClusterSizes: no destination found");
            result.assignment[best_point] = best_dst;
            --sizes[c];
            ++sizes[best_dst];
        }
    }

    // Recompute centroids and inertia for the balanced assignment.
    const std::size_t dim = points.front().size();
    std::vector<Point> sums(k, Point(dim, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = result.assignment[i];
        ++counts[c];
        for (std::size_t d = 0; d < dim; ++d)
            sums[c][d] += points[i][d];
    }
    for (std::size_t c = 0; c < k; ++c) {
        if (counts[c] == 0)
            continue;
        for (std::size_t d = 0; d < dim; ++d)
            result.centroids[c][d] =
                sums[c][d] / static_cast<double>(counts[c]);
    }
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        inertia += squaredDistance(points[i],
                                   result.centroids[result.assignment[i]]);
    result.inertia = inertia;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/**
 * Balance one clustering with both drains and require the same
 * assignment, and bit-identical centroids and inertia.
 */
void
expectDrainMatchesReference(const std::vector<Point> &points,
                            const KMeansResult &input,
                            const std::string &what)
{
    SCOPED_TRACE(what);
    KMeansResult want = input;
    KMeansResult got = input;
    equalizeReference(points, want);
    equalizeClusterSizes(points, got);
    ASSERT_EQ(got.assignment, want.assignment);
    ASSERT_EQ(got.centroids.size(), want.centroids.size());
    for (std::size_t c = 0; c < want.centroids.size(); ++c) {
        ASSERT_EQ(got.centroids[c].size(), want.centroids[c].size());
        for (std::size_t d = 0; d < want.centroids[c].size(); ++d)
            ASSERT_TRUE(sameBits(got.centroids[c][d], want.centroids[c][d]))
                << "centroid " << c << " dim " << d;
    }
    ASSERT_TRUE(sameBits(got.inertia, want.inertia));
    EXPECT_EQ(got.iterations, want.iterations);
}

/**
 * An arbitrary (not Lloyd-converged) clustering: each point lands in
 * cluster 0 with probability `skew`, otherwise uniformly; centroids sit
 * on random points.  Costs are then unrelated to the assignment, which
 * stresses the drain harder than a converged k-means result.
 */
KMeansResult
skewedClustering(const std::vector<Point> &points, std::size_t k,
                 double skew, sosim::util::Rng &rng)
{
    KMeansResult r;
    r.assignment.resize(points.size());
    for (auto &a : r.assignment)
        a = rng.uniform(0.0, 1.0) < skew
                ? 0
                : static_cast<std::size_t>(
                      rng.uniformInt(0, static_cast<std::int64_t>(k) - 1));
    for (std::size_t c = 0; c < k; ++c)
        r.centroids.push_back(points[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(points.size()) - 1))]);
    return r;
}

/** `sizes` Gaussian blobs in `dim` dimensions, centres 10 apart. */
std::vector<Point>
blobs(const std::vector<std::size_t> &sizes, std::size_t dim,
      sosim::util::Rng &rng)
{
    std::vector<Point> points;
    for (std::size_t b = 0; b < sizes.size(); ++b)
        for (std::size_t i = 0; i < sizes[b]; ++i) {
            Point p(dim);
            for (auto &x : p)
                x = rng.normal(10.0 * static_cast<double>(b), 1.0);
            points.push_back(std::move(p));
        }
    return points;
}

TEST(KMeansBalance, DrainMatchesReferenceOnSeededSweep)
{
    sosim::util::Rng rng(2018);
    for (std::size_t k = 2; k <= 20; ++k) {
        for (int rep = 0; rep < 3; ++rep) {
            // Small and mid sizes at every k; one large population per
            // k on the first repetition.  n % k != 0 throughout, so the
            // first n % k clusters carry the extra point.
            std::size_t n = rep == 0
                                ? 2000 + static_cast<std::size_t>(
                                             rng.uniformInt(0, 1000))
                                : k + static_cast<std::size_t>(
                                          rng.uniformInt(1, 300));
            if (n % k == 0)
                ++n;
            const std::size_t dim =
                1 + static_cast<std::size_t>(rng.uniformInt(0, 3));
            std::vector<Point> points(n, Point(dim));
            for (auto &p : points)
                for (auto &x : p)
                    x = rng.normal(0.0, 1.0);
            const double skew = rep == 0 ? 0.3 : 0.2 * rep;
            expectDrainMatchesReference(
                points, skewedClustering(points, k, skew, rng),
                "random k=" + std::to_string(k) + " n=" + std::to_string(n) +
                    " rep=" + std::to_string(rep));
        }
    }
}

TEST(KMeansBalance, DrainMatchesReferenceOnLopsidedBlobs)
{
    sosim::util::Rng rng(7919);
    for (const std::size_t k : {3u, 5u, 8u, 13u, 20u}) {
        // One dominant blob and a couple of small ones: k-means splits
        // the big blob, but its clusters stay far from equal, so several
        // over-full clusters drain in turn and destinations fill in the
        // middle of a drain.
        const auto points = blobs({700, 41, 10}, 3, rng);
        ASSERT_NE(points.size() % k, 0u);
        KMeansConfig config;
        config.k = k;
        config.seed = 11 + k;
        const auto clustering = kMeans(points, config);
        expectDrainMatchesReference(points, clustering,
                                    "kmeans k=" + std::to_string(k));
        // Everything starts in cluster 0: its drain fills every other
        // destination one after another.
        KMeansResult all_in_one = clustering;
        std::fill(all_in_one.assignment.begin(),
                  all_in_one.assignment.end(), 0);
        expectDrainMatchesReference(points, all_in_one,
                                    "one-cluster k=" + std::to_string(k));
    }
}

TEST(KMeansBalance, DrainMatchesReferenceOnExactTies)
{
    sosim::util::Rng rng(5);
    for (std::size_t k = 2; k <= 12; ++k) {
        // Integer grid points and integer centroids: every cost is an
        // exact integer, so equal costs abound and the (point, dst)
        // tie order decides every move.
        std::size_t n = 150 + k;
        if (n % k == 0)
            ++n;
        std::vector<Point> grid(n);
        for (auto &p : grid)
            p = {static_cast<double>(rng.uniformInt(0, 3)),
                 static_cast<double>(rng.uniformInt(0, 3))};
        KMeansResult r = skewedClustering(grid, k, 0.5, rng);
        expectDrainMatchesReference(grid, r,
                                    "grid k=" + std::to_string(k));

        // Duplicate points: whole runs of identical costs.
        std::vector<Point> dup(n, Point{1.0, 1.0});
        for (std::size_t i = 0; i < n; i += 3)
            dup[i] = {2.0, 0.0};
        expectDrainMatchesReference(dup, skewedClustering(dup, k, 0.6, rng),
                                    "duplicates k=" + std::to_string(k));

        // Integer line, centroids on the even integers: a point one step
        // left of its centroid and one a step right tie exactly (cost 0)
        // towards the two neighbouring clusters, so the point order of a
        // tie, not the destination order, decides which neighbour fills
        // first.
        std::vector<Point> line(n);
        KMeansResult mirrored;
        for (std::size_t c = 0; c < k; ++c)
            mirrored.centroids.push_back({2.0 * static_cast<double>(c)});
        for (auto &p : line) {
            const auto c = rng.uniformInt(0, static_cast<std::int64_t>(k) - 1);
            p = {static_cast<double>(2 * c + rng.uniformInt(-1, 1))};
            mirrored.assignment.push_back(static_cast<std::size_t>(c));
        }
        expectDrainMatchesReference(line, mirrored,
                                    "line k=" + std::to_string(k));

        // Coincident centroids: every destination costs the same for a
        // given point.
        KMeansResult same = skewedClustering(grid, k, 0.7, rng);
        for (auto &c : same.centroids)
            c = same.centroids.front();
        expectDrainMatchesReference(grid, same,
                                    "coincident k=" + std::to_string(k));
    }
}

TEST(KMeansBalance, DrainBreaksCostTiesByPointThenDestination)
{
    // Clusters 0 and 3 are each one over target; clusters 1 and 2 each
    // one under.  Cluster 0 drains first and sees two zero-cost moves,
    // point 0 -> 2 and point 1 -> 1: the lower point index wins, so
    // cluster 3's excess must then take the one destination left, 1.
    const std::vector<Point> points = {{0.5},  {-0.5}, {0.0},  {-1.0},
                                       {1.0},  {10.0}, {10.0}, {10.0}};
    KMeansResult r;
    r.assignment = {0, 0, 0, 1, 2, 3, 3, 3};
    r.centroids = {{0.0}, {-1.0}, {1.0}, {10.0}};
    expectDrainMatchesReference(points, r, "mirrored tie");
    equalizeClusterSizes(points, r);
    EXPECT_EQ(r.assignment,
              (std::vector<std::size_t>{2, 0, 0, 1, 2, 1, 3, 3}));
}

TEST(KMeansBalance, DrainMatchesReferenceOnSignedZeros)
{
    // Coordinates mix -0.0 and 0.0, so many costs are zero.  A squared
    // distance is never -0.0 (it accumulates from +0.0), so the zero
    // costs themselves are +0.0; the drain must still order them by
    // value, with -0.0 coordinates comparing equal to 0.0.
    sosim::util::Rng rng(3);
    const double values[] = {-0.0, 0.0, 1.0};
    for (std::size_t k = 2; k <= 6; ++k) {
        std::vector<Point> points(40 + k);
        for (auto &p : points)
            p = {values[rng.uniformInt(0, 2)], values[rng.uniformInt(0, 2)]};
        KMeansResult r = skewedClustering(points, k, 0.5, rng);
        r.centroids.front() = {-0.0, -0.0};
        r.centroids.back() = {0.0, -0.0};
        expectDrainMatchesReference(points, r,
                                    "signed zeros k=" + std::to_string(k));
    }
}

TEST(KMeansBalance, DrainSkipsNonFiniteCostsLikeReference)
{
    // Point 0 overflows every squared distance (inf - inf = NaN cost);
    // point 1 overflows only towards the far centroid (cost +inf).
    // Neither may move; the finite points drain instead.
    std::vector<Point> points = {{1e300}, {1.2e154}, {0.0}, {0.1},
                                 {0.2},   {0.3},     {5.0}, {0.4}};
    KMeansResult r;
    r.assignment = {0, 0, 0, 0, 0, 0, 1, 0};
    r.centroids = {{0.0}, {-1e154}};
    expectDrainMatchesReference(points, r, "non-finite");
    KMeansResult got = r;
    equalizeClusterSizes(points, got);
    EXPECT_EQ(got.assignment[0], 0u);
    EXPECT_EQ(got.assignment[1], 0u);

    // When only non-finite moves remain, both drains give up the same way.
    KMeansResult stuck;
    stuck.assignment = {0, 0, 0};
    stuck.centroids = {{0.0}, {0.0}};
    const std::vector<Point> huge = {{1e300}, {-1e300}, {1e300}};
    KMeansResult a = stuck;
    EXPECT_THROW(equalizeReference(huge, a), LogicError);
    KMeansResult b = stuck;
    EXPECT_THROW(equalizeClusterSizes(huge, b), LogicError);

    // Likewise when the only moves left cost +inf.
    KMeansResult far;
    far.assignment = {0, 0};
    far.centroids = {{0.0}, {-1e154}};
    const std::vector<Point> overflow = {{1.2e154}, {1.3e154}};
    KMeansResult c = far;
    EXPECT_THROW(equalizeReference(overflow, c), LogicError);
    KMeansResult d = far;
    EXPECT_THROW(equalizeClusterSizes(overflow, d), LogicError);
}

TEST(KMeansBalance, ValidatesDimensions)
{
    KMeansResult r;
    r.assignment = {0, 1, 1};
    r.centroids = {{0.0}, {1.0}};
    EXPECT_THROW(equalizeClusterSizes({{0.0}, {1.0, 2.0}, {3.0}}, r),
                 FatalError);
    r.centroids = {{0.0}, {1.0, 0.0}};
    EXPECT_THROW(equalizeClusterSizes({{0.0}, {1.0}, {3.0}}, r),
                 FatalError);
    r.assignment = {0, 1};
    EXPECT_THROW(equalizeClusterSizes({{0.0}, {1.0}, {3.0}}, r),
                 FatalError);
}

#if SOSIM_OBS_ENABLED

TEST(KMeansBalance, RecordsSpanAndMoveCount)
{
    namespace obs = sosim::obs;
    std::vector<Point> points;
    for (int i = 0; i < 11; ++i)
        points.push_back({static_cast<double>(i)});
    KMeansResult r;
    r.assignment.assign(points.size(), 0);
    r.centroids = {{0.0}, {5.0}, {10.0}};
    KMeansResult want = r;
    equalizeReference(points, want);
    std::uint64_t expected_moves = 0;
    for (const auto c : want.assignment)
        expected_moves += c != 0;
    ASSERT_EQ(expected_moves, 7u); // Targets 4/4/3 from an 11/0/0 start.

    auto &tracer = obs::SpanTracer::instance();
    tracer.reset();
    auto &moves = obs::registry().counter("cluster.balance.moves");
    const auto before = moves.value();
    equalizeClusterSizes(points, r);
    EXPECT_EQ(moves.value() - before, expected_moves);
    const auto &root = tracer.root();
    ASSERT_EQ(root.children.count("cluster.balance"), 1u);
    EXPECT_EQ(root.children.at("cluster.balance")->invocations.load(), 1u);
    tracer.reset();
}

#endif // SOSIM_OBS_ENABLED

TEST(Pca, RecoversDominantDirection)
{
    // Points spread along the (1, 1) diagonal.
    sosim::util::Rng rng(5);
    std::vector<Point> points;
    for (int i = 0; i < 200; ++i) {
        const double t = rng.normal(0.0, 3.0);
        const double noise = rng.normal(0.0, 0.05);
        points.push_back({t + noise, t - noise});
    }
    const auto result = pca(points, 1);
    ASSERT_EQ(result.components.size(), 1u);
    const auto &c = result.components[0];
    // Direction is (1,1)/sqrt(2) up to sign.
    EXPECT_NEAR(std::abs(c[0]), std::sqrt(0.5), 0.05);
    EXPECT_NEAR(std::abs(c[1]), std::sqrt(0.5), 0.05);
    EXPECT_GT(result.explainedVariance[0], 1.0);
}

TEST(Pca, ComponentsAreOrthonormal)
{
    sosim::util::Rng rng(6);
    std::vector<Point> points;
    for (int i = 0; i < 100; ++i)
        points.push_back({rng.normal(0, 2), rng.normal(0, 1),
                          rng.normal(0, 0.5)});
    const auto result = pca(points, 3);
    for (std::size_t a = 0; a < 3; ++a) {
        double norm = 0.0;
        for (const auto x : result.components[a])
            norm += x * x;
        EXPECT_NEAR(norm, 1.0, 1e-6);
        for (std::size_t b = a + 1; b < 3; ++b) {
            double dot = 0.0;
            for (std::size_t d = 0; d < 3; ++d)
                dot += result.components[a][d] * result.components[b][d];
            EXPECT_NEAR(dot, 0.0, 1e-4);
        }
    }
    // Variance is sorted descending.
    EXPECT_GE(result.explainedVariance[0],
              result.explainedVariance[1] - 1e-9);
    EXPECT_GE(result.explainedVariance[1],
              result.explainedVariance[2] - 1e-9);
}

TEST(Pca, ProjectionDimensionsAndValidation)
{
    std::vector<Point> points = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 7.0}};
    const auto result = pca(points, 2);
    EXPECT_EQ(result.projected.size(), 3u);
    EXPECT_EQ(result.projected[0].size(), 2u);
    EXPECT_THROW(pca(points, 3), FatalError);
    EXPECT_THROW(pca(points, 0), FatalError);
    EXPECT_THROW(pca({}, 1), FatalError);
}

TEST(Tsne, KeepsClustersSeparated)
{
    const auto points = twoBlobs(15, 7);
    TsneConfig config;
    config.iterations = 400;
    config.perplexity = 8.0;
    const auto embedded = tsne(points, config);
    ASSERT_EQ(embedded.size(), points.size());

    // Mean intra-blob distance must be far below the inter-blob distance.
    auto mean_dist = [&](std::size_t a_begin, std::size_t a_end,
                         std::size_t b_begin, std::size_t b_end) {
        double acc = 0.0;
        int count = 0;
        for (std::size_t i = a_begin; i < a_end; ++i)
            for (std::size_t j = b_begin; j < b_end; ++j) {
                if (i == j)
                    continue;
                acc += std::sqrt(squaredDistance(embedded[i], embedded[j]));
                ++count;
            }
        return acc / count;
    };
    const double intra = (mean_dist(0, 15, 0, 15) +
                          mean_dist(15, 30, 15, 30)) / 2.0;
    const double inter = mean_dist(0, 15, 15, 30);
    EXPECT_GT(inter, 2.0 * intra);
}

TEST(Tsne, OutputHasRequestedDimensions)
{
    const auto points = twoBlobs(5, 8);
    TsneConfig config;
    config.iterations = 20;
    config.outputDims = 2;
    const auto embedded = tsne(points, config);
    for (const auto &p : embedded)
        EXPECT_EQ(p.size(), 2u);
}

TEST(Tsne, ValidatesInput)
{
    std::vector<Point> tiny = {{1.0}, {2.0}};
    EXPECT_THROW(tsne(tiny, {}), FatalError);
    std::vector<Point> ragged = {{1.0}, {2.0}, {3.0}, {1.0, 2.0}};
    EXPECT_THROW(tsne(ragged, {}), FatalError);
}

TEST(Tsne, DeterministicForFixedSeed)
{
    const auto points = twoBlobs(6, 9);
    TsneConfig config;
    config.iterations = 30;
    const auto a = tsne(points, config);
    const auto b = tsne(points, config);
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t d = 0; d < a[i].size(); ++d)
            EXPECT_DOUBLE_EQ(a[i][d], b[i][d]);
}

} // namespace
