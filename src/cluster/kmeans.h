#ifndef SOSIM_CLUSTER_KMEANS_H
#define SOSIM_CLUSTER_KMEANS_H

/**
 * @file
 * K-means clustering (k-means++ seeding, Lloyd iterations) over points in
 * the asynchrony-score space (section 3.5 of the paper).  A size-balancing
 * post-pass is provided because the paper's placement step assumes "each
 * of these clusters have the same number of instances".
 */

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace sosim::cluster {

/** A point in d-dimensional feature space. */
using Point = std::vector<double>;

/** Squared Euclidean distance between two equal-dimension points. */
double squaredDistance(const Point &a, const Point &b);

/**
 * Squared Euclidean distance over raw spans (the view form used by the
 * hot per-point loops; no size check).
 */
double squaredDistance(const double *a, const double *b, std::size_t dim);

/** Parameters for a k-means run. */
struct KMeansConfig {
    /** Number of clusters; must be >= 1 and <= number of points. */
    std::size_t k = 8;
    /** Upper bound on Lloyd iterations. */
    int maxIterations = 100;
    /** Stop when inertia improves by less than this relative amount. */
    double tolerance = 1e-6;
    /**
     * Independent restarts; the best-inertia run wins (earliest restart
     * on ties).  Each restart draws from its own seed derived up front
     * from `seed`, so restarts are independent of each other and run in
     * parallel with results identical to the serial order.
     */
    int restarts = 3;
    /** RNG seed for seeding and restarts. */
    std::uint64_t seed = 42;
};

/** Result of a k-means run. */
struct KMeansResult {
    /** Cluster index of each input point. */
    std::vector<std::size_t> assignment;
    /** Final centroid positions. */
    std::vector<Point> centroids;
    /** Sum of squared distances of points to their centroid. */
    double inertia = 0.0;
    /** Lloyd iterations performed by the winning restart. */
    int iterations = 0;
};

/**
 * Run k-means over the given points.
 *
 * @param points Input points; all must share one dimensionality.
 * @param config Clustering parameters.
 */
KMeansResult kMeans(const std::vector<Point> &points,
                    const KMeansConfig &config);

/**
 * Rebalance a clustering so every cluster has (near-)equal size.
 *
 * Points are greedily moved from over-full clusters to under-full ones,
 * choosing at each step the move that increases inertia the least.  Sizes
 * after the pass differ by at most one: with n points and k clusters,
 * the first n % k clusters end with n / k + 1 points, the rest with
 * n / k.
 *
 * Contract (the result is a pure function of its inputs):
 *  - Over-full clusters drain in index order, against the centroids as
 *    given (they are frozen until the drain ends).
 *  - A move's cost is d²(point, dst) − d²(point, own centroid).  Each
 *    step takes the least cost; equal costs go to the lower point index,
 *    then the lower destination index — the first minimum of a scan over
 *    (point, dst) in index order.  Moves costing NaN or >= DBL_MAX are
 *    never taken; if only such moves remain, util::LogicError is thrown.
 *  - Cost: each over-full cluster c costs its |c|·(k−1) candidate moves
 *    once and sorts them, so O(n·k + Σ|c|·k·log(|c|·k)) overall, not a
 *    full rescan per move.
 *  - Afterwards centroids are the members' means and inertia is
 *    recomputed; a cluster left empty keeps its centroid.
 *
 * Throws util::FatalError when the assignment size or a point's
 * dimension does not match.
 *
 * @param points Input points (same order as the clustering).
 * @param result Clustering to rebalance; assignment is updated in place
 *               and centroids/inertia are recomputed.
 */
void equalizeClusterSizes(const std::vector<Point> &points,
                          KMeansResult &result);

/** Number of points in each cluster of an assignment. */
std::vector<std::size_t> clusterSizes(
    const std::vector<std::size_t> &assignment, std::size_t k);

} // namespace sosim::cluster

#endif // SOSIM_CLUSTER_KMEANS_H
