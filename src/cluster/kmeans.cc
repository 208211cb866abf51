#include "kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "util/error.h"
#include "util/parallel.h"

namespace sosim::cluster {

double
squaredDistance(const double *a, const double *b, std::size_t dim)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

double
squaredDistance(const Point &a, const Point &b)
{
    SOSIM_REQUIRE(a.size() == b.size(),
                  "squaredDistance: dimension mismatch");
    return squaredDistance(a.data(), b.data(), a.size());
}

namespace {

/** k-means++ seeding: spread initial centroids proportionally to D². */
std::vector<Point>
seedPlusPlus(const std::vector<Point> &points, std::size_t k,
             util::Rng &rng)
{
    const std::size_t dim = points.front().size();
    std::vector<Point> centroids;
    centroids.reserve(k);
    centroids.push_back(
        points[static_cast<std::size_t>(
            rng.uniformInt(0, (std::int64_t)points.size() - 1))]);

    std::vector<double> dist2(points.size(),
                              std::numeric_limits<double>::max());
    while (centroids.size() < k) {
        double total = 0.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            dist2[i] = std::min(dist2[i],
                                squaredDistance(points[i].data(),
                                                centroids.back().data(),
                                                dim));
            total += dist2[i];
        }
        if (total <= 0.0) {
            // All remaining points coincide with a centroid; duplicate.
            centroids.push_back(centroids.back());
            continue;
        }
        double target = rng.uniform(0.0, total);
        std::size_t chosen = points.size() - 1;
        for (std::size_t i = 0; i < points.size(); ++i) {
            target -= dist2[i];
            if (target <= 0.0) {
                chosen = i;
                break;
            }
        }
        centroids.push_back(points[chosen]);
    }
    return centroids;
}

/** One full Lloyd descent from a given seeding. */
KMeansResult
lloyd(const std::vector<Point> &points, std::vector<Point> centroids,
      const KMeansConfig &config)
{
    const std::size_t n = points.size();
    const std::size_t k = centroids.size();
    const std::size_t dim = points.front().size();

    KMeansResult result;
    result.assignment.assign(n, 0);
    std::vector<double> best_dist(n);
    double prev_inertia = std::numeric_limits<double>::max();
#if SOSIM_OBS_ENABLED
    std::vector<std::size_t> prev_assignment(n, k); // k = "unassigned".
#endif

    for (int iter = 0; iter < config.maxIterations; ++iter) {
        SOSIM_COUNT("cluster.kmeans.iterations");
        // Assignment step: each point is independent, so fan the
        // distance loops out; inertia is reduced serially below, in
        // index order, keeping the sum identical for any thread count.
        util::parallelFor(
            n,
            [&](std::size_t i) {
                const double *p = points[i].data();
                double best = std::numeric_limits<double>::max();
                std::size_t best_c = 0;
                for (std::size_t c = 0; c < k; ++c) {
                    const double d =
                        squaredDistance(p, centroids[c].data(), dim);
                    if (d < best) {
                        best = d;
                        best_c = c;
                    }
                }
                result.assignment[i] = best_c;
                best_dist[i] = best;
            },
            /*min_grain=*/64);
        double inertia = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            inertia += best_dist[i];
#if SOSIM_OBS_ENABLED
        {
            std::size_t moved = 0;
            for (std::size_t i = 0; i < n; ++i)
                moved += prev_assignment[i] != result.assignment[i];
            SOSIM_COUNT_ADD("cluster.kmeans.reassignments", moved);
            prev_assignment = result.assignment;
        }
#endif

        // Update step.
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
                continue; // Keep the empty cluster's centroid in place.
            for (std::size_t d = 0; d < dim; ++d)
                centroids[c][d] =
                    sums[c][d] / static_cast<double>(counts[c]);
        }

        result.inertia = inertia;
        result.iterations = iter + 1;
        if (prev_inertia - inertia <=
            config.tolerance * std::max(prev_inertia, 1e-300)) {
            break;
        }
        prev_inertia = inertia;
    }

    result.centroids = std::move(centroids);
    return result;
}

} // namespace

KMeansResult
kMeans(const std::vector<Point> &points, const KMeansConfig &config)
{
    SOSIM_SPAN("cluster.kmeans");
    SOSIM_COUNT("cluster.kmeans.runs");
    SOSIM_REQUIRE(!points.empty(), "kMeans: need at least one point");
    SOSIM_REQUIRE(config.k >= 1, "kMeans: k must be >= 1");
    SOSIM_REQUIRE(config.k <= points.size(),
                  "kMeans: k must not exceed the number of points");
    SOSIM_REQUIRE(config.restarts >= 1, "kMeans: restarts must be >= 1");
    const std::size_t dim = points.front().size();
    SOSIM_REQUIRE(dim >= 1, "kMeans: points must have dimension >= 1");
    for (const auto &p : points)
        SOSIM_REQUIRE(p.size() == dim, "kMeans: inconsistent dimensions");

    // Derive every restart's seed up front from one generator, then run
    // the restarts independently (and in parallel); the winner is picked
    // serially in restart order, so ties resolve to the earliest restart
    // exactly as a serial loop would.
    util::Rng rng(config.seed);
    std::vector<std::uint64_t> seeds(
        static_cast<std::size_t>(config.restarts));
    for (auto &s : seeds)
        s = rng.engine()();

    std::vector<KMeansResult> runs(seeds.size());
    util::parallelFor(seeds.size(), [&](std::size_t r) {
        // Nested under cluster.kmeans even from pool workers (the
        // submitting span is adopted inside every chunk).
        SOSIM_SPAN("cluster.kmeans.restart");
        SOSIM_COUNT("cluster.kmeans.restarts");
        util::Rng restart_rng(seeds[r]);
        auto seeded = seedPlusPlus(points, config.k, restart_rng);
        runs[r] = lloyd(points, std::move(seeded), config);
    });

    KMeansResult best;
    best.inertia = std::numeric_limits<double>::max();
    for (auto &run : runs)
        if (run.inertia < best.inertia)
            best = std::move(run);
    return best;
}

std::vector<std::size_t>
clusterSizes(const std::vector<std::size_t> &assignment, std::size_t k)
{
    std::vector<std::size_t> sizes(k, 0);
    for (const auto c : assignment) {
        SOSIM_REQUIRE(c < k, "clusterSizes: assignment index out of range");
        ++sizes[c];
    }
    return sizes;
}

void
equalizeClusterSizes(const std::vector<Point> &points, KMeansResult &result)
{
    SOSIM_SPAN("cluster.balance");
    const std::size_t n = points.size();
    const std::size_t k = result.centroids.size();
    SOSIM_REQUIRE(result.assignment.size() == n,
                  "equalizeClusterSizes: assignment size mismatch");
    if (k <= 1)
        return;
    // One dimension check up front; the loops below use the raw form.
    const std::size_t dim = result.centroids.front().size();
    for (const auto &c : result.centroids)
        SOSIM_REQUIRE(c.size() == dim,
                      "equalizeClusterSizes: inconsistent dimensions");
    for (const auto &p : points)
        SOSIM_REQUIRE(p.size() == dim,
                      "equalizeClusterSizes: inconsistent dimensions");

    auto sizes = clusterSizes(result.assignment, k);
    const std::size_t base = n / k;
    const std::size_t extra = n % k; // First `extra` clusters get base+1.

    auto target_of = [&](std::size_t c) { return base + (c < extra); };

    // Drain over-full clusters, in index order, into under-full ones,
    // each step moving the point whose reassignment costs the least extra
    // inertia (first minimum in (point, dst) order).  Centroids are frozen
    // during the drain, so every cost is a constant, and sizes only move
    // towards their targets: an under-full cluster never becomes over-full
    // and an over-full one never receives.  So each cluster's candidate
    // moves are costed once and sorted by (cost, point, dst); walking that
    // list while skipping points already moved and destinations already
    // full yields exactly the step-by-step minimum.  Pairs whose cost is
    // NaN or >= DBL_MAX are dropped: a `cost < best` scan seeded with
    // DBL_MAX can never pick them.
    struct Move {
        double cost;
        std::size_t point;
        std::size_t dst;
    };
    std::vector<Move> moves;
    std::vector<std::size_t> open; // Under-full destinations.
    [[maybe_unused]] std::uint64_t moved = 0;
    for (std::size_t c = 0; c < k; ++c) {
        if (sizes[c] <= target_of(c))
            continue;
        open.clear();
        for (std::size_t dst = 0; dst < k; ++dst)
            if (dst != c && sizes[dst] < target_of(dst))
                open.push_back(dst);

        moves.clear();
        const double *own = result.centroids[c].data();
        for (std::size_t i = 0; i < n; ++i) {
            if (result.assignment[i] != c)
                continue;
            const double *p = points[i].data();
            const double stay = squaredDistance(p, own, dim);
            for (const auto dst : open) {
                const double cost =
                    squaredDistance(p, result.centroids[dst].data(), dim) -
                    stay;
                if (cost < std::numeric_limits<double>::max())
                    moves.push_back(Move{cost, i, dst});
            }
        }
        // `<` on the cost (not its bits), so -0.0 and 0.0 tie exactly as
        // they do in a `cost < best` scan.
        std::sort(moves.begin(), moves.end(),
                  [](const Move &a, const Move &b) {
                      if (a.cost != b.cost)
                          return a.cost < b.cost;
                      if (a.point != b.point)
                          return a.point < b.point;
                      return a.dst < b.dst;
                  });

        std::size_t next = 0;
        while (sizes[c] > target_of(c)) {
            while (next < moves.size() &&
                   (result.assignment[moves[next].point] != c ||
                    sizes[moves[next].dst] >= target_of(moves[next].dst)))
                ++next;
            SOSIM_ASSERT(next < moves.size(),
                         "equalizeClusterSizes: no destination found");
            const auto &m = moves[next++];
            result.assignment[m.point] = m.dst;
            --sizes[c];
            ++sizes[m.dst];
            ++moved;
        }
    }
    SOSIM_COUNT_ADD("cluster.balance.moves", moved);

    // Recompute centroids and inertia for the balanced assignment.
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
        inertia += squaredDistance(
            points[i].data(), result.centroids[result.assignment[i]].data(),
            dim);
    result.inertia = inertia;
}

} // namespace sosim::cluster
