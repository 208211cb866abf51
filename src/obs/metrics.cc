#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace sosim::obs {

const std::vector<double> &
histogramBounds()
{
    static const std::vector<double> bounds = [] {
        std::vector<double> b;
        b.reserve(Histogram::kBuckets - 1);
        // Dividing by the exact 10^-e for negative e makes every bound
        // the double nearest its decimal (5.0 * pow(10, -6) is one ulp
        // below 5e-6), so exported `le` values print as written.
        for (int e = -9; e <= 8; ++e) {
            const double scale = std::pow(10.0, std::abs(e));
            for (const double m : {1.0, 2.0, 5.0})
                b.push_back(e < 0 ? m / scale : m * scale);
        }
        return b;
    }();
    return bounds;
}

namespace {

/** First bucket with v <= bound; the overflow bucket for the rest.
 *  NaN must be routed explicitly: every `bound < NaN` comparison is
 *  false, so lower_bound would otherwise file NaN under bucket 0. */
std::size_t
bucketIndex(double v)
{
    const auto &bounds = histogramBounds();
    if (std::isnan(v))
        return bounds.size();
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
    return static_cast<std::size_t>(it - bounds.begin());
}

void
atomicAddDouble(std::atomic<double> &target, double delta)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

void
Histogram::observe(double v) noexcept
{
    Shard &shard = shards_[threadShard()];
    shard.counts[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(shard.sum, v);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.bucketCounts.assign(kBuckets, 0);
    for (const auto &shard : shards_) {
        for (std::size_t b = 0; b < kBuckets; ++b)
            snap.bucketCounts[b] +=
                shard.counts[b].load(std::memory_order_relaxed);
        snap.count += shard.count.load(std::memory_order_relaxed);
        snap.sum += shard.sum.load(std::memory_order_relaxed);
    }
    return snap;
}

void
Histogram::reset() noexcept
{
    for (auto &shard : shards_) {
        for (auto &c : shard.counts)
            c.store(0, std::memory_order_relaxed);
        shard.count.store(0, std::memory_order_relaxed);
        shard.sum.store(0.0, std::memory_order_relaxed);
    }
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        snap.counters.push_back({name, c->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto &[name, g] : gauges_)
        snap.gauges.push_back({name, g->value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto &[name, h] : histograms_)
        snap.histograms.push_back({name, h->snapshot()});
    return snap;
}

void
Registry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

Registry &
registry()
{
    // Leaked intentionally: call sites cache references in function-local
    // statics whose destruction order vs. a registry destructor is
    // unknowable; a never-destroyed registry makes shutdown safe.
    static Registry *instance = new Registry();
    return *instance;
}

} // namespace sosim::obs
