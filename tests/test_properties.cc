/**
 * @file
 * Algebraic property tests of the asynchrony score and the placement
 * metrics, swept over random trace sets: invariances that hold by the
 * mathematics of Eq. 6 and that every refactoring must preserve.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "cluster/shape_index.h"
#include "core/asynchrony.h"
#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "power/metrics.h"
#include "power/power_tree.h"
#include "trace/time_series.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

namespace {

using namespace sosim;
using sosim::trace::TimeSeries;

std::vector<TimeSeries>
randomTraces(unsigned seed, std::size_t count, std::size_t len)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(0.05, 1.0);
    std::vector<TimeSeries> out;
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<double> s(len);
        for (auto &x : s)
            x = dist(rng);
        out.emplace_back(s, 30);
    }
    return out;
}

class ScoreProperties : public ::testing::TestWithParam<unsigned>
{
  protected:
    std::vector<TimeSeries> traces_ = randomTraces(GetParam(), 5, 32);
};

TEST_P(ScoreProperties, UniformScalingIsInvariant)
{
    // A(alpha * M) == A(M): both numerator and denominator scale.
    const double base = core::asynchronyScore(traces_);
    for (const double alpha : {0.1, 2.0, 37.5}) {
        auto scaled = traces_;
        for (auto &t : scaled)
            t *= alpha;
        EXPECT_NEAR(core::asynchronyScore(scaled), base, 1e-9);
    }
}

TEST_P(ScoreProperties, OrderIsIrrelevant)
{
    const double base = core::asynchronyScore(traces_);
    auto shuffled = traces_;
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_NEAR(core::asynchronyScore(shuffled), base, 1e-12);
}

TEST_P(ScoreProperties, AddingConstantBaseloadPullsTowardOne)
{
    // A large synchronous base load dominates the peaks, dragging the
    // score toward 1 (everything "peaks together" relative to it).
    const double base = core::asynchronyScore(traces_);
    auto lifted = traces_;
    for (auto &t : lifted)
        t += TimeSeries::constant(t.size(), 50.0, t.intervalMinutes());
    const double lifted_score = core::asynchronyScore(lifted);
    EXPECT_LE(lifted_score, base + 1e-9);
    EXPECT_NEAR(lifted_score, 1.0, 0.02);
}

TEST_P(ScoreProperties, DuplicatingTheSetPreservesTheScore)
{
    // M and M+M have identical peak structure: A is unchanged.
    const double base = core::asynchronyScore(traces_);
    auto doubled = traces_;
    doubled.insert(doubled.end(), traces_.begin(), traces_.end());
    EXPECT_NEAR(core::asynchronyScore(doubled), base, 1e-9);
}

TEST_P(ScoreProperties, MergingGroupsNeverRaisesTheScore)
{
    // Treating two groups as one (summing each group first) can only
    // lose asynchrony credit: A({sum(M)}) = 1 <= A(M), and in general
    // A over coarser partitions is bounded by A over finer ones.
    const double fine = core::asynchronyScore(traces_);
    const auto merged_front = traces_[0] + traces_[1];
    std::vector<TimeSeries> coarse = {merged_front};
    for (std::size_t i = 2; i < traces_.size(); ++i)
        coarse.push_back(traces_[i]);
    EXPECT_LE(core::asynchronyScore(coarse), fine + 1e-9);
}

TEST_P(ScoreProperties, PairScoreMatchesSetScoreForPairs)
{
    EXPECT_NEAR(core::pairAsynchronyScore(traces_[0], traces_[1]),
                core::asynchronyScore(
                    std::vector<TimeSeries>{traces_[0], traces_[1]}),
                1e-12);
}

TEST_P(ScoreProperties, SlackDecomposesLinearly)
{
    // slack(budget, a + b) == slack(budget_a, a) + slack(budget_b, b)
    // when budget == budget_a + budget_b: Eq. 1 is affine.
    const auto &a = traces_[0];
    const auto &b = traces_[1];
    const auto combined = power::powerSlack(a + b, 10.0);
    const auto split =
        power::powerSlack(a, 6.0) + power::powerSlack(b, 4.0);
    for (std::size_t t = 0; t < combined.size(); ++t)
        EXPECT_NEAR(combined[t], split[t], 1e-9);
    // And energy slack is its integral.
    EXPECT_NEAR(power::energySlack(a + b, 10.0),
                combined.integralMinutes(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreProperties,
                         ::testing::Range(100u, 112u));

// ---------------------------------------------------------------------
// Scale invariance of the planner.  Eq. 6-7 and the differential score
// are ratios of peaks, and multiplying every sample by 2 or 0.5 is exact
// in binary floating point (no overflow or subnormals at watt scale), so
// every peak, sum and score scales exactly and every ratio is unchanged
// bit for bit.  Placement and remap must therefore make the same
// decisions on scaled traces; an absolute-watt threshold anywhere in
// the planner would break this.

struct PlannerOutcome {
    power::Assignment placed;
    power::Assignment remapped;
    std::vector<core::SwapRecord> swaps;
};

PlannerOutcome
planOutcome(const power::PowerTree &tree,
            const std::vector<TimeSeries> &traces,
            const std::vector<std::size_t> &service_of,
            core::PlacementEmbedding embedding,
            const core::RemapConfig &remap)
{
    core::PlacementConfig place;
    place.embedding = embedding;
    PlannerOutcome out;
    out.placed = core::PlacementEngine(tree, place).place(traces, service_of);
    // Remap from the oblivious placement: it is fragmented, so the swap
    // scan has real swaps to find.
    out.remapped = baseline::obliviousPlacement(tree, service_of);
    out.swaps = core::Remapper(tree, remap).refine(out.remapped, traces);
    return out;
}

void
expectSameOutcome(const PlannerOutcome &got, const PlannerOutcome &want)
{
    EXPECT_EQ(got.placed, want.placed);
    EXPECT_EQ(got.remapped, want.remapped);
    ASSERT_EQ(got.swaps.size(), want.swaps.size());
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t s = 0; s < want.swaps.size(); ++s) {
        const auto &g = got.swaps[s];
        const auto &w = want.swaps[s];
        EXPECT_EQ(g.instanceA, w.instanceA) << "swap " << s;
        EXPECT_EQ(g.instanceB, w.instanceB) << "swap " << s;
        EXPECT_EQ(g.rackA, w.rackA) << "swap " << s;
        EXPECT_EQ(g.rackB, w.rackB) << "swap " << s;
        EXPECT_EQ(bits(g.scoreAtABefore), bits(w.scoreAtABefore));
        EXPECT_EQ(bits(g.scoreAtAAfter), bits(w.scoreAtAAfter));
        EXPECT_EQ(bits(g.scoreAtBBefore), bits(w.scoreAtBBefore));
        EXPECT_EQ(bits(g.scoreAtBAfter), bits(w.scoreAtBAfter));
    }
}

void
expectScaleInvariantPlans(const workload::DatacenterSpec &spec,
                          const core::RemapConfig &remap)
{
    const auto dc = workload::generate(spec);
    const auto training = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    const power::PowerTree tree(spec.topology);

    for (const auto embedding : {core::PlacementEmbedding::kScoreVector,
                                 core::PlacementEmbedding::kShape}) {
        const auto want =
            planOutcome(tree, training, service_of, embedding, remap);
        ASSERT_FALSE(want.swaps.empty())
            << "no swaps accepted: the remap half would test nothing";
        for (const double factor : {2.0, 0.5}) {
            SCOPED_TRACE(spec.name + " factor " + std::to_string(factor) +
                         (embedding == core::PlacementEmbedding::kShape
                              ? " shape"
                              : " score-vector"));
            auto scaled = training;
            for (auto &t : scaled)
                t *= factor;
            expectSameOutcome(planOutcome(tree, scaled, service_of,
                                          embedding, remap),
                              want);
        }
    }
}

TEST(ScaleInvariance, Dc3ShapedPlansIgnoreTraceScale)
{
    workload::PresetOptions options;
    options.scale = 0.25; // 384 instances.
    options.intervalMinutes = 30;
    options.weeks = 2;
    core::RemapConfig remap;
    remap.maxSwaps = 16;
    expectScaleInvariantPlans(workload::buildDc3Spec(options), remap);
}

TEST(ScaleInvariance, FleetPlansIgnoreTraceScale)
{
    workload::PresetOptions options;
    options.intervalMinutes = 30;
    options.weeks = 2;
    core::RemapConfig remap;
    remap.maxSwaps = 16;
    remap.prune = core::PruneMode::kCluster;
    remap.pruneKeepFraction = 0.25;
    expectScaleInvariantPlans(workload::buildFleetSpec(1024, options),
                              remap);
}

// Monitor verdicts.  measureWeek's fragmentation ratio is a ratio of
// peaks, the shape drift compares normalized shapes, and ingest judges
// ratios against ratios, so the same argument holds: on scaled traces
// every ratio, flag, count and action is bit-identical and the peaks
// scale exactly.  evalSeconds is wall time and is not compared.

using MonitorRun = std::vector<std::pair<core::MonitorMeasurement,
                                         core::MonitorObservation>>;

void
expectScaleInvariantVerdicts(const workload::DatacenterSpec &spec)
{
    const auto dc = workload::generate(spec);
    const auto training = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    const power::PowerTree tree(spec.topology);
    const power::Assignment smooth =
        core::PlacementEngine(tree, {}).place(training, service_of);
    const power::Assignment oblivious =
        baseline::obliviousPlacement(tree, service_of);
    std::vector<const double *> rows;
    for (const auto &t : training)
        rows.push_back(t.samples().data());
    const auto index =
        cluster::ShapeIndex::build(rows, training.front().size());

    // A healthy baseline, a degraded week, then the fragmented placement
    // (healthy and degraded) so the thresholds have something to judge.
    struct Step {
        int week;
        const power::Assignment *placed;
        bool gaps;
    };
    const std::vector<Step> steps = {
        {0, &smooth, false},    {1, &smooth, false},
        {1, &smooth, true},     {0, &oblivious, false},
        {1, &oblivious, true},  {1, &smooth, false},
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto run = [&](double factor) {
        core::FragmentationMonitor monitor(tree);
        MonitorRun out;
        for (const Step &step : steps) {
            std::vector<TimeSeries> week;
            for (std::size_t i = 0; i < dc.instanceCount(); ++i) {
                TimeSeries t = dc.weekTrace(i, step.week);
                t *= factor;
                // Gaps: every fifth instance loses a stretch (repaired);
                // every 23rd loses most of the week (excluded).
                const std::size_t lost =
                    !step.gaps        ? 0
                    : i % 23 == 0     ? t.size() * 3 / 4
                    : i % 5 == 0      ? t.size() / 10
                                      : 0;
                for (std::size_t k = 0; k < lost; ++k)
                    t[t.size() / 8 + k] = nan;
                week.push_back(std::move(t));
            }
            const auto m =
                core::measureWeek(tree, monitor.config(), week,
                                  *step.placed, &index);
            out.emplace_back(m, monitor.ingest(m));
        }
        return out;
    };

    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    const MonitorRun want = run(1.0);
    bool acted = false;
    bool degraded = false;
    bool excluded = false;
    for (const auto &[m, o] : want) {
        acted = acted || o.action != core::MonitorAction::None;
        degraded = degraded || o.degradedData;
        excluded = excluded || o.excludedInstances > 0;
    }
    ASSERT_TRUE(acted && degraded && excluded)
        << "the steps must exercise an action, a degraded week and an "
           "exclusion, or the comparison tests nothing";
    for (const double factor : {2.0, 0.5}) {
        SCOPED_TRACE(spec.name + " factor " + std::to_string(factor));
        const MonitorRun got = run(factor);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t w = 0; w < want.size(); ++w) {
            SCOPED_TRACE("step " + std::to_string(w));
            const auto &[gm, go] = got[w];
            const auto &[wm, wo] = want[w];
            EXPECT_EQ(bits(gm.fragmentationRatio),
                      bits(wm.fragmentationRatio));
            EXPECT_EQ(bits(gm.sumOfPeaks), bits(wm.sumOfPeaks * factor));
            EXPECT_EQ(bits(gm.rootPeak), bits(wm.rootPeak * factor));
            EXPECT_EQ(bits(gm.shapeDrift), bits(wm.shapeDrift));
            EXPECT_EQ(bits(gm.validFraction), bits(wm.validFraction));
            EXPECT_EQ(gm.degradedData, wm.degradedData);
            EXPECT_EQ(gm.repairedSamples, wm.repairedSamples);
            EXPECT_EQ(gm.excludedInstances, wm.excludedInstances);
            EXPECT_EQ(go.week, wo.week);
            EXPECT_EQ(go.action, wo.action);
            EXPECT_EQ(bits(go.fragmentationRatio),
                      bits(wo.fragmentationRatio));
        }
    }
}

TEST(ScaleInvariance, Dc3MonitorVerdictsIgnoreTraceScale)
{
    workload::PresetOptions options;
    options.scale = 0.25; // 384 instances.
    options.intervalMinutes = 30;
    options.weeks = 3;
    expectScaleInvariantVerdicts(workload::buildDc3Spec(options));
}

TEST(ScaleInvariance, FleetMonitorVerdictsIgnoreTraceScale)
{
    workload::PresetOptions options;
    options.intervalMinutes = 30;
    options.weeks = 3;
    expectScaleInvariantVerdicts(workload::buildFleetSpec(1024, options));
}

} // namespace

