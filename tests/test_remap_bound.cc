/**
 * @file
 * Oracle tests for the remap swap scan's probe bounds.
 *
 * Remapper::refine rejects most (candidate, partner) pairs with an O(1)
 * bound before any kernel pass: it evaluates two of the elements the
 * full post-swap peak scan takes its max over, and a positive floor that
 * already drives the score to or below the threshold proves the reject
 * (trace::rejectProven).  It also reads instance rows in place instead
 * of copying the population into an arena.  None of this may change a
 * decision, so the scan the library ran before the bounds is kept here,
 * as refineReference — improve-at-A first, then improve-at-B, no
 * bounds, population packed into a TraceArena with its lazy stats — and
 * every refine() outcome is compared with it bit for bit: all eight
 * SwapRecord fields, the refined assignment and the pairs_evaluated
 * count, over presets, fleet pruning, faulted data, both kernel modes,
 * two thread counts and hand-built edge fixtures.  The reference also
 * counts, without acting on it, which evaluated pairs the documented
 * bounds reject (B first, then A, each at its two first-argmax samples),
 * and remap.pairs_bound_rejected must equal that count — so a bound
 * probing the wrong sample or using a different comparison shows up
 * even where it cannot change a decision.  The probe helpers are tested
 * directly against the kernels they stand in for.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "cluster/candidate_index.h"
#include "cluster/shape_index.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "obs/obs.h"
#include "power/power_tree.h"
#include "trace/arena.h"
#include "trace/kernels.h"
#include "trace/repair.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

/** Force a specific worker count for the duration of a scope. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(std::size_t n) { util::setThreadCount(n); }
    ~ScopedThreads() { util::setThreadCount(0); }
};

// ---------------------------------------------------------------------
// The reference scan: the refinement as it ran before the probe bounds,
// minus the fan-out and the flight recorder (neither changes a result:
// shard slots reduce in the unsharded (candidate, rack) order, see
// tests/test_remap_parallel.cc).

struct RefRack {
    std::vector<std::size_t> members;
    trace::TraceId aggRow = 0;
    double aggPeak = 0.0;
    double peakSum = 0.0;
    std::vector<double> scoreBefore;
    std::vector<double> othersPeak;
    std::vector<std::size_t> othersPeakAt; // Bound instrument only.
    bool cacheValid = false;
};

struct RefOutcome {
    power::Assignment assignment;
    std::vector<core::SwapRecord> swaps;
    std::uint64_t pairsEvaluated = 0;
    /** Evaluated pairs the documented probe bounds would reject (B
     *  bound, then A bound, at the first-argmax samples) — counted by
     *  the reference without acting on it. */
    std::uint64_t pairsBoundRejectable = 0;
};

/** First index attaining the maximum of f(0..n-1), by a plain scan. */
template <typename F>
std::size_t
firstArgmax(std::size_t n, F f)
{
    std::size_t at = 0;
    double best = f(0);
    for (std::size_t t = 1; t < n; ++t) {
        const double x = f(t);
        if (x > best) {
            best = x;
            at = t;
        }
    }
    return at;
}

/** The bound's reject proof, written out independently. */
bool
floorRejects(double floor, double numerator, double threshold)
{
    return floor > 0.0 && numerator / floor <= threshold;
}

RefOutcome
refineReference(const power::PowerTree &tree,
                const core::RemapConfig &config,
                const power::Assignment &start,
                const std::vector<trace::TimeSeries> &itraces,
                const std::vector<double> *validity)
{
    RefOutcome out;
    out.assignment = start;
    power::Assignment &assignment = out.assignment;
    const trace::KernelMode mode = config.kernels;
    if (itraces.empty())
        return out;
    const auto swappable = [&](std::size_t instance) {
        return validity == nullptr ||
               (*validity)[instance] >= config.minValidFraction;
    };

    const auto rack_ids = tree.racks();
    trace::TraceArena arena = trace::TraceArena::fromSeries(
        itraces, rack_ids.size() + config.candidatesPerRound);
    const std::size_t samples = arena.samplesPerTrace();
    std::vector<std::size_t> peak_at(itraces.size());
    for (std::size_t id = 0; id < itraces.size(); ++id) {
        arena.stats(id);
        const double *row = arena.row(id);
        peak_at[id] = firstArgmax(samples, [&](std::size_t t) {
            return row[t];
        });
    }

    std::vector<RefRack> racks(tree.nodeCount());
    const auto per_rack = tree.instancesPerRack(assignment);
    for (const auto rack : rack_ids) {
        racks[rack].members = per_rack[rack];
        racks[rack].aggRow = arena.addZeros();
    }
    for (const auto rack : rack_ids) {
        auto &state = racks[rack];
        double *agg = arena.mutableRow(state.aggRow);
        for (const auto i : state.members) {
            state.aggPeak = trace::accumulatePeakRow(agg, arena.view(i));
            state.peakSum += arena.stats(i).peak;
        }
    }

    const bool prune = config.prune == core::PruneMode::kCluster &&
                       itraces.size() >= 2;
    cluster::CandidatePairIndex prune_index;
    if (prune) {
        std::vector<const double *> trace_rows(itraces.size());
        for (trace::TraceId id = 0; id < itraces.size(); ++id)
            trace_rows[id] = arena.row(id);
        const auto points = cluster::shapePoints(
            trace_rows, arena.samplesPerTrace(),
            cluster::kDefaultShapeBuckets);
        cluster::CandidateIndexConfig index_config;
        index_config.clusters = config.pruneClusters;
        index_config.keepFraction = config.pruneKeepFraction;
        index_config.seed = config.pruneSeed;
        prune_index = cluster::CandidatePairIndex::build(points,
                                                         index_config);
    }

    std::vector<trace::TraceId> scratch(config.candidatesPerRound);
    for (auto &row : scratch)
        row = arena.addZeros();

    const auto diffScoreHoisted =
        [&](trace::TraceView candidate, double candidate_peak,
            trace::TraceView others_diff, double others_peak,
            std::size_t other_count, double threshold) {
            if (other_count == 0)
                return 2.0;
            const double scale = 1.0 / static_cast<double>(other_count);
            const double numerator = candidate_peak + scale * others_peak;
            const double aggregate_peak =
                mode == trace::KernelMode::kBlocked
                    ? trace::peakOfScaledSumBlocked(candidate,
                                                    others_diff, scale)
                    : trace::peakOfScaledSumEarlyReject(
                          candidate, others_diff, scale, numerator,
                          threshold);
            if (aggregate_peak <= 0.0)
                return 0.0;
            return numerator / aggregate_peak;
        };

    const auto refreshCache = [&](RefRack &rack) {
        if (rack.cacheValid)
            return;
        const std::size_t count = rack.members.size();
        rack.scoreBefore.assign(count, 2.0);
        rack.othersPeak.assign(count, 0.0);
        rack.othersPeakAt.assign(count, 0);
        const trace::TraceView agg = arena.view(rack.aggRow);
        const std::size_t others = count - 1;
        for (std::size_t m = 0; m < count && others > 0; ++m) {
            const std::size_t i = rack.members[m];
            const trace::TraceView member = arena.view(i);
            rack.othersPeakAt[m] = firstArgmax(samples, [&](std::size_t t) {
                return agg[t] - member[t];
            });
            const double others_peak =
                mode == trace::KernelMode::kBlocked
                    ? trace::peakOfDiffBlocked(agg, member)
                    : trace::peakOfDiff(agg, member);
            rack.othersPeak[m] = others_peak;
            const double scale = 1.0 / static_cast<double>(others);
            const double aggregate_peak =
                mode == trace::KernelMode::kBlocked
                    ? trace::peakOfAddScaledDiffBlocked(member, agg, member,
                                                        scale)
                    : trace::peakOfAddScaledDiff(member, agg, member,
                                                 scale);
            rack.scoreBefore[m] =
                aggregate_peak <= 0.0
                    ? 0.0
                    : (arena.stats(i).peak + scale * others_peak) /
                          aggregate_peak;
        }
        rack.cacheValid = true;
    };

    std::vector<power::NodeId> tried;
    while (static_cast<int>(out.swaps.size()) < config.maxSwaps) {
        power::NodeId worst_rack = power::kNoNode;
        double worst_score = std::numeric_limits<double>::max();
        for (const auto rack : rack_ids) {
            const auto &state = racks[rack];
            if (state.members.size() < 2)
                continue;
            if (std::find(tried.begin(), tried.end(), rack) != tried.end())
                continue;
            const double score = state.aggPeak <= 0.0
                                     ? 0.0
                                     : state.peakSum / state.aggPeak;
            if (score < worst_score) {
                worst_score = score;
                worst_rack = rack;
            }
        }
        if (worst_rack == power::kNoNode)
            break;
        auto &rack_a = racks[worst_rack];
        for (const auto rack : rack_ids)
            if (!racks[rack].members.empty())
                refreshCache(racks[rack]);

        std::vector<std::pair<double, std::size_t>> scored(
            rack_a.members.size());
        for (std::size_t m = 0; m < rack_a.members.size(); ++m)
            scored[m] = {rack_a.scoreBefore[m], rack_a.members[m]};
        std::sort(scored.begin(), scored.end());
        if (validity != nullptr)
            scored.erase(std::remove_if(scored.begin(), scored.end(),
                                        [&](const auto &entry) {
                                            return !swappable(entry.second);
                                        }),
                         scored.end());
        const std::size_t candidates =
            std::min(config.candidatesPerRound, scored.size());
        const std::size_t others_a = rack_a.members.size() - 1;
        const double scale_a = 1.0 / static_cast<double>(others_a);
        std::vector<double> cand_others_peak(candidates, 0.0);
        std::vector<std::size_t> cand_others_peak_at(candidates, 0);
        for (std::size_t c = 0; c < candidates; ++c) {
            cand_others_peak[c] = trace::diffPeakRow(
                arena.mutableRow(scratch[c]), arena.view(rack_a.aggRow),
                arena.view(scored[c].second));
            const double *row = arena.row(scratch[c]);
            cand_others_peak_at[c] = firstArgmax(
                samples, [&](std::size_t t) { return row[t]; });
        }

        core::SwapRecord best;
        double best_gain = 0.0;
        std::size_t best_b_pos = 0;
        for (std::size_t c = 0; c < candidates; ++c) {
            const std::size_t inst_a = scored[c].second;
            const double score_a_before = scored[c].first;
            const trace::TraceView inst_a_row = arena.view(inst_a);
            const double inst_a_peak = arena.stats(inst_a).peak;
            const trace::TraceView others_a_row = arena.view(scratch[c]);
            const std::size_t cluster_a =
                prune ? prune_index.clusterOf(inst_a) : 0;
            for (const auto rack_b_id : rack_ids) {
                if (rack_b_id == worst_rack)
                    continue;
                const auto &rack_b = racks[rack_b_id];
                if (rack_b.members.empty())
                    continue;
                const trace::TraceView agg_b = arena.view(rack_b.aggRow);
                const std::size_t others_b = rack_b.members.size() - 1;
                const double scale_b =
                    others_b == 0 ? 0.0
                                  : 1.0 / static_cast<double>(others_b);
                for (std::size_t pos_b = 0; pos_b < rack_b.members.size();
                     ++pos_b) {
                    const std::size_t inst_b = rack_b.members[pos_b];
                    if (!swappable(inst_b))
                        continue;
                    if (prune &&
                        !prune_index.allowed(
                            cluster_a, prune_index.clusterOf(inst_b)))
                        continue;
                    ++out.pairsEvaluated;
                    {
                        // Instrument: B bound, then A bound.
                        const trace::TraceView b = arena.view(inst_b);
                        const double before_b = rack_b.scoreBefore[pos_b];
                        bool rejects = false;
                        if (others_b == 0) {
                            rejects = 2.0 <= before_b;
                        } else {
                            const auto at = [&](std::size_t t) {
                                return inst_a_row[t] +
                                       scale_b * (agg_b[t] - b[t]);
                            };
                            rejects = floorRejects(
                                std::max(at(rack_b.othersPeakAt[pos_b]),
                                         at(peak_at[inst_a])),
                                inst_a_peak +
                                    scale_b * rack_b.othersPeak[pos_b],
                                before_b);
                        }
                        if (!rejects) {
                            const auto at = [&](std::size_t t) {
                                return b[t] + scale_a * others_a_row[t];
                            };
                            rejects = floorRejects(
                                std::max(at(cand_others_peak_at[c]),
                                         at(peak_at[inst_b])),
                                arena.stats(inst_b).peak +
                                    scale_a * cand_others_peak[c],
                                score_a_before);
                        }
                        out.pairsBoundRejectable += rejects ? 1 : 0;
                    }
                    const double score_a_after = diffScoreHoisted(
                        arena.view(inst_b), arena.stats(inst_b).peak,
                        others_a_row, cand_others_peak[c], others_a,
                        score_a_before);
                    if (score_a_after <= score_a_before)
                        continue;
                    const double score_b_before = rack_b.scoreBefore[pos_b];
                    double score_b_after;
                    if (others_b == 0) {
                        score_b_after = 2.0;
                    } else {
                        const double numerator =
                            inst_a_peak +
                            scale_b * rack_b.othersPeak[pos_b];
                        const double aggregate_peak =
                            mode == trace::KernelMode::kBlocked
                                ? trace::peakOfAddScaledDiffBlocked(
                                      inst_a_row, agg_b,
                                      arena.view(inst_b), scale_b)
                                : trace::peakOfAddScaledDiffEarlyReject(
                                      inst_a_row, agg_b,
                                      arena.view(inst_b), scale_b,
                                      numerator, score_b_before);
                        score_b_after = aggregate_peak <= 0.0
                                            ? 0.0
                                            : numerator / aggregate_peak;
                    }
                    if (score_b_after <= score_b_before)
                        continue;
                    const double gain = (score_a_after - score_a_before) +
                                        (score_b_after - score_b_before);
                    if (gain > best_gain) {
                        best_gain = gain;
                        best_b_pos = pos_b;
                        best.instanceA = inst_a;
                        best.instanceB = inst_b;
                        best.rackA = worst_rack;
                        best.rackB = rack_b_id;
                        best.scoreAtABefore = score_a_before;
                        best.scoreAtAAfter = score_a_after;
                        best.scoreAtBBefore = score_b_before;
                        best.scoreAtBAfter = score_b_after;
                    }
                }
            }
        }

        if (best_gain > 0.0) {
            auto &rack_b = racks[best.rackB];
            auto it_a = std::find(rack_a.members.begin(),
                                  rack_a.members.end(), best.instanceA);
            *it_a = best.instanceB;
            rack_b.members[best_b_pos] = best.instanceA;
            rack_a.aggPeak = trace::subAddPeakRow(
                arena.mutableRow(rack_a.aggRow), arena.view(best.instanceB),
                arena.view(best.instanceA));
            rack_a.peakSum += arena.stats(best.instanceB).peak -
                              arena.stats(best.instanceA).peak;
            rack_b.aggPeak = trace::subAddPeakRow(
                arena.mutableRow(rack_b.aggRow), arena.view(best.instanceA),
                arena.view(best.instanceB));
            rack_b.peakSum += arena.stats(best.instanceA).peak -
                              arena.stats(best.instanceB).peak;
            rack_a.cacheValid = false;
            rack_b.cacheValid = false;
            assignment[best.instanceA] = best.rackB;
            assignment[best.instanceB] = best.rackA;
            out.swaps.push_back(best);
            tried.clear();
        } else {
            tried.push_back(worst_rack);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Running the library scan and comparing.

struct Outcome {
    power::Assignment assignment;
    std::vector<core::SwapRecord> swaps;
    std::uint64_t pairsEvaluated = 0;
    std::uint64_t pairsBoundRejected = 0;
};

std::uint64_t
counterValue(const char *name)
{
#if SOSIM_OBS_ENABLED
    return obs::registry().counter(name).value();
#else
    (void)name;
    return 0;
#endif
}

Outcome
runRefine(const power::PowerTree &tree, const core::RemapConfig &config,
          const power::Assignment &start,
          const std::vector<trace::TimeSeries> &itraces,
          const std::vector<double> *validity, std::size_t threads)
{
    ScopedThreads scoped(threads);
    const std::uint64_t evaluated0 = counterValue("remap.pairs_evaluated");
    const std::uint64_t bound0 = counterValue("remap.pairs_bound_rejected");
    Outcome out;
    out.assignment = start;
    out.swaps = core::Remapper(tree, config)
                    .refine(out.assignment, itraces, validity);
    out.pairsEvaluated = counterValue("remap.pairs_evaluated") - evaluated0;
    out.pairsBoundRejected =
        counterValue("remap.pairs_bound_rejected") - bound0;
    return out;
}

/** Bitwise double equality (distinguishes -0.0 from +0.0). */
::testing::AssertionResult
sameBits(double a, double b)
{
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, sizeof ua);
    std::memcpy(&ub, &b, sizeof ub);
    if (ua == ub)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in their bits";
}

void
expectMatchesReference(const RefOutcome &ref, const Outcome &out,
                       const std::string &what)
{
    EXPECT_EQ(ref.assignment, out.assignment) << what;
#if SOSIM_OBS_ENABLED
    EXPECT_EQ(ref.pairsEvaluated, out.pairsEvaluated) << what;
    EXPECT_EQ(ref.pairsBoundRejectable, out.pairsBoundRejected) << what;
#endif
    ASSERT_EQ(ref.swaps.size(), out.swaps.size()) << what;
    for (std::size_t i = 0; i < ref.swaps.size(); ++i) {
        const auto &r = ref.swaps[i];
        const auto &o = out.swaps[i];
        const std::string at = what + " swap " + std::to_string(i);
        EXPECT_EQ(r.instanceA, o.instanceA) << at;
        EXPECT_EQ(r.instanceB, o.instanceB) << at;
        EXPECT_EQ(r.rackA, o.rackA) << at;
        EXPECT_EQ(r.rackB, o.rackB) << at;
        EXPECT_TRUE(sameBits(r.scoreAtABefore, o.scoreAtABefore)) << at;
        EXPECT_TRUE(sameBits(r.scoreAtAAfter, o.scoreAtAAfter)) << at;
        EXPECT_TRUE(sameBits(r.scoreAtBBefore, o.scoreAtBBefore)) << at;
        EXPECT_TRUE(sameBits(r.scoreAtBAfter, o.scoreAtBAfter)) << at;
    }
}

/** Compare refine() with the reference at 1 and 4 threads, both modes. */
void
checkAgainstReference(const power::PowerTree &tree,
                      core::RemapConfig config,
                      const power::Assignment &start,
                      const std::vector<trace::TimeSeries> &itraces,
                      const std::vector<double> *validity,
                      const std::string &what, bool expect_swaps = true)
{
    for (const auto mode :
         {trace::KernelMode::kStrict, trace::KernelMode::kBlocked}) {
        config.kernels = mode;
        const RefOutcome ref =
            refineReference(tree, config, start, itraces, validity);
        if (expect_swaps) {
            EXPECT_FALSE(ref.swaps.empty())
                << what << ": no swaps, the comparison is vacuous";
        }
        for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
            const Outcome out =
                runRefine(tree, config, start, itraces, validity, threads);
            expectMatchesReference(
                ref, out,
                what + " mode=" + trace::kernelModeName(mode) +
                    " threads=" + std::to_string(threads));
        }
    }
}

power::Assignment
obliviousStart(const power::PowerTree &tree,
               const workload::GeneratedDatacenter &dc)
{
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    return baseline::obliviousPlacement(tree, service_of);
}

// ---------------------------------------------------------------------
// Preset sweeps.

TEST(RemapBound, PresetSweepMatchesReference)
{
    for (const std::uint64_t seed : {2018u, 7919u}) {
        workload::PresetOptions options;
        options.scale = 0.25;
        options.intervalMinutes = 30;
        options.weeks = 2;
        options.seed = seed;
        for (const auto &spec : {workload::buildDc1Spec(options),
                                 workload::buildDc3Spec(options)}) {
            const auto dc = workload::generate(spec);
            const auto traces = dc.trainingTraces();
            const power::PowerTree tree(spec.topology);
            core::RemapConfig config;
            config.maxSwaps = 24;
            checkAgainstReference(tree, config, obliviousStart(tree, dc),
                                  traces, nullptr,
                                  spec.name + " seed=" +
                                      std::to_string(seed));
        }
    }
}

TEST(RemapBound, FleetWithClusterPruningMatchesReference)
{
    workload::PresetOptions options;
    options.intervalMinutes = 60;
    options.weeks = 2;
    options.seed = 2018;
    const auto spec = workload::buildFleetSpec(1024, options);
    const auto dc = workload::generate(spec);
    const auto traces = dc.trainingTraces();
    const power::PowerTree tree(spec.topology);
    core::RemapConfig config;
    config.maxSwaps = 16;
    config.prune = core::PruneMode::kCluster;
    checkAgainstReference(tree, config, obliviousStart(tree, dc), traces,
                          nullptr, "fleet1024 prune=cluster");
}

TEST(RemapBound, FaultedDataWithValidityMatchesReference)
{
    for (const std::uint64_t fault_seed : {7u, 11u}) {
        workload::PresetOptions options;
        options.scale = 0.25;
        options.intervalMinutes = 30;
        options.weeks = 2;
        options.seed = 2018;
        const auto spec = workload::buildDc3Spec(options);
        const auto dc = workload::generate(spec);
        auto traces = dc.trainingTraces();
        const auto plan = fault::FaultPlan::build(
            fault_seed, fault::faultProfile("harsh"),
            {traces.size(), traces.front().size()});
        fault::injectTraceFaults(traces, plan);
        const auto summary =
            trace::repairAll(traces, trace::RepairPolicy::Interpolate);
        const power::PowerTree tree(spec.topology);
        core::RemapConfig config;
        config.maxSwaps = 24;
        checkAgainstReference(tree, config, obliviousStart(tree, dc),
                              traces, &summary.validBefore,
                              "faulted seed=" + std::to_string(fault_seed));
    }
}

// ---------------------------------------------------------------------
// Hand-built edge fixtures on a small topology.

power::TopologySpec
smallTopology(int racks_per_rpp)
{
    power::TopologySpec spec;
    spec.suites = 1;
    spec.msbsPerSuite = 1;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = racks_per_rpp;
    return spec;
}

constexpr std::size_t kSamples = 96;

/** A diurnal-ish trace: baseline plus a raised-cosine bump at `peak`. */
trace::TimeSeries
bumpTrace(double base, double height, std::size_t peak, std::size_t width)
{
    std::vector<double> v(kSamples, base);
    for (std::size_t t = 0; t < kSamples; ++t) {
        const std::size_t d =
            std::min((t + kSamples - peak) % kSamples,
                     (peak + kSamples - t) % kSamples);
        const double phase =
            static_cast<double>(d) / static_cast<double>(width);
        if (d < width)
            v[t] += height * (0.5 + 0.5 * std::cos(3.14159265358979 * phase));
    }
    return trace::TimeSeries(std::move(v), 15);
}

/** Assign instances round-robin over the first `used` racks. */
power::Assignment
roundRobin(const power::PowerTree &tree, std::size_t n, std::size_t used)
{
    const auto racks = tree.racks();
    power::Assignment a(n);
    for (std::size_t i = 0; i < n; ++i)
        a[i] = racks[i % std::min(used, racks.size())];
    return a;
}

TEST(RemapBound, OneAndTwoMemberRacksMatchReference)
{
    const power::PowerTree tree(smallTopology(3));
    util::Rng rng(41);
    std::vector<trace::TimeSeries> traces;
    for (std::size_t i = 0; i < 20; ++i)
        traces.push_back(bumpTrace(rng.uniform(1.0, 3.0),
                                   rng.uniform(2.0, 8.0),
                                   static_cast<std::size_t>(
                                       rng.uniform(0.0, 95.0)),
                                   12));
    // 12 racks: racks 0-3 hold one member each, racks 4-11 two each.
    const auto racks = tree.racks();
    power::Assignment start(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i)
        start[i] = i < 4 ? racks[i] : racks[4 + (i - 4) / 2];
    core::RemapConfig config;
    config.maxSwaps = 16;
    checkAgainstReference(tree, config, start, traces, nullptr,
                          "small racks");
}

TEST(RemapBound, AllZeroTracesTakeTheZeroPowerBranch)
{
    const power::PowerTree tree(smallTopology(2));
    // Half the population draws nothing: zero aggregates and zero
    // numerators exercise the 0.0 convention on both sides of a swap.
    std::vector<trace::TimeSeries> traces;
    for (std::size_t i = 0; i < 24; ++i)
        traces.push_back(i % 2 == 0 ? trace::TimeSeries(
                                          std::vector<double>(kSamples, 0.0),
                                          15)
                                    : bumpTrace(1.0, 4.0, (i * 13) % 96, 10));
    core::RemapConfig config;
    config.maxSwaps = 16;
    checkAgainstReference(tree, config, roundRobin(tree, 24, 8), traces,
                          nullptr, "zero-half", false);

    std::vector<trace::TimeSeries> zeros(
        16, trace::TimeSeries(std::vector<double>(kSamples, 0.0), 15));
    checkAgainstReference(tree, config, roundRobin(tree, 16, 8), zeros,
                          nullptr, "all-zero", false);
}

TEST(RemapBound, FlatPlateausWithArgmaxTiesMatchReference)
{
    const power::PowerTree tree(smallTopology(2));
    util::Rng rng(5);
    // Wide flat tops: every trace attains its peak over a long plateau,
    // so argmax ties are everywhere and the first-index rule matters.
    std::vector<trace::TimeSeries> traces;
    for (std::size_t i = 0; i < 32; ++i) {
        std::vector<double> v(kSamples, 1.0 + static_cast<double>(i % 3));
        const std::size_t start =
            static_cast<std::size_t>(rng.uniform(0.0, 60.0));
        for (std::size_t t = start; t < start + 30; ++t)
            v[t] = 6.0;
        traces.emplace_back(std::move(v), 15);
    }
    core::RemapConfig config;
    config.maxSwaps = 16;
    checkAgainstReference(tree, config, roundRobin(tree, 32, 8), traces,
                          nullptr, "plateaus");
}

TEST(RemapBound, EqualGainTiesKeepTheFirstMaximum)
{
    const power::PowerTree tree(smallTopology(2));
    // Repeated copies of four shapes: many partners offer bit-identical
    // gains, so the first-maximum tie-break decides every swap.
    std::vector<trace::TimeSeries> traces;
    for (std::size_t i = 0; i < 32; ++i)
        traces.push_back(bumpTrace(1.0, 5.0, (i % 4) * 24, 10));
    core::RemapConfig config;
    config.maxSwaps = 16;
    checkAgainstReference(tree, config, roundRobin(tree, 32, 8), traces,
                          nullptr, "equal gains");
}

#if SOSIM_OBS_ENABLED
TEST(RemapBound, SynchronousRacksAreRejectedByTheBoundAlone)
{
    const power::PowerTree tree(smallTopology(2));
    // Identical traces: every swap is neutral, and the bound's samples
    // sit on the shared peak, where the floor equals the full peak and
    // the bound score equals the threshold — so every evaluated pair is
    // rejected before any kernel pass, by the inclusive `<=`.
    for (const bool flat : {false, true}) {
        std::vector<trace::TimeSeries> traces(
            24, flat ? trace::TimeSeries(std::vector<double>(kSamples, 3.0),
                                         15)
                     : bumpTrace(1.0, 5.0, 40, 10));
        core::RemapConfig config;
        config.maxSwaps = 4;
        const auto start = roundRobin(tree, traces.size(), 8);
        const Outcome out = runRefine(tree, config, start, traces, nullptr, 1);
        EXPECT_TRUE(out.swaps.empty());
        EXPECT_GT(out.pairsEvaluated, 0u);
        EXPECT_EQ(out.pairsBoundRejected, out.pairsEvaluated)
            << (flat ? "flat" : "bump");
        checkAgainstReference(tree, config, start, traces, nullptr,
                              flat ? "sync flat" : "sync bump", false);
    }
}

TEST(RemapBound, BoundFiresOnAPreset)
{
    workload::PresetOptions options;
    options.scale = 0.25;
    options.intervalMinutes = 30;
    options.weeks = 2;
    const auto spec = workload::buildDc3Spec(options);
    const auto dc = workload::generate(spec);
    const auto traces = dc.trainingTraces();
    const power::PowerTree tree(spec.topology);
    core::RemapConfig config;
    config.maxSwaps = 8;
    const Outcome out = runRefine(tree, config, obliviousStart(tree, dc),
                                  traces, nullptr, 1);
    EXPECT_GT(out.pairsBoundRejected, 0u);
    EXPECT_LT(out.pairsBoundRejected, out.pairsEvaluated);
}
#endif

// ---------------------------------------------------------------------
// The probe helpers against the kernels they stand in for.

std::vector<double>
randomRow(util::Rng &rng, std::size_t n, double lo, double hi)
{
    std::vector<double> v(n);
    for (auto &x : v)
        x = rng.uniform(lo, hi);
    return v;
}

TEST(RemapBound, ProbeNeverExceedsTheKernelPeakAndHitsItAtTheArgmax)
{
    util::Rng rng(20261020);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + static_cast<std::size_t>(
                                      rng.uniform(0.0, 300.0));
        const auto a = randomRow(rng, n, 0.0, 500.0);
        const auto b = randomRow(rng, n, 0.0, 500.0);
        const auto c = randomRow(rng, n, 0.0, 500.0);
        const trace::TraceView va(a.data(), n, 5), vb(b.data(), n, 5),
            vc(c.data(), n, 5);
        const double scale = 1.0 / rng.uniform(1.0, 40.0);

        const double sum_peak = trace::peakOfScaledSum(va, vb, scale);
        const double diff_peak =
            trace::peakOfAddScaledDiff(vc, va, vb, scale);
        EXPECT_EQ(sum_peak, trace::peakOfScaledSumBlocked(va, vb, scale));
        EXPECT_EQ(diff_peak,
                  trace::peakOfAddScaledDiffBlocked(vc, va, vb, scale));
        std::size_t sum_at = n, diff_at = n;
        for (std::size_t t = 0; t < n; ++t) {
            const double s = trace::scaledSumAt(va, vb, scale, t);
            const double d = trace::addScaledDiffAt(vc, va, vb, scale, t);
            ASSERT_LE(s, sum_peak) << "round " << round << " t " << t;
            ASSERT_LE(d, diff_peak) << "round " << round << " t " << t;
            if (s == sum_peak && sum_at == n)
                sum_at = t;
            if (d == diff_peak && diff_at == n)
                diff_at = t;
        }
        // The kernel's peak is one of its elements, and the probe
        // reproduces that element bit for bit.
        ASSERT_LT(sum_at, n) << "round " << round;
        ASSERT_LT(diff_at, n) << "round " << round;
    }
}

TEST(RemapBound, FirstIndexHelpersFindTheFirstArgmax)
{
    util::Rng rng(77);
    for (int round = 0; round < 100; ++round) {
        const std::size_t n = 1 + static_cast<std::size_t>(
                                      rng.uniform(0.0, 200.0));
        // Coarse values make argmax ties common.
        std::vector<double> a(n), b(n);
        for (std::size_t t = 0; t < n; ++t) {
            a[t] = std::floor(rng.uniform(0.0, 4.0));
            b[t] = std::floor(rng.uniform(0.0, 2.0));
        }
        const trace::TraceView va(a.data(), n, 5), vb(b.data(), n, 5);
        std::size_t want_a = 0, want_diff = 0;
        for (std::size_t t = 1; t < n; ++t) {
            if (a[t] > a[want_a])
                want_a = t;
            if (a[t] - b[t] > a[want_diff] - b[want_diff])
                want_diff = t;
        }
        const double peak = trace::peakBlocked(va);
        EXPECT_EQ(peak, a[want_a]);
        EXPECT_EQ(trace::firstPeakIndex(va, peak), want_a);
        EXPECT_EQ(trace::computeStats(va).peakIndex, want_a);
        const double diff_peak = trace::peakOfDiffBlocked(va, vb);
        EXPECT_EQ(trace::firstPeakIndexOfDiff(va, vb, diff_peak), want_diff);
    }
}

TEST(RemapBound, RejectProofIsInclusiveAndIgnoresNonPositiveFloors)
{
    EXPECT_TRUE(trace::rejectProven(2.0, 2.0, 1.0));  // 1.0 <= 1.0
    EXPECT_FALSE(trace::rejectProven(2.0, 2.5, 1.0)); // 1.25 > 1.0
    EXPECT_FALSE(trace::rejectProven(0.0, 0.0, 1.0)); // zero power
    EXPECT_FALSE(trace::rejectProven(-1.0, 1.0, 5.0));
}

} // namespace
