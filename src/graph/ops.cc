#include "ops.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <utility>

#include "baseline/oblivious.h"
#include "cluster/shape_index.h"
#include "core/asynchrony.h"
#include "core/fingerprints.h"
#include "core/service_traces.h"
#include "obs/obs.h"
#include "trace/kernels.h"
#include "trace/stats_cache.h"
#include "util/error.h"
#include "util/parse.h"

namespace sosim::pipeline {

namespace {

std::uint64_t
fpDouble(std::uint64_t h, double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return graph::hashCombine(h, bits);
}

/**
 * The zero-copy output of an op that leaves its population as it is: a
 * plain population sharing the input's storage, fingerprinted from the
 * input's fingerprint alone.  So an op whose config cannot matter on
 * this input (a repair policy on clean data) keeps its consumers'
 * caches warm.
 */
graph::Value
passThrough(const graph::Value &in)
{
    return graph::Value::alias(
        in, tracesOf(in),
        graph::fingerprintString("pass-through", in.fingerprint()));
}

/** An inject or trips node's report; zero when it passed through. */
fault::InjectionReport
injectionReportOf(const graph::Value &v)
{
    return v.is<fault::InjectedTraces>()
               ? v.as<fault::InjectedTraces>().report
               : fault::InjectionReport{};
}

/** A repair node's summary; all-valid when it passed through. */
trace::RepairSummary
repairSummaryOf(const graph::Value &v)
{
    if (v.is<trace::RepairedTraces>())
        return v.as<trace::RepairedTraces>().summary;
    trace::RepairSummary all_valid;
    all_valid.validBefore.assign(tracesOf(v).size(), 1.0);
    return all_valid;
}

std::uint64_t
fpPoints(const std::vector<cluster::Point> &points)
{
    std::uint64_t h = graph::hashCombine(graph::kFnvOffset, points.size());
    for (const auto &p : points)
        h = graph::fingerprintDoubles(p.data(), p.size(), h);
    return h;
}

std::uint64_t
fpRemapResult(const RemapResult &v)
{
    std::uint64_t h = core::fingerprintAssignment(v.assignment);
    h = graph::hashCombine(h, v.swaps.size());
    for (const auto &s : v.swaps) {
        h = graph::hashCombine(h, s.instanceA);
        h = graph::hashCombine(h, s.instanceB);
        h = graph::hashCombine(h, static_cast<std::uint64_t>(s.rackA));
        h = graph::hashCombine(h, static_cast<std::uint64_t>(s.rackB));
    }
    return h;
}

std::uint64_t
fpMeasurement(const core::MonitorMeasurement &m)
{
    std::uint64_t h = fpDouble(graph::kFnvOffset, m.sumOfPeaks);
    h = fpDouble(h, m.rootPeak);
    h = fpDouble(h, m.fragmentationRatio);
    h = graph::hashCombine(h, m.degradedData ? 1u : 0u);
    h = fpDouble(h, m.validFraction);
    h = graph::hashCombine(h, m.repairedSamples);
    h = graph::hashCombine(h, m.excludedInstances);
    return fpDouble(h, m.shapeDrift);
}

std::uint64_t
fpHeadroomReport(const core::HeadroomReport &r)
{
    std::uint64_t h = graph::hashCombine(graph::kFnvOffset,
                                         r.levels.size());
    for (const auto &lc : r.levels) {
        h = graph::hashCombine(h, static_cast<std::uint64_t>(lc.level));
        h = fpDouble(h, lc.baselineSumPeaks);
        h = fpDouble(h, lc.optimizedSumPeaks);
        h = fpDouble(h, lc.peakReductionFraction);
    }
    return h;
}

std::uint64_t
fpPopulationStats(const PopulationStats &s)
{
    std::uint64_t h = graph::hashCombine(graph::kFnvOffset,
                                         s.perTrace.size());
    for (const auto &t : s.perTrace) {
        h = fpDouble(h, t.peak);
        h = fpDouble(h, t.valley);
        h = fpDouble(h, t.sum);
        h = fpDouble(h, t.mean);
        h = graph::hashCombine(h, t.peakIndex);
    }
    h = fpDouble(h, s.totalMeanPower);
    return fpDouble(h, s.peakOfPeaks);
}

graph::Value
policyValue(trace::RepairPolicy policy)
{
    return graph::Value::of(
        policy, graph::fingerprintString("repair-policy:" +
                                         trace::repairPolicyName(policy)));
}

graph::Value
planValue(const fault::FaultPlan &plan)
{
    return graph::Value::of(plan, plan.fingerprint());
}

power::Level
levelFromName(const std::string &name)
{
    std::string upper = name;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    for (const auto level : power::kAllLevels)
        if (power::levelName(level) == upper)
            return level;
    SOSIM_REQUIRE(false, "unknown power level '" + name +
                             "' (SUITE|MSB|SB|RPP|RACK)");
}

/** Integer value of what-if key `key`: the whole token, in T's range. */
template <typename T>
T
whatIfInteger(const std::string &key, const std::string &value)
{
    const auto parsed = util::parseInteger<T>(value);
    SOSIM_REQUIRE(parsed.has_value(), "--what-if: " + key +
                                          " expects an integer, got '" +
                                          value + "'");
    return *parsed;
}

} // namespace

const std::vector<trace::TimeSeries> &
tracesOf(const graph::Value &v)
{
    if (v.is<std::vector<trace::TimeSeries>>())
        return v.as<std::vector<trace::TimeSeries>>();
    if (v.is<fault::InjectedTraces>())
        return v.as<fault::InjectedTraces>().traces;
    if (v.is<trace::RepairedTraces>())
        return v.as<trace::RepairedTraces>().traces;
    SOSIM_REQUIRE(false,
                  "pipeline: value does not carry a trace population");
}

const power::Assignment &
assignmentOf(const graph::Value &v)
{
    if (v.is<power::Assignment>())
        return v.as<power::Assignment>();
    if (v.is<RemapResult>())
        return v.as<RemapResult>().assignment;
    SOSIM_REQUIRE(false, "pipeline: value does not carry an assignment");
}

graph::Handle
InjectFaultsOp::add(graph::OpGraph &g, std::string name,
                    graph::Handle traces, graph::Handle plan)
{
    return g.op(std::move(name), {traces, plan}, 0,
                [](const std::vector<graph::Value> &ins) {
                    const auto &population = tracesOf(ins[0]);
                    const auto &plan = ins[1].as<fault::FaultPlan>();
                    if (fault::passThroughInjection(population, plan))
                        return passThrough(ins[0]);
                    return graph::Value::of(
                        fault::injectedCopy(population, plan));
                });
}

graph::Handle
RepairOp::add(graph::OpGraph &g, std::string name, graph::Handle traces,
              graph::Handle policy)
{
    return g.op(std::move(name), {traces, policy}, 0,
                [](const std::vector<graph::Value> &ins) {
                    const auto &population = tracesOf(ins[0]);
                    if (trace::passThroughRepair(population))
                        return passThrough(ins[0]);
                    return graph::Value::of(trace::repairedCopy(
                        population, ins[1].as<trace::RepairPolicy>()));
                });
}

graph::Handle
StatsOp::add(graph::OpGraph &g, std::string name, graph::Handle traces)
{
    return g.op(
        std::move(name), {traces}, 0,
        [](const std::vector<graph::Value> &ins) {
            const auto &population = tracesOf(ins[0]);
            PopulationStats out;
            // The shared lazy-stats helper (also behind
            // TimeSeries::stats and TraceArena::stats) computes each
            // row's stats exactly once per invalidation epoch.
            trace::LazyStatsTable table;
            table.reset(population.size());
            out.perTrace.reserve(population.size());
            for (std::size_t i = 0; i < population.size(); ++i) {
                const auto &s = table.get(i, [&] {
                    return trace::computeStats(
                        trace::TraceView(population[i]));
                });
                out.perTrace.push_back(s);
                out.totalMeanPower += s.mean;
                out.peakOfPeaks = std::max(out.peakOfPeaks, s.peak);
            }
            const auto fp = fpPopulationStats(out);
            return graph::Value::of(std::move(out), fp);
        });
}

graph::Handle
ScoreOp::add(graph::OpGraph &g, std::string name, graph::Handle traces)
{
    return g.op(std::move(name), {traces}, 0,
                [](const std::vector<graph::Value> &ins) {
                    const double score =
                        core::asynchronyScore(tracesOf(ins[0]));
                    return graph::Value::of(
                        score, fpDouble(graph::kFnvOffset, score));
                });
}

graph::Handle
ShapeIndexOp::add(graph::OpGraph &g, std::string name, graph::Handle traces)
{
    return g.op(std::move(name), {traces}, 0,
                [](const std::vector<graph::Value> &ins) {
                    const auto &population = tracesOf(ins[0]);
                    std::vector<const double *> rows;
                    rows.reserve(population.size());
                    for (const auto &ts : population)
                        rows.push_back(ts.samples().data());
                    const std::size_t samples =
                        population.empty() ? 0
                                           : population.front().size();
                    auto index =
                        cluster::ShapeIndex::build(rows, samples);
                    const auto fp = index.fingerprint();
                    return graph::Value::of(std::move(index), fp);
                });
}

graph::Handle
EmbedOp::add(graph::OpGraph &g, std::string name, graph::Handle traces,
             graph::Handle services, graph::Handle config,
             graph::Handle shapes)
{
    return g.op(
        std::move(name), {traces, services, config, shapes}, 0,
        [](const std::vector<graph::Value> &ins) {
            const auto &population = tracesOf(ins[0]);
            const auto &service_of =
                ins[1].as<std::vector<std::size_t>>();
            const auto &cfg = ins[2].as<core::PlacementConfig>();
            if (cfg.embedding == core::PlacementEmbedding::kShape) {
                // The shared index already embedded this population;
                // forward its points (fpPoints, not the index
                // fingerprint, so the distribute node sees the same
                // identity either way the points were produced).
                auto points =
                    ins[3].as<cluster::ShapeIndex>().points();
                const auto fp = fpPoints(points);
                return graph::Value::of(std::move(points), fp);
            }
            const auto straces = core::extractServiceTraces(
                population, service_of, cfg.topServices);
            auto points = core::embedPopulation(
                population, straces.straces, cfg.scoring, cfg.kernels);
            const auto fp = fpPoints(points);
            return graph::Value::of(std::move(points), fp);
        });
}

graph::Handle
PlaceOp::add(graph::OpGraph &g, std::string name, graph::Handle embedding,
             graph::Handle config,
             std::shared_ptr<const power::PowerTree> tree)
{
    const auto tree_fp = core::fingerprintTree(*tree);
    return g.op(
        std::move(name), {embedding, config}, tree_fp,
        [tree = std::move(tree)](const std::vector<graph::Value> &ins) {
            const auto &points =
                ins[0].as<std::vector<cluster::Point>>();
            const auto &cfg = ins[1].as<core::PlacementConfig>();
            auto assignment = core::PlacementEngine(*tree, cfg)
                                  .placeWithEmbedding(points);
            const auto fp = core::fingerprintAssignment(assignment);
            return graph::Value::of(std::move(assignment), fp);
        });
}

graph::Handle
ObliviousPlaceOp::add(graph::OpGraph &g, std::string name,
                      graph::Handle services,
                      std::shared_ptr<const power::PowerTree> tree)
{
    const auto tree_fp = core::fingerprintTree(*tree);
    return g.op(
        std::move(name), {services}, tree_fp,
        [tree = std::move(tree)](const std::vector<graph::Value> &ins) {
            auto assignment = baseline::obliviousPlacement(
                *tree, ins[0].as<std::vector<std::size_t>>());
            const auto fp = core::fingerprintAssignment(assignment);
            return graph::Value::of(std::move(assignment), fp);
        });
}

graph::Handle
RemapOp::add(graph::OpGraph &g, std::string name, graph::Handle assignment,
             graph::Handle traces, graph::Handle config,
             graph::Handle shapes,
             std::shared_ptr<const power::PowerTree> tree)
{
    const auto tree_fp = core::fingerprintTree(*tree);
    return g.op(
        std::move(name), {assignment, traces, config, shapes}, tree_fp,
        [tree = std::move(tree)](const std::vector<graph::Value> &ins) {
            RemapResult out;
            out.assignment = assignmentOf(ins[0]);
            const auto &population = tracesOf(ins[1]);
            const auto &cfg = ins[2].as<core::RemapConfig>();
            // A repaired population carries pre-repair validity; an
            // all-valid vector gates nothing, so the clean path stays
            // bit-identical to refining without one.
            const std::vector<double> *validity = nullptr;
            if (ins[1].is<trace::RepairedTraces>())
                validity = &ins[1]
                                .as<trace::RepairedTraces>()
                                .summary.validBefore;
            out.swaps =
                core::Remapper(*tree, cfg)
                    .refine(out.assignment, population, validity,
                            &ins[3].as<cluster::ShapeIndex>());
            const auto fp = fpRemapResult(out);
            return graph::Value::of(std::move(out), fp);
        });
}

graph::Handle
BreakerTripsOp::add(graph::OpGraph &g, std::string name,
                    graph::Handle traces, graph::Handle assignment,
                    graph::Handle plan,
                    std::shared_ptr<const power::PowerTree> tree)
{
    const auto tree_fp = core::fingerprintTree(*tree);
    return g.op(
        std::move(name), {traces, assignment, plan}, tree_fp,
        [tree = std::move(tree)](const std::vector<graph::Value> &ins) {
            const auto &population = tracesOf(ins[0]);
            const auto &assignment = assignmentOf(ins[1]);
            const auto &plan = ins[2].as<fault::FaultPlan>();
            if (fault::passThroughTrips(population, assignment, plan))
                return passThrough(ins[0]);
            fault::InjectedTraces out;
            out.traces = population;
            out.report = fault::injectBreakerTrips(out.traces, *tree,
                                                   assignment, plan);
            return graph::Value::of(std::move(out));
        });
}

graph::Handle
CompareOp::add(graph::OpGraph &g, std::string name, graph::Handle traces,
               graph::Handle baseline, graph::Handle optimized,
               std::shared_ptr<const power::PowerTree> tree)
{
    const auto tree_fp = core::fingerprintTree(*tree);
    return g.op(
        std::move(name), {traces, baseline, optimized}, tree_fp,
        [tree = std::move(tree)](const std::vector<graph::Value> &ins) {
            auto report = core::comparePlacements(
                *tree, tracesOf(ins[0]), assignmentOf(ins[1]),
                assignmentOf(ins[2]));
            const auto fp = fpHeadroomReport(report);
            return graph::Value::of(std::move(report), fp);
        });
}

graph::Handle
MonitorOp::add(graph::OpGraph &g, std::string name, graph::Handle traces,
               graph::Handle assignment, graph::Handle config,
               graph::Handle shapes,
               std::shared_ptr<const power::PowerTree> tree)
{
    const auto tree_fp = core::fingerprintTree(*tree);
    return g.op(
        std::move(name), {traces, assignment, config, shapes}, tree_fp,
        [tree = std::move(tree)](const std::vector<graph::Value> &ins) {
            const auto m = core::measureWeek(
                *tree, ins[2].as<core::MonitorConfig>(),
                tracesOf(ins[0]), assignmentOf(ins[1]),
                &ins[3].as<cluster::ShapeIndex>());
            return graph::Value::of(m, fpMeasurement(m));
        });
}

Pipeline
buildPipeline(const PipelineSpec &spec)
{
    SOSIM_SPAN("pipeline.build");
    Pipeline p;
    p.spec = spec;

    auto dc = workload::generate(spec.dc);
    p.instanceCount = dc.instanceCount();
    auto training = dc.trainingTraces();
    auto test = dc.testTraces();
    SOSIM_REQUIRE(!training.empty(), "buildPipeline: no instances");
    p.shape = {dc.instanceCount(), training.front().size()};
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);

    // An unfaulted pipeline still carries inject/repair/trips nodes,
    // fed by an empty "none" plan: each finds nothing to do and passes
    // its input population through without a copy, so the graph shape
    // does not depend on the fault switch.  The empty plan
    // is built for the wildcard shape {0, 0}, which composes with a
    // population of any shape — input edits and what-if overlays may
    // resample or resize the trace populations freely.
    const fault::FaultPlan plan =
        spec.faulted
            ? fault::FaultPlan::build(spec.faultSeed,
                                      fault::faultProfile(spec.faultProfile),
                                      p.shape)
            : fault::FaultPlan::build(0, fault::faultProfile("none"),
                                      fault::TraceShape{});

    p.tree = std::make_shared<const power::PowerTree>(spec.dc.topology);

    auto &g = p.graph;
    {
        const auto training_fp = core::fingerprintTraces(training);
        p.trainingIn =
            g.input("training",
                    graph::Value::of(std::move(training), training_fp));
        const auto test_fp = core::fingerprintTraces(test);
        p.testIn =
            g.input("test", graph::Value::of(std::move(test), test_fp));
        const auto services_fp = core::fingerprintServices(service_of);
        p.serviceOfIn = g.input(
            "service_of",
            graph::Value::of(std::move(service_of), services_fp));
    }
    p.planIn = g.input("fault.plan", planValue(plan));
    p.repairPolicyIn =
        g.input("repair.policy", policyValue(spec.repairPolicy));
    p.embedConfigIn = g.input(
        "placement.embed_config",
        graph::Value::of(spec.placement,
                         core::fingerprintEmbedConfig(spec.placement)));
    p.distributeConfigIn = g.input(
        "placement.distribute_config",
        graph::Value::of(
            spec.placement,
            core::fingerprintDistributeConfig(spec.placement)));
    p.remapConfigIn = g.input(
        "remap.config",
        graph::Value::of(spec.remap,
                         core::fingerprintRemapConfig(spec.remap)));
    p.monitorConfigIn = g.input(
        "monitor.config",
        graph::Value::of(
            spec.monitor,
            core::fingerprintMonitorMeasureConfig(spec.monitor)));
    // The week populations take the generated traces over: dc is not
    // read again, so each trace moves instead of being copied.
    for (int w = 0; w < spec.dc.weeks; ++w) {
        std::vector<trace::TimeSeries> week;
        week.reserve(p.instanceCount);
        for (std::size_t i = 0; i < p.instanceCount; ++i)
            week.push_back(std::move(dc).weekTrace(i, w));
        const auto week_fp = core::fingerprintTraces(week);
        p.weekIns.push_back(
            g.input("week." + std::to_string(w),
                    graph::Value::of(std::move(week), week_fp)));
    }

    p.injectTrainingOp = InjectFaultsOp::add(
        g, "fault.inject.training", p.trainingIn, p.planIn);
    p.repairTrainingOp = RepairOp::add(
        g, "trace.repair.training", p.injectTrainingOp, p.repairPolicyIn);
    p.injectTestOp =
        InjectFaultsOp::add(g, "fault.inject.test", p.testIn, p.planIn);
    p.repairTestOp = RepairOp::add(g, "trace.repair.test", p.injectTestOp,
                                   p.repairPolicyIn);
    p.statsOp = StatsOp::add(g, "trace.stats.training",
                             p.repairTrainingOp);
    p.scoreOp = ScoreOp::add(g, "score.asynchrony.training",
                             p.repairTrainingOp);
    p.obliviousOp =
        ObliviousPlaceOp::add(g, "place.oblivious", p.serviceOfIn, p.tree);
    // One shape-embedding build for the whole pipeline: the kShape
    // embedding path, remap pruning, and every week's drift diagnostic
    // all read this node's cached output.
    p.shapeIndexOp =
        ShapeIndexOp::add(g, "cluster.shape_index", p.repairTrainingOp);
    p.embedOp = EmbedOp::add(g, "place.embed", p.repairTrainingOp,
                             p.serviceOfIn, p.embedConfigIn,
                             p.shapeIndexOp);
    p.placeOp = PlaceOp::add(g, "place.distribute", p.embedOp,
                             p.distributeConfigIn, p.tree);
    p.remapOp = RemapOp::add(g, "remap.refine", p.placeOp,
                             p.repairTrainingOp, p.remapConfigIn,
                             p.shapeIndexOp, p.tree);
    p.tripsOp = BreakerTripsOp::add(g, "fault.trips.test", p.repairTestOp,
                                    p.remapOp, p.planIn, p.tree);
    p.compareOp = CompareOp::add(g, "compare.headroom", p.tripsOp,
                                 p.obliviousOp, p.remapOp, p.tree);
    for (std::size_t w = 0; w < p.weekIns.size(); ++w) {
        p.weekInjectOps.push_back(InjectFaultsOp::add(
            g, "fault.inject.week." + std::to_string(w), p.weekIns[w],
            p.planIn));
        p.weekMeasureOps.push_back(MonitorOp::add(
            g, "monitor.measure.week." + std::to_string(w),
            p.weekInjectOps[w], p.remapOp, p.monitorConfigIn,
            p.shapeIndexOp, p.tree));
    }
    return p;
}

PipelineResult
runPipeline(Pipeline &p, const graph::Overlay &overlay)
{
    SOSIM_SPAN("pipeline.run");
    const auto hits0 = p.graph.cacheHits();
    const auto misses0 = p.graph.cacheMisses();
    // Empty overlay -> base path (persistent memo + dirty set); overlay
    // -> only the shadowed inputs' downstream cone re-evaluates.
    const auto ev = [&](graph::Handle h) -> graph::Value {
        if (overlay.empty())
            return p.graph.eval(h);
        return p.graph.eval(h, overlay);
    };

    PipelineResult r;
    r.plan = ev(p.planIn).as<fault::FaultPlan>();
    r.trainingFaults = injectionReportOf(ev(p.injectTrainingOp));
    r.trainingRepair = repairSummaryOf(ev(p.repairTrainingOp));
    {
        const auto oblivious = ev(p.obliviousOp);
        r.oblivious = assignmentOf(oblivious);
    }
    {
        const auto remapped = ev(p.remapOp);
        const auto &result = remapped.as<RemapResult>();
        r.optimized = result.assignment;
        r.swaps = result.swaps;
    }
    r.tripFaults = injectionReportOf(ev(p.tripsOp));
    {
        const auto compared = ev(p.compareOp);
        r.comparison = compared.as<core::HeadroomReport>();
    }
    {
        const auto stats = ev(p.statsOp);
        r.trainingStats = stats.as<PopulationStats>();
    }
    r.trainingScore = ev(p.scoreOp).as<double>();

    // The stateful half of monitoring: thresholds and the baseline
    // window live outside the graph, so they read the overlaid config
    // directly and measurements stay cacheable across threshold sweeps.
    const auto monitor_cfg =
        ev(p.monitorConfigIn).as<core::MonitorConfig>();
    core::FragmentationMonitor monitor(*p.tree, monitor_cfg);
    for (const auto measure : p.weekMeasureOps) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto value = ev(measure);
        const auto &m = value.as<core::MonitorMeasurement>();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        r.weekly.push_back(monitor.ingest(m, seconds));
    }

    r.cacheHits = p.graph.cacheHits() - hits0;
    r.opsExecuted = p.graph.cacheMisses() - misses0;
    return r;
}

graph::Overlay
whatIfMaxSwaps(const Pipeline &p, int max_swaps)
{
    auto cfg = p.spec.remap;
    cfg.maxSwaps = max_swaps;
    return graph::Overlay().set(
        p.remapConfigIn,
        graph::Value::of(cfg, core::fingerprintRemapConfig(cfg)));
}

graph::Overlay
whatIfPlacementSeed(const Pipeline &p, std::uint64_t seed)
{
    auto cfg = p.spec.placement;
    cfg.seed = seed;
    // Shadows only the distribute config: the embedding does not
    // observe the seed, so its cached output survives the what-if.
    return graph::Overlay().set(
        p.distributeConfigIn,
        graph::Value::of(cfg, core::fingerprintDistributeConfig(cfg)));
}

graph::Overlay
whatIfTopServices(const Pipeline &p, std::size_t top_services)
{
    auto cfg = p.spec.placement;
    cfg.topServices = top_services;
    return graph::Overlay().set(
        p.embedConfigIn,
        graph::Value::of(cfg, core::fingerprintEmbedConfig(cfg)));
}

graph::Overlay
whatIfClustersPerChild(const Pipeline &p, std::size_t n)
{
    auto cfg = p.spec.placement;
    cfg.clustersPerChild = n;
    return graph::Overlay().set(
        p.distributeConfigIn,
        graph::Value::of(cfg, core::fingerprintDistributeConfig(cfg)));
}

graph::Overlay
whatIfPlacementEmbedding(const Pipeline &p,
                         core::PlacementEmbedding embedding)
{
    auto cfg = p.spec.placement;
    cfg.embedding = embedding;
    // Only the embed config changes; the shape-index node's output is
    // already cached, so flipping to kShape re-runs just the embed and
    // distribute cone.
    return graph::Overlay().set(
        p.embedConfigIn,
        graph::Value::of(cfg, core::fingerprintEmbedConfig(cfg)));
}

graph::Overlay
whatIfRepairPolicy(const Pipeline &p, trace::RepairPolicy policy)
{
    return graph::Overlay().set(p.repairPolicyIn, policyValue(policy));
}

graph::Overlay
whatIfFaultPlan(const Pipeline &p, std::uint64_t seed,
                const std::string &profile)
{
    return graph::Overlay().set(
        p.planIn, planValue(fault::FaultPlan::build(
                      seed, fault::faultProfile(profile), p.shape)));
}

graph::Overlay
whatIfMonitorLevel(const Pipeline &p, power::Level level)
{
    auto cfg = p.spec.monitor;
    cfg.level = level;
    return graph::Overlay().set(
        p.monitorConfigIn,
        graph::Value::of(cfg,
                         core::fingerprintMonitorMeasureConfig(cfg)));
}

graph::Overlay
whatIfMonitorThresholds(const Pipeline &p, double remap_threshold,
                        double replace_threshold)
{
    auto cfg = p.spec.monitor;
    cfg.remapThreshold = remap_threshold;
    cfg.replaceThreshold = replace_threshold;
    // The measure fingerprint excludes thresholds, so this overlay's
    // cone evaluates entirely from cache (zero op executions).
    return graph::Overlay().set(
        p.monitorConfigIn,
        graph::Value::of(cfg,
                         core::fingerprintMonitorMeasureConfig(cfg)));
}

graph::Overlay
parseWhatIf(const Pipeline &p, const std::string &text)
{
    // Accumulate edits into config copies first, then shadow each
    // touched input exactly once — two keys landing on the same config
    // (e.g. placement-seed + clusters-per-child, or both thresholds)
    // must compose, not clobber each other.
    auto placement = p.spec.placement;
    auto remap = p.spec.remap;
    auto monitor = p.spec.monitor;
    bool embed_changed = false;
    bool distribute_changed = false;
    bool remap_changed = false;
    bool monitor_changed = false;
    graph::Overlay overlay;

    std::size_t pos = 0;
    while (pos < text.size()) {
        auto comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const auto eq = item.find('=');
        SOSIM_REQUIRE(eq != std::string::npos && eq > 0,
                      "--what-if: expected KEY=VALUE, got '" + item +
                          "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "max-swaps") {
            remap.maxSwaps = whatIfInteger<int>(key, value);
            remap_changed = true;
        } else if (key == "placement-seed") {
            placement.seed = whatIfInteger<std::uint64_t>(key, value);
            distribute_changed = true;
        } else if (key == "top-services") {
            placement.topServices = whatIfInteger<std::size_t>(key, value);
            embed_changed = true;
        } else if (key == "clusters-per-child") {
            placement.clustersPerChild =
                whatIfInteger<std::size_t>(key, value);
            distribute_changed = true;
        } else if (key == "placement-embedding") {
            if (value == "score") {
                placement.embedding =
                    core::PlacementEmbedding::kScoreVector;
            } else if (value == "shape") {
                placement.embedding = core::PlacementEmbedding::kShape;
            } else {
                SOSIM_REQUIRE(false, "--what-if: placement-embedding "
                                     "must be score|shape, got '" +
                                         value + "'");
            }
            embed_changed = true;
        } else if (key == "repair-policy") {
            overlay.set(p.repairPolicyIn,
                        policyValue(trace::repairPolicyFromName(value)));
        } else if (key == "fault-plan") {
            const auto plan_spec = fault::parseFaultPlanSpec(value);
            overlay.set(p.planIn,
                        planValue(fault::FaultPlan::build(
                            plan_spec.seed,
                            fault::faultProfile(plan_spec.profile),
                            p.shape)));
        } else if (key == "monitor-level") {
            monitor.level = levelFromName(value);
            monitor_changed = true;
        } else if (key == "remap-threshold") {
            monitor.remapThreshold = std::stod(value);
            monitor_changed = true;
        } else if (key == "replace-threshold") {
            monitor.replaceThreshold = std::stod(value);
            monitor_changed = true;
        } else {
            SOSIM_REQUIRE(false,
                          "--what-if: unknown key '" + key + "'");
        }
    }

    if (embed_changed)
        overlay.set(p.embedConfigIn,
                    graph::Value::of(
                        placement,
                        core::fingerprintEmbedConfig(placement)));
    if (distribute_changed)
        overlay.set(p.distributeConfigIn,
                    graph::Value::of(
                        placement,
                        core::fingerprintDistributeConfig(placement)));
    if (remap_changed)
        overlay.set(p.remapConfigIn,
                    graph::Value::of(
                        remap, core::fingerprintRemapConfig(remap)));
    if (monitor_changed)
        overlay.set(
            p.monitorConfigIn,
            graph::Value::of(
                monitor,
                core::fingerprintMonitorMeasureConfig(monitor)));
    return overlay;
}

} // namespace sosim::pipeline
