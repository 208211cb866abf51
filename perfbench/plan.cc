/**
 * @file
 * The capacity-planning workloads, plan-dc3 and plan-fleet-faulted.
 *
 * Untraced run: repetition r generates the instance of seed + r, builds
 * a fresh pipeline for it (a set-up sample), runs it cold (a plan
 * sample), then re-plans it warm under a placement-seed what-if (a
 * re-plan sample).  Repetition 0 also checks the what-if against a cold
 * rebuild under the same placement seed.
 *
 * Traced run, on the instance of the run's seed: each repetition
 * replays the pipeline's stage sequence as direct calls into the
 * layers, with a span around every call, then runs runPipeline on a
 * fresh pipeline over the same generated inputs and requires the same
 * assignment, swap list and weekly verdicts.  Tracing is switched off on
 * every other repetition; the difference in chain wall time between the
 * two halves is the tracing overhead.
 */

#include <algorithm>
#include <map>
#include <optional>

#include "baseline/oblivious.h"
#include "bench.h"
#include "cluster/shape_index.h"
#include "core/asynchrony.h"
#include "core/fingerprints.h"
#include "core/service_traces.h"
#include "graph/ops.h"
#include "obs/metrics.h"
#include "trace/kernels.h"
#include "workload/dc_presets.h"

namespace perfbench {
namespace {

using namespace sosim;

/**
 * Placement seed of the what-if (the spec's own seed is 42, so the
 * graph's MRU cache cannot serve it).  One seed for every repetition:
 * k-means work differs by seed, and a mix of seeds makes the median
 * fall between their clusters.
 */
constexpr std::uint64_t kWhatIfSeed = 1000;

/** The workload's pipeline spec for generation and fault seed `seed`. */
pipeline::PipelineSpec
planSpec(const Options &opt, std::uint64_t seed)
{
    pipeline::PipelineSpec spec;
    workload::PresetOptions preset;
    preset.seed = seed;
    preset.weeks = 3;
    if (opt.workload == "plan-dc3") {
        // Exactly `sosim report --dc 3`.
        preset.intervalMinutes = 5;
        spec.dc = workload::buildDc3Spec(preset);
    } else {
        // The bench_report fleet rows' remap settings, one population
        // up, with faults that leave real work for injection and repair.
        preset.intervalMinutes = 30;
        spec.dc = workload::buildFleetSpec(10240, preset);
        spec.faulted = true;
        spec.faultSeed = seed;
        spec.faultProfile = "harsh";
        spec.repairPolicy = trace::RepairPolicy::Interpolate;
        spec.remap.prune = core::PruneMode::kCluster;
        spec.remap.pruneKeepFraction = 0.25;
    }
    spec.remap.maxSwaps = 16;
    return spec;
}

/** The parts of a plan the correctness checks compare. */
struct PlanDigest {
    power::Assignment assignment;
    std::vector<core::SwapRecord> swaps;
    std::vector<core::MonitorObservation> weekly;
    std::vector<core::LevelComparison> levels;
};

bool
sameSwaps(const std::vector<core::SwapRecord> &a,
          const std::vector<core::SwapRecord> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const core::SwapRecord &x,
                         const core::SwapRecord &y) {
                          return x.instanceA == y.instanceA &&
                                 x.instanceB == y.instanceB &&
                                 x.rackA == y.rackA && x.rackB == y.rackB &&
                                 x.scoreAtABefore == y.scoreAtABefore &&
                                 x.scoreAtBBefore == y.scoreAtBBefore &&
                                 x.scoreAtAAfter == y.scoreAtAAfter &&
                                 x.scoreAtBAfter == y.scoreAtBAfter;
                      });
}

/** Empty when equal, else the first field that differs. */
std::string
diffPlans(const PlanDigest &a, const PlanDigest &b)
{
    if (core::fingerprintAssignment(a.assignment) !=
        core::fingerprintAssignment(b.assignment))
        return "assignment fingerprint";
    if (!sameSwaps(a.swaps, b.swaps))
        return "swap list";
    if (a.weekly.size() != b.weekly.size())
        return "weekly observation count";
    for (std::size_t w = 0; w < a.weekly.size(); ++w)
        if (a.weekly[w].fragmentationRatio !=
                b.weekly[w].fragmentationRatio ||
            a.weekly[w].action != b.weekly[w].action)
            return "weekly ratio of week " + std::to_string(w);
    if (a.levels.size() != b.levels.size())
        return "headroom level count";
    for (std::size_t l = 0; l < a.levels.size(); ++l)
        if (a.levels[l].peakReductionFraction !=
            b.levels[l].peakReductionFraction)
            return "peak reduction at level " +
                   power::levelName(a.levels[l].level);
    return {};
}

PlanDigest
digestOf(const pipeline::PipelineResult &r)
{
    return {r.optimized, r.swaps, r.weekly, r.comparison.levels};
}

/** Run `op` as one attempted operation; a throw counts as a failure. */
template <typename Fn>
void
attempt(Outcome &out, const std::string &what, Fn &&op)
{
    ++out.attempted;
    try {
        const std::string problem = op();
        if (!problem.empty())
            out.fail(what + ": " + problem);
    } catch (const std::exception &e) {
        out.fail(what + " threw: " + e.what());
    }
}

Outcome
runUntraced(const Options &opt)
{
    Outcome out;
    // CPU time of each timed step, and its wall time for the report.
    Samples setup, plan, whatif, setup_wall, plan_wall, whatif_wall;
    Samples extra, rpp;
    double rss_mb = 0.0;
    const auto start = Clock::now();
    // Repetition r plans the instance generated from seed + r, so a
    // run's medians cover several instances: k-means work, and with it
    // plan and re-plan time, differs from one instance to the next.
    for (int rep = 0; rep == 0 || secondsSince(start) < opt.seconds;
         ++rep) {
        const auto spec =
            planSpec(opt, opt.seed + static_cast<std::uint64_t>(rep));
        const power::PowerTree tree(spec.dc.topology);
        const Stopwatch sw_setup;
        auto p = pipeline::buildPipeline(spec);
        setup.add(sw_setup.cpu());
        setup_wall.add(sw_setup.wall());

        attempt(out, "cold plan", [&]() -> std::string {
            const Stopwatch sw;
            const auto r = pipeline::runPipeline(p);
            plan.add(sw.cpu());
            plan_wall.add(sw.wall());
            extra.add(100.0 * r.comparison.extraServerFraction());
            rpp.add(100.0 * r.comparison.at(power::Level::Rpp)
                                .peakReductionFraction);
            return checkAssignment(tree, r.optimized, p.instanceCount);
        });

        std::optional<PlanDigest> first_whatif;
        attempt(out, "warm what-if", [&]() -> std::string {
            const auto overlay = pipeline::whatIfPlacementSeed(p, kWhatIfSeed);
            const Stopwatch sw;
            const auto r = pipeline::runPipeline(p, overlay);
            whatif.add(sw.cpu());
            whatif_wall.add(sw.wall());
            if (rep == 0)
                first_whatif = digestOf(r);
            return checkAssignment(tree, r.optimized, p.instanceCount);
        });

        if (rep == 0)
            rss_mb = peakRssMb(); // one pipeline, its cold plan and what-if
        if (rep == 0 && first_whatif) {
            // The first warm what-if must equal a cold rebuild under the
            // same overlay value.  The old pipeline goes first so the
            // peak RSS stays that of one pipeline.
            p = pipeline::Pipeline{};
            attempt(out, "cold rebuild of the first what-if",
                    [&]() -> std::string {
                        auto cold_spec = spec;
                        cold_spec.placement.seed = kWhatIfSeed;
                        const Stopwatch sw;
                        auto cold = pipeline::buildPipeline(cold_spec);
                        setup.add(sw.cpu());
                        setup_wall.add(sw.wall());
                        const auto bad = diffPlans(
                            *first_whatif,
                            digestOf(pipeline::runPipeline(cold)));
                        return bad.empty() ? bad
                                           : "warm what-if differs in its " +
                                                 bad;
                    });
        }
    }
    out.addTime("setup_s", setup, setup_wall, 1.0, "s");
    out.addTime("plan_s", plan, plan_wall, 1.0, "s");
    out.addTime("replan_ms", whatif, whatif_wall, 1e3, "ms");
    out.add("peak_rss_mb", rss_mb, "MB");
    out.add("extra_servers_pct", extra, 0.5, 1.0, "%");
    out.add("rpp_peak_reduction_pct", rpp, 0.5, 1.0, "%");
    return out;
}

/** Spans of the direct stage sequence that stand for graph op bodies. */
const char *const kStageSpans[] = {
    "fault.inject",     "trace.repair",        "trace.stats",
    "core.asynchrony",  "baseline.oblivious",  "cluster.shape_index",
    "core.embed",       "core.place",          "core.remap",
    "core.headroom",    "core.monitor",
};

/** Counts of one direct-chain replay. */
struct ChainCounts {
    std::uint64_t dropped = 0;
    std::uint64_t stuck = 0;
    std::uint64_t repaired = 0;
    std::uint64_t swaps = 0;
    std::uint64_t pairs = 0;
};

/**
 * The report pipeline's stage sequence (graph/ops.cc buildPipeline and
 * runPipeline) as direct calls, one span per call into a layer.
 */
PlanDigest
directChain(const pipeline::PipelineSpec &spec, SpanRecorder &rec,
            ChainCounts &counts)
{
    using Scope = SpanRecorder::Scope;
    std::optional<workload::GeneratedDatacenter> dc;
    {
        Scope s(rec, "workload.generate");
        dc.emplace(workload::generate(spec.dc));
    }
    std::vector<trace::TimeSeries> training, test;
    std::vector<std::vector<trace::TimeSeries>> weeks(
        static_cast<std::size_t>(spec.dc.weeks));
    std::vector<std::size_t> service_of(dc->instanceCount());
    {
        Scope s(rec, "workload.extract");
        training = dc->trainingTraces();
        test = dc->testTraces();
        for (std::size_t i = 0; i < dc->instanceCount(); ++i)
            service_of[i] = dc->serviceOf(i);
        for (int w = 0; w < spec.dc.weeks; ++w)
            for (std::size_t i = 0; i < dc->instanceCount(); ++i)
                weeks[static_cast<std::size_t>(w)].push_back(
                    dc->weekTrace(i, w));
    }
    dc.reset();
    const power::PowerTree tree(spec.dc.topology);
    const fault::FaultPlan plan =
        spec.faulted
            ? fault::FaultPlan::build(
                  spec.faultSeed, fault::faultProfile(spec.faultProfile),
                  {training.size(), training.front().size()})
            : fault::FaultPlan::build(0, fault::faultProfile("none"),
                                      fault::TraceShape{});

    const auto inject = [&](const std::vector<trace::TimeSeries> &in) {
        Scope s(rec, "fault.inject");
        auto injected = fault::injectedCopy(in, plan);
        counts.dropped += injected.report.samplesDropped;
        counts.stuck += injected.report.samplesStuck;
        return injected;
    };
    const auto repair = [&](const std::vector<trace::TimeSeries> &in) {
        Scope s(rec, "trace.repair");
        auto repaired = trace::repairedCopy(in, spec.repairPolicy);
        counts.repaired += repaired.summary.samplesRepaired;
        return repaired;
    };

    const auto train = repair(inject(training).traces);
    const auto held_out = repair(inject(test).traces);
    training.clear();
    test.clear();
    const auto &population = train.traces;
    {
        Scope s(rec, "trace.stats");
        double total_mean = 0.0;
        for (const auto &ts : population)
            total_mean += trace::computeStats(trace::TraceView(ts)).mean;
        if (!(total_mean >= 0.0))
            throw std::runtime_error("training mean power is not finite");
    }
    {
        Scope s(rec, "core.asynchrony");
        if (!(core::asynchronyScore(population) >= 0.0))
            throw std::runtime_error("asynchrony score is not finite");
    }
    power::Assignment oblivious;
    {
        Scope s(rec, "baseline.oblivious");
        oblivious = baseline::obliviousPlacement(tree, service_of);
    }
    cluster::ShapeIndex shapes;
    {
        Scope s(rec, "cluster.shape_index");
        std::vector<const double *> rows;
        rows.reserve(population.size());
        for (const auto &ts : population)
            rows.push_back(ts.samples().data());
        shapes = cluster::ShapeIndex::build(rows,
                                            population.front().size());
    }
    std::vector<cluster::Point> points;
    {
        Scope s(rec, "core.embed");
        const auto straces = core::extractServiceTraces(
            population, service_of, spec.placement.topServices);
        points = core::embedPopulation(population, straces.straces,
                                       spec.placement.scoring,
                                       spec.placement.kernels);
    }
    PlanDigest d;
    {
        Scope s(rec, "core.place");
        d.assignment = core::PlacementEngine(tree, spec.placement)
                           .placeWithEmbedding(points);
    }
    {
        auto &pairs = obs::registry().counter("remap.pairs_evaluated");
        const auto before = pairs.value();
        Scope s(rec, "core.remap");
        d.swaps = core::Remapper(tree, spec.remap)
                      .refineInPlace(d.assignment, population,
                                     &train.summary.validBefore, &shapes);
        counts.pairs += pairs.value() - before;
        counts.swaps += d.swaps.size();
    }
    {
        fault::InjectedTraces tripped;
        {
            Scope s(rec, "fault.inject");
            tripped.traces = held_out.traces;
            tripped.report = fault::injectBreakerTrips(
                tripped.traces, tree, d.assignment, plan);
        }
        Scope s(rec, "core.headroom");
        d.levels = core::comparePlacements(tree, tripped.traces, oblivious,
                                           d.assignment)
                       .levels;
    }
    core::FragmentationMonitor monitor(tree, spec.monitor);
    for (const auto &week : weeks) {
        const auto injected = inject(week);
        Scope s(rec, "core.monitor");
        const auto t0 = Clock::now();
        const auto m = core::measureWeek(tree, spec.monitor,
                                         injected.traces, d.assignment,
                                         &shapes);
        d.weekly.push_back(monitor.ingest(m, secondsSince(t0)));
    }
    return d;
}

Outcome
runTraced(const Options &opt)
{
    const auto spec = planSpec(opt, opt.seed);
    Outcome out;
    SpanRecorder rec;
    Samples chain_on, chain_off;
    ChainCounts counts;
    std::uint64_t whatif_ops = 0, whatif_hits = 0;
    std::vector<core::LevelComparison> levels;
    const auto start = Clock::now();
    // Repetition 0 warms the allocator and page cache and is not
    // counted; after it, odd repetitions are traced and even ones not,
    // at least one of each.
    for (int rep = 0; rep < 3 || secondsSince(start) < opt.seconds;
         ++rep) {
        const bool traced = rep % 2 == 1;
        rec.setRun(rep);
        rec.setEnabled(traced);
        std::optional<PlanDigest> direct;
        attempt(out, "direct stage chain", [&]() -> std::string {
            ChainCounts c;
            const auto t0 = Clock::now();
            direct = directChain(spec, rec, c);
            if (rep > 0)
                (traced ? chain_on : chain_off).add(secondsSince(t0));
            counts = c;
            levels = direct->levels;
            return {};
        });
        if (!traced || !direct)
            continue;

        attempt(out, "runPipeline against the direct chain",
                [&]() -> std::string {
                    std::optional<pipeline::Pipeline> p;
                    {
                        SpanRecorder::Scope s(rec, "graph.build");
                        p.emplace(pipeline::buildPipeline(spec));
                    }
                    std::optional<pipeline::PipelineResult> r;
                    {
                        SpanRecorder::Scope s(rec, "graph.run");
                        r.emplace(pipeline::runPipeline(*p));
                    }
                    {
                        SpanRecorder::Scope s(rec, "graph.whatif");
                        const auto w = pipeline::runPipeline(
                            *p, pipeline::whatIfPlacementSeed(
                                    *p, kWhatIfSeed));
                        whatif_ops = w.opsExecuted;
                        whatif_hits = w.cacheHits;
                    }
                    const auto bad = diffPlans(*direct, digestOf(*r));
                    return bad.empty() ? bad
                                       : "runPipeline differs from the "
                                         "direct chain in its " +
                                             bad;
                });
    }

    // Glue: runPipeline wall minus the direct stage spans on the same
    // inputs, per traced repetition.
    std::map<int, double> run_s, glue, glue_share;
    for (const auto &[run, wall] : rec.wallByRun("graph.run")) {
        if (wall <= 0.0)
            continue; // buildPipeline threw, so runPipeline never ran
        run_s[run] = wall;
        double stages = 0.0;
        for (const char *name : kStageSpans)
            stages += rec.selfByRun(name)[run];
        glue[run] = wall - stages;
        glue_share[run] = (wall - stages) / wall;
    }
    for (const char *name : {"workload.generate", "graph.build"})
        out.add(std::string(name) + "_s", samplesOf(rec.selfByRun(name)),
                0.5, 1.0, "s");
    for (const char *name : kStageSpans)
        out.add(std::string(name) + "_s", samplesOf(rec.selfByRun(name)),
                0.5, 1.0, "s");
    out.add("core.embed.cpu_per_wall", rec.cpuPerWall("core.embed"), 0.5,
            1.0, "ratio");
    out.add("core.place.cpu_per_wall", rec.cpuPerWall("core.place"), 0.5,
            1.0, "ratio");
    out.add("core.remap.cpu_per_wall", rec.cpuPerWall("core.remap"), 0.5,
            1.0, "ratio");
    out.add("fault.samples_dropped", static_cast<double>(counts.dropped),
            "count");
    out.add("fault.samples_stuck", static_cast<double>(counts.stuck),
            "count");
    out.add("trace.samples_repaired", static_cast<double>(counts.repaired),
            "count");
    out.add("core.remap.swaps_accepted", static_cast<double>(counts.swaps),
            "count");
    out.add("core.remap.pairs_evaluated", static_cast<double>(counts.pairs),
            "count");
    out.add("core.remap.accept_ratio",
            counts.pairs ? static_cast<double>(counts.swaps) /
                               static_cast<double>(counts.pairs)
                         : 0.0,
            "ratio");
    for (const auto &lc : levels)
        if (lc.level != power::Level::Datacenter &&
            lc.level != power::Level::Rack)
            out.add("power.peak_reduction_pct." + power::levelName(lc.level),
                    100.0 * lc.peakReductionFraction, "%");
    out.add("graph.run_s", samplesOf(run_s), 0.5, 1.0, "s");
    out.add("graph.whatif_ops_executed", static_cast<double>(whatif_ops),
            "count");
    out.add("graph.whatif_cache_hits", static_cast<double>(whatif_hits),
            "count");
    out.add("graph.glue_s", samplesOf(glue), 0.5, 1.0, "s");
    out.add("graph.glue_share", samplesOf(glue_share), 0.5, 1.0, "ratio");
    out.add("bench.trace_overhead_pct",
            100.0 * (chain_on.median() / chain_off.median() - 1.0), "%",
            chain_on.size() + chain_off.size());
    if (!opt.spansOut.empty() && !rec.write(opt.spansOut))
        out.fail("cannot write spans to " + opt.spansOut);
    return out;
}

} // namespace

Outcome
runPlanWorkload(const Options &opt)
{
    return opt.trace ? runTraced(opt) : runUntraced(opt);
}

} // namespace perfbench
