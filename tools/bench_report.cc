/**
 * @file
 * Machine-readable perf regression report for the hot scoring paths.
 *
 * Runs the A/B pairs that bench/perf_micro sweeps interactively —
 * materializing reference vs fused kernels, serial vs pooled — and emits
 * a BENCH_*.json summary so the perf trajectory of the repo is recorded
 * commit over commit.  Usage:
 *
 *   bench_report [--out BENCH_report.json] [--label some-tag]
 *                [--threads N] [--repeats R] [--json]
 *                [--metrics NAME[,NAME...]]
 *                [--metrics-out FILE] [--fault-plan SEED[:PROFILE]]
 *
 * --metrics keeps only the named rows (e.g. placementFleet,
 * placementFleetShape); a population sweep none of whose rows is named
 * is skipped entirely, so a focused report costs only its own sweep.
 *
 * --json additionally prints the JSON document to stdout (the CI
 * bench-regression job pipes it into the build log).
 *
 * --fault-plan degrades the benchmark inputs with a deterministic
 * fault schedule (injected, then repaired; see src/fault) so the hot
 * paths are also measured on realistic post-repair traces.
 *
 * --metrics-out additionally dumps the obs registry (counters gathered
 * while benchmarking: kernel invocations, stats-cache hits, pool busy
 * time) as a metrics JSON document next to the benchmark numbers.
 *
 * Every measurement is best-of-R wall time, which is robust against
 * scheduler noise on shared machines.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/oblivious.h"
#include "cluster/shape_index.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/trace_export.h"
#include "trace/kernels.h"
#include "trace/repair.h"
#include "core/asynchrony.h"
#include "core/placement.h"
#include "core/remap.h"
#include "core/service_traces.h"
#include "graph/ops.h"
#include "power/power_tree.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "workload/catalog.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

workload::GeneratedDatacenter
makeDc(int instances_per_service)
{
    workload::DatacenterSpec spec;
    spec.name = "bench_report";
    spec.topology.suites = 2;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    // Paper-scale traces: fine-grained power samples (the production
    // meters the paper draws on report at minute granularity).  Scoring
    // cost grows with trace length while k-means does not, so coarse
    // traces would understate the kernel layer's share.
    spec.intervalMinutes = 5;
    spec.weeks = 2;
    spec.seed = 33;
    spec.services.push_back(
        {workload::webFrontend(), instances_per_service});
    spec.services.push_back(
        {workload::dbBackend(), instances_per_service});
    spec.services.push_back({workload::hadoop(), instances_per_service});
    return workload::generate(spec);
}

/** Best-of-repeats wall time of fn(), in milliseconds. */
template <typename Fn>
double
bestMs(int repeats, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        best = std::min(best, ms);
    }
    return best;
}

/** Every row name a report can carry (the --metrics vocabulary). */
const std::string kRowNames[] = {
    "scoreVectors",   "scoreVectorsBlocked",   "placementEndToEnd",
    "remapRefine",    "remapRefineBlocked",    "graphPipeline",
    "placementFleet", "remapRefineExhaustive", "placementFleetShape"};

struct Measurement {
    std::string name;
    int population = 0;
    std::size_t samples = 0;
    // referenceMs < 0 means "no materializing baseline exists for this
    // path" (e.g. remap, which was rewritten in place); the JSON row
    // then carries null instead of a bogus 0 ms / 0x speedup.
    double referenceMs = -1.0;
    double fusedMs = 0.0;
    double pooledMs = 0.0;
    // Real pool sizes while the fused / pooled timings ran, read back
    // from util::threadCount() at measurement time.  The top-level
    // "pool_threads" field only records the *requested* pooled width;
    // these per-row fields record what each timing actually used.
    std::size_t fusedThreads = 1;
    std::size_t pooledThreads = 1;
};

void
writeJson(std::ostream &os, const std::vector<Measurement> &rows,
          const std::string &label, std::size_t pool_threads, int repeats)
{
    // Hardware honesty: record what the machine offered alongside what
    // the run requested, so a report from an oversubscribed run (more
    // pool threads than cores) can never masquerade as a clean one in a
    // later comparison.
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t hw_threads = hw > 0 ? hw : 1;

    os << "{\n  \"label\": ";
    obs::json::writeString(os, label);
    os << ",\n  \"timestamp_utc\": ";
    obs::json::writeString(os, obs::utcTimestamp());
    os << ",\n";
    os << "  \"pool_threads\": " << pool_threads << ",\n";
    os << "  \"hardware_concurrency\": " << hw_threads << ",\n";
    os << "  \"oversubscribed\": "
       << (pool_threads > hw_threads ? "true" : "false") << ",\n";
    os << "  \"kernel_isa\": ";
    obs::json::writeString(os, trace::kernelIsaName());
    os << ",\n";
    os << "  \"repeats\": " << repeats << ",\n";
    os << "  \"results\": [\n";
    // A row without a materializing baseline carries null reference and
    // speedups; writeNumber turns the NaN ratios into null.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &m = rows[i];
        const double ref = m.referenceMs >= 0.0 ? m.referenceMs : nan;
        os << "    {\"name\": ";
        obs::json::writeString(os, m.name);
        os << ", \"population\": " << m.population
           << ", \"samples_per_trace\": " << m.samples
           << ", \"reference_ms\": ";
        obs::json::writeNumber(os, ref);
        os << ", \"fused_ms\": ";
        obs::json::writeNumber(os, m.fusedMs);
        os << ", \"pooled_ms\": ";
        obs::json::writeNumber(os, m.pooledMs);
        os << ", \"fused_threads\": " << m.fusedThreads
           << ", \"pooled_threads\": " << m.pooledThreads
           << ", \"speedup_fused\": ";
        obs::json::writeNumber(os, m.fusedMs > 0.0 ? ref / m.fusedMs : nan);
        os << ", \"speedup_pooled\": ";
        obs::json::writeNumber(os,
                               m.pooledMs > 0.0 ? ref / m.pooledMs : nan);
        os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_report.json";
    std::string metrics_out;
    std::string fault_plan;
    std::string flight_record;
    std::string label = "dev";
    std::vector<std::string> metrics; // Empty: every row.
    std::size_t pool_threads = util::threadCount();
    int repeats = 5;
    bool json_stdout = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "bench_report: " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--out")
            out = next("--out");
        else if (arg == "--metrics-out")
            metrics_out = next("--metrics-out");
        else if (arg == "--metrics") {
            std::istringstream list(next("--metrics"));
            for (std::string name; std::getline(list, name, ',');) {
                if (std::find(std::begin(kRowNames), std::end(kRowNames),
                              name) == std::end(kRowNames)) {
                    std::cerr << "bench_report: unknown metric '" << name
                              << "'\n";
                    return 2;
                }
                metrics.push_back(name);
            }
        } else if (arg == "--label")
            label = next("--label");
        else if (arg == "--threads")
            pool_threads = util::integerFlagOrExit<std::size_t>(
                "bench_report", arg, next("--threads"));
        else if (arg == "--repeats")
            repeats = util::integerFlagOrExit<int>("bench_report", arg,
                                                   next("--repeats"));
        else if (arg == "--fault-plan")
            fault_plan = next("--fault-plan");
        else if (arg == "--flight-record")
            flight_record = next("--flight-record");
        else if (arg == "--json")
            json_stdout = true;
        else {
            std::cerr << "usage: bench_report [--out FILE] [--label TAG] "
                         "[--threads N] [--repeats R] [--json] "
                         "[--metrics NAME[,NAME...]] "
                         "[--metrics-out FILE] "
                         "[--fault-plan SEED[:PROFILE]] "
                         "[--flight-record FILE]\n";
            return 2;
        }
    }
    if (!flight_record.empty()) {
        obs::EventRecorder::instance().setCapacity(1U << 16U);
        obs::EventRecorder::instance().setEnabled(true);
    }

    const auto wanted = [&](std::initializer_list<std::string> names) {
        if (metrics.empty())
            return true;
        for (const auto &name : names)
            if (std::find(metrics.begin(), metrics.end(), name) !=
                metrics.end())
                return true;
        return false;
    };

    std::vector<Measurement> rows;
    for (const int per_service : {16, 64, 128}) {
        if (!wanted({"scoreVectors", "scoreVectorsBlocked",
                     "placementEndToEnd", "remapRefine",
                     "remapRefineBlocked", "graphPipeline"}))
            break;
        const auto dc = makeDc(per_service);
        auto traces = dc.trainingTraces();
        // Optional degraded-input mode: inject + repair before timing,
        // so the benchmarked paths see the realistic post-repair shape
        // (stuck windows, interpolated gaps) instead of pristine traces.
        if (!fault_plan.empty()) {
            const auto fp_spec = fault::parseFaultPlanSpec(fault_plan);
            const auto plan = fault::FaultPlan::build(
                fp_spec.seed, fault::faultProfile(fp_spec.profile),
                {traces.size(), traces.front().size()});
            const auto report = fault::injectTraceFaults(traces, plan);
            const auto repair = trace::repairAll(
                traces, trace::RepairPolicy::Interpolate);
            std::cerr << "bench_report: fault plan " << fault_plan
                      << ": dropped " << report.samplesDropped
                      << ", repaired " << repair.samplesRepaired
                      << " samples\n";
        }
        std::vector<std::size_t> service_of(dc.instanceCount());
        for (std::size_t i = 0; i < dc.instanceCount(); ++i)
            service_of[i] = dc.serviceOf(i);
        const auto straces =
            core::extractServiceTraces(traces, service_of, 3);
        power::PowerTree tree(dc.spec().topology);
        const int population = static_cast<int>(traces.size());
        const std::size_t samples = traces.front().size();
        std::cerr << "bench_report: population " << population << " ("
                  << samples << " samples/trace)\n";

        Measurement sv{"scoreVectors", population, samples};
        sv.referenceMs = bestMs(repeats, [&] {
            core::reference::scoreVectors(traces, straces.straces);
        });
        util::setThreadCount(1);
        sv.fusedThreads = util::threadCount();
        sv.fusedMs = bestMs(repeats, [&] {
            core::scoreVectors(traces, straces.straces);
        });
        util::setThreadCount(pool_threads);
        sv.pooledThreads = util::threadCount();
        sv.pooledMs = bestMs(repeats, [&] {
            core::scoreVectors(traces, straces.straces);
        });
        rows.push_back(sv);

        Measurement svb{"scoreVectorsBlocked", population, samples};
        svb.referenceMs = sv.referenceMs;
        util::setThreadCount(1);
        svb.fusedThreads = util::threadCount();
        svb.fusedMs = bestMs(repeats, [&] {
            core::scoreVectorsBlocked(traces, straces.straces);
        });
        util::setThreadCount(pool_threads);
        svb.pooledThreads = util::threadCount();
        svb.pooledMs = bestMs(repeats, [&] {
            core::scoreVectorsBlocked(traces, straces.straces);
        });
        rows.push_back(svb);

        Measurement pl{"placementEndToEnd", population, samples};
        core::PlacementConfig ref_config;
        ref_config.scoring = core::ScoringImpl::kReference;
        util::setThreadCount(1);
        pl.fusedThreads = util::threadCount();
        pl.referenceMs = bestMs(repeats, [&] {
            core::PlacementEngine(tree, ref_config)
                .place(traces, service_of);
        });
        pl.fusedMs = bestMs(repeats, [&] {
            core::PlacementEngine(tree, {}).place(traces, service_of);
        });
        util::setThreadCount(pool_threads);
        pl.pooledThreads = util::threadCount();
        pl.pooledMs = bestMs(repeats, [&] {
            core::PlacementEngine(tree, {}).place(traces, service_of);
        });
        rows.push_back(pl);

        Measurement rm{"remapRefine", population, samples};
        const auto start = baseline::obliviousPlacement(tree, service_of);
        core::RemapConfig rc;
        rc.maxSwaps = 16;
        core::Remapper remapper(tree, rc);
        util::setThreadCount(1);
        rm.fusedThreads = util::threadCount();
        rm.fusedMs = bestMs(repeats, [&] {
            power::Assignment assignment = start;
            remapper.refine(assignment, traces);
        });
        util::setThreadCount(pool_threads);
        rm.pooledThreads = util::threadCount();
        rm.pooledMs = bestMs(repeats, [&] {
            power::Assignment assignment = start;
            remapper.refine(assignment, traces);
        });
        rows.push_back(rm);

        Measurement rmb{"remapRefineBlocked", population, samples};
        core::RemapConfig rcb;
        rcb.maxSwaps = 16;
        rcb.kernels = trace::KernelMode::kBlocked;
        core::Remapper remapper_blocked(tree, rcb);
        util::setThreadCount(1);
        rmb.fusedThreads = util::threadCount();
        rmb.fusedMs = bestMs(repeats, [&] {
            power::Assignment assignment = start;
            remapper_blocked.refine(assignment, traces);
        });
        util::setThreadCount(pool_threads);
        rmb.pooledThreads = util::threadCount();
        rmb.pooledMs = bestMs(repeats, [&] {
            power::Assignment assignment = start;
            remapper_blocked.refine(assignment, traces);
        });
        rows.push_back(rmb);

        // Op-graph pipeline: cold evaluation (reference) vs a warm
        // what-if re-run that recomputes only the remap cone (fused /
        // pooled).  The overlaid max-swaps value changes every repeat
        // so the MRU cache cannot short-circuit the timed work — the
        // ratio is the warm-cache ablation speedup the graph buys.
        Measurement gp{"graphPipeline", population, samples};
        pipeline::PipelineSpec pspec;
        pspec.dc = dc.spec();
        pspec.remap.maxSwaps = 16;
        util::setThreadCount(1);
        gp.fusedThreads = util::threadCount();
        {
            double best = 1e300;
            for (int r = 0; r < repeats; ++r) {
                auto cold = pipeline::buildPipeline(pspec); // untimed
                const auto t0 = std::chrono::steady_clock::now();
                pipeline::runPipeline(cold);
                const auto t1 = std::chrono::steady_clock::now();
                best = std::min(
                    best, std::chrono::duration<double, std::milli>(
                              t1 - t0)
                              .count());
            }
            gp.referenceMs = best;
        }
        auto warm = pipeline::buildPipeline(pspec);
        pipeline::runPipeline(warm);
        int tick = 0;
        gp.fusedMs = bestMs(repeats, [&] {
            pipeline::runPipeline(
                warm, pipeline::whatIfMaxSwaps(warm, 17 + ++tick));
        });
        util::setThreadCount(pool_threads);
        gp.pooledThreads = util::threadCount();
        gp.pooledMs = bestMs(repeats, [&] {
            pipeline::runPipeline(
                warm, pipeline::whatIfMaxSwaps(warm, 17 + ++tick));
        });
        rows.push_back(gp);
    }

    // Fleet-scale remap rows: populations far beyond the kernel sweep
    // above, where the swap scan is only tractable with the sharded
    // fan-out plus cluster pruning (RemapConfig::prune).  Coarser
    // 30-minute traces keep the whole-fleet generation affordable; the
    // remap cost drivers (pairs scanned x samples per pass) are
    // preserved, just scaled — see EXPERIMENTS.md.  The extra
    // remapRefineExhaustive row times the same population with pruning
    // off, so the report carries its own ablation.
    for (const int fleet_pop : {1024, 4096}) {
        if (!wanted({"remapRefine", "remapRefineExhaustive"}))
            break;
        workload::PresetOptions fleet_opts;
        fleet_opts.intervalMinutes = 30;
        fleet_opts.weeks = 2;
        const auto dc = workload::generate(
            workload::buildFleetSpec(fleet_pop, fleet_opts));
        const auto traces = dc.trainingTraces();
        std::vector<std::size_t> service_of(dc.instanceCount());
        for (std::size_t i = 0; i < dc.instanceCount(); ++i)
            service_of[i] = dc.serviceOf(i);
        power::PowerTree tree(dc.spec().topology);
        const int population = static_cast<int>(traces.size());
        const std::size_t samples = traces.front().size();
        std::cerr << "bench_report: fleet population " << population
                  << " (" << samples << " samples/trace)\n";
        const auto start = baseline::obliviousPlacement(tree, service_of);

        core::RemapConfig rc;
        rc.maxSwaps = 16;
        rc.prune = core::PruneMode::kCluster;
        rc.pruneKeepFraction = 0.25;
        core::Remapper remapper(tree, rc);
        Measurement rm{"remapRefine", population, samples};
        util::setThreadCount(1);
        rm.fusedThreads = util::threadCount();
        rm.fusedMs = bestMs(repeats, [&] {
            power::Assignment assignment = start;
            remapper.refine(assignment, traces);
        });
        util::setThreadCount(pool_threads);
        rm.pooledThreads = util::threadCount();
        rm.pooledMs = bestMs(repeats, [&] {
            power::Assignment assignment = start;
            remapper.refine(assignment, traces);
        });
        rows.push_back(rm);

        core::RemapConfig rc_off;
        rc_off.maxSwaps = 16;
        core::Remapper remapper_off(tree, rc_off);
        Measurement ab{"remapRefineExhaustive", population, samples};
        util::setThreadCount(1);
        ab.fusedThreads = util::threadCount();
        ab.fusedMs = bestMs(repeats, [&] {
            power::Assignment assignment = start;
            remapper_off.refine(assignment, traces);
        });
        util::setThreadCount(pool_threads);
        ab.pooledThreads = util::threadCount();
        ab.pooledMs = bestMs(repeats, [&] {
            power::Assignment assignment = start;
            remapper_off.refine(assignment, traces);
        });
        rows.push_back(ab);
    }

    // Fleet-scale placement rows: the frontier-parallel balanced
    // partition (PlacementEngine::distribute) at populations where the
    // serial recursion dominated pipeline latency.  placementFleet is
    // the paper's score-vector embedding end to end; placementFleetShape
    // deals the same population from the shared 16-bucket shape index
    // (built once, untimed, exactly as the pipeline shares it across
    // placement / remap pruning / the monitor), so the pair is the
    // embedding-cost ablation.  10240 exercises the sixteen-service
    // fleet spec.
    for (const int fleet_pop : {1024, 4096, 10240}) {
        if (!wanted({"placementFleet", "placementFleetShape"}))
            break;
        workload::PresetOptions fleet_opts;
        fleet_opts.intervalMinutes = 30;
        fleet_opts.weeks = 2;
        const auto dc = workload::generate(
            workload::buildFleetSpec(fleet_pop, fleet_opts));
        const auto traces = dc.trainingTraces();
        std::vector<std::size_t> service_of(dc.instanceCount());
        for (std::size_t i = 0; i < dc.instanceCount(); ++i)
            service_of[i] = dc.serviceOf(i);
        power::PowerTree tree(dc.spec().topology);
        const int population = static_cast<int>(traces.size());
        const std::size_t samples = traces.front().size();
        std::cerr << "bench_report: fleet placement population "
                  << population << " (" << samples
                  << " samples/trace)\n";

        Measurement pf{"placementFleet", population, samples};
        util::setThreadCount(1);
        pf.fusedThreads = util::threadCount();
        pf.fusedMs = bestMs(repeats, [&] {
            core::PlacementEngine(tree, {}).place(traces, service_of);
        });
        util::setThreadCount(pool_threads);
        pf.pooledThreads = util::threadCount();
        pf.pooledMs = bestMs(repeats, [&] {
            core::PlacementEngine(tree, {}).place(traces, service_of);
        });
        rows.push_back(pf);

        std::vector<const double *> trace_rows;
        trace_rows.reserve(traces.size());
        for (const auto &ts : traces)
            trace_rows.push_back(ts.samples().data());
        const auto index =
            cluster::ShapeIndex::build(trace_rows, samples);
        core::PlacementConfig shape_cfg;
        shape_cfg.embedding = core::PlacementEmbedding::kShape;
        Measurement ps{"placementFleetShape", population, samples};
        util::setThreadCount(1);
        ps.fusedThreads = util::threadCount();
        ps.fusedMs = bestMs(repeats, [&] {
            core::PlacementEngine(tree, shape_cfg)
                .place(traces, service_of, &index);
        });
        util::setThreadCount(pool_threads);
        ps.pooledThreads = util::threadCount();
        ps.pooledMs = bestMs(repeats, [&] {
            core::PlacementEngine(tree, shape_cfg)
                .place(traces, service_of, &index);
        });
        rows.push_back(ps);
    }
    util::setThreadCount(0);
    std::erase_if(rows, [&](const Measurement &m) {
        return !wanted({m.name});
    });

    std::ofstream file(out);
    if (!file) {
        std::cerr << "bench_report: cannot open " << out
                  << " for writing\n";
        return 1;
    }
    writeJson(file, rows, label, pool_threads, repeats);
    if (json_stdout)
        writeJson(std::cout, rows, label, pool_threads, repeats);

    if (!metrics_out.empty()) {
        std::ofstream mfile(metrics_out);
        if (!mfile) {
            std::cerr << "bench_report: cannot open " << metrics_out
                      << " for writing\n";
            return 1;
        }
        sosim::obs::writeMetricsJson(mfile, "bench_report-" + label);
        std::cerr << "bench_report: wrote metrics to " << metrics_out
                  << "\n";
    }

    if (!flight_record.empty()) {
        std::ofstream jfile(flight_record);
        if (!jfile) {
            std::cerr << "bench_report: cannot open " << flight_record
                      << " for writing\n";
            return 1;
        }
        obs::EventRecorder &rec = obs::EventRecorder::instance();
        const auto events = rec.collect();
        obs::writeEventJournal(jfile, events, "bench_report-" + label);
        std::cerr << "bench_report: wrote flight record ("
                  << events.size() << " events, " << rec.dropped()
                  << " dropped) to " << flight_record << "\n";
    }
    return 0;
}
