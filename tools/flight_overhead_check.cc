/**
 * @file
 * End-to-end cost gate for the flight recorder.
 *
 * Runs the full report pipeline (population 384, faulted) twice per
 * repeat — recorder disabled, then recorder enabled with a sink-sized
 * ring — and compares best-of times.  The enabled run must stay within
 * 5% of the disabled run: that is the contract that lets `sosim report
 * --flight-record` be turned on in CI and in the field without
 * distorting what it observes.
 *
 * The comparison is self-relative (same binary, same process, same
 * machine), so no committed baseline is needed and the check holds on
 * any hardware.  Each measured iteration rebuilds the pipeline from
 * scratch: runPipeline is incremental over a warm graph, and a cached
 * re-run would measure the memo table, not the instrumented work.
 *
 * Both sides are timed in process CPU time (CLOCK_PROCESS_CPUTIME_ID):
 * on a shared host, wall time also counts the cycles neighbours steal,
 * which swung the best-of-5 wall ratio well past the budget in either
 * direction.  The pool keeps its default width, so the recorder's
 * multi-lane paths (scope propagation into worker chunks, per-thread
 * shards and sequence blocks) are inside the measurement.  The wall
 * ratio is printed beside it.
 *
 *   flight_overhead_check [--repeats N] [--max-ratio R]
 *
 * Exits 0 on pass, 1 when the enabled run exceeds the budget.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include <time.h>

#include "graph/ops.h"
#include "obs/events.h"
#include "obs/obs.h"
#include "trace/repair.h"
#include "util/parse.h"
#include "workload/catalog.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

constexpr int kPopulation = 384;

pipeline::PipelineSpec
makeSpec()
{
    pipeline::PipelineSpec spec;
    spec.dc.name = "flight_overhead_check";
    spec.dc.topology.suites = 2;
    spec.dc.topology.msbsPerSuite = 2;
    spec.dc.topology.sbsPerMsb = 2;
    spec.dc.topology.rppsPerSb = 2;
    spec.dc.topology.racksPerRpp = 2;
    spec.dc.intervalMinutes = 5;
    spec.dc.weeks = 2;
    spec.dc.seed = 33;
    const int per_service = kPopulation / 3;
    spec.dc.services.push_back({workload::webFrontend(), per_service});
    spec.dc.services.push_back({workload::dbBackend(), per_service});
    spec.dc.services.push_back({workload::hadoop(), per_service});
    // Faulted input exercises the chattiest emitters (inject + repair +
    // per-pair remap rejects), which is exactly the worst case the 5%
    // budget has to cover.
    spec.faulted = true;
    spec.faultSeed = 7;
    spec.faultProfile = "harsh";
    spec.repairPolicy = trace::RepairPolicy::Interpolate;
    return spec;
}

/** Process CPU time (all threads), in milliseconds. */
double
cpuNowMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

/** One build + run: its CPU and wall milliseconds. */
struct Timing {
    double cpuMs = 0.0;
    double wallMs = 0.0;
};

Timing
runOnce()
{
    const double cpu0 = cpuNowMs();
    const auto t0 = std::chrono::steady_clock::now();
    auto p = pipeline::buildPipeline(makeSpec());
    const auto result = pipeline::runPipeline(p);
    const auto t1 = std::chrono::steady_clock::now();
    const double cpu1 = cpuNowMs();
    if (result.opsExecuted == 0) {
        std::cerr << "flight_overhead_check: fresh pipeline executed no "
                     "ops — the measurement is not end-to-end\n";
        std::exit(2);
    }
    return {cpu1 - cpu0,
            std::chrono::duration<double, std::milli>(t1 - t0).count()};
}

/** Keep the per-clock minimum of `best` and `t`. */
void
keepBest(Timing &best, const Timing &t)
{
    best.cpuMs = std::min(best.cpuMs, t.cpuMs);
    best.wallMs = std::min(best.wallMs, t.wallMs);
}

} // namespace

int
main(int argc, char **argv)
{
    int repeats = 5;
    double max_ratio = 1.05;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--repeats" && i + 1 < argc)
            repeats = util::integerFlagOrExit<int>("flight_overhead_check",
                                                   arg, argv[++i]);
        else if (arg == "--max-ratio" && i + 1 < argc)
            max_ratio = std::atof(argv[++i]);
        else {
            std::cerr << "usage: flight_overhead_check [--repeats N] "
                         "[--max-ratio R]\n";
            return 2;
        }
    }

    auto &rec = obs::EventRecorder::instance();
    // Same ring size the CLI uses when a sink is requested, so the
    // measurement covers the exact configuration users run.
    rec.setCapacity(1U << 16U);

    // One untimed warm-up settles allocator and page-cache state before
    // either side is measured.
    runOnce();

    // Interleave disabled/enabled repeats so drift (thermal, competing
    // load) hits both sides equally; best-of per side then cancels it.
    Timing best_off{1e300, 1e300};
    Timing best_on{1e300, 1e300};
    std::uint64_t events_seen = 0;
    for (int r = 0; r < repeats; ++r) {
        rec.setEnabled(false);
        rec.reset();
        keepBest(best_off, runOnce());

        rec.reset();
        rec.setEnabled(true);
        keepBest(best_on, runOnce());
        rec.setEnabled(false);
        events_seen = std::max(events_seen, rec.recorded());
    }
    rec.reset();

    const double ratio = best_on.cpuMs / best_off.cpuMs;
    std::cout << "flight_overhead_check: CPU time disabled "
              << best_off.cpuMs << " ms, enabled " << best_on.cpuMs
              << " ms, ratio " << ratio << " (budget " << max_ratio
              << "); wall ratio " << best_on.wallMs / best_off.wallMs
              << " (" << best_off.wallMs << " / " << best_on.wallMs
              << " ms), " << events_seen << " events/run\n";
#if SOSIM_OBS_ENABLED
    if (events_seen == 0) {
        std::cerr << "flight_overhead_check: enabled run recorded no "
                     "events — the instrumented path was not exercised\n";
        return 2;
    }
#endif
    if (ratio > max_ratio) {
        std::cerr << "flight_overhead_check: recorder-enabled report "
                     "exceeded the end-to-end overhead budget\n";
        return 1;
    }
    std::cout << "flight_overhead_check: PASS\n";
    return 0;
}
