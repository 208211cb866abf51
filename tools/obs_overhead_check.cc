/**
 * @file
 * Guard against the instrumentation layer taxing the hot path.
 *
 * Re-measures the scoreVectors reference-vs-fused speedup on the
 * bench_report workload (population 192) with the obs macros compiled in
 * and compares the ratio against the one committed in
 * BENCH_pr1_kernel_layer.json.  Comparing *ratios* cancels the machine's
 * absolute speed, so the check holds on any hardware: the instrumented
 * build must keep at least 95% of the recorded speedup.
 *
 * Since the flight recorder landed, the measured path also carries the
 * SOSIM_EVENT macros compiled in but *idle* (recorder disabled): the
 * macro is a relaxed load and a branch when no sink is attached, and
 * this check is the regression gate proving that stays free.  The
 * recorder is asserted idle before and after the measurement so a
 * stray setEnabled can't silently turn this into an enabled-path
 * measurement.
 *
 *   obs_overhead_check path/to/BENCH_pr1_kernel_layer.json
 *
 * Exits 0 on pass, 1 on regression, 77 (ctest SKIP_RETURN_CODE) when
 * the baseline JSON is missing.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/asynchrony.h"
#include "core/service_traces.h"
#include "obs/events.h"
#include "obs/json.h"
#include "util/parallel.h"
#include "workload/catalog.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

constexpr int kPopulation = 192;
constexpr double kKeepFraction = 0.95;

/** The bench_report workload at per_service = population / 3. */
workload::GeneratedDatacenter
makeDc()
{
    workload::DatacenterSpec spec;
    spec.name = "obs_overhead_check";
    spec.topology.suites = 2;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 5;
    spec.weeks = 2;
    spec.seed = 33;
    const int per_service = kPopulation / 3;
    spec.services.push_back({workload::webFrontend(), per_service});
    spec.services.push_back({workload::dbBackend(), per_service});
    spec.services.push_back({workload::hadoop(), per_service});
    return workload::generate(spec);
}

template <typename Fn>
double
bestMs(int repeats, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best,
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    return best;
}

/**
 * "speedup_fused" of the committed scoreVectors row at the checked
 * population, or -1 when the file is missing or the row or its speedup
 * is absent or null.  A file that is not JSON exits 2: a corrupt
 * baseline must not read as a skipped check.
 */
double
baselineSpeedup(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return -1.0;
    std::stringstream buffer;
    buffer << in.rdbuf();
    obs::json::Value doc;
    std::string error;
    if (!obs::json::parse(buffer.str(), doc, &error)) {
        std::cerr << "obs_overhead_check: " << path << " is not JSON: "
                  << error << "\n";
        std::exit(2);
    }
    const obs::json::Value *results = doc.find("results");
    if (results == nullptr)
        return -1.0;
    for (const obs::json::Value &row : results->items) {
        const obs::json::Value *name = row.find("name");
        const obs::json::Value *pop = row.find("population");
        const obs::json::Value *speedup = row.find("speedup_fused");
        if (name == nullptr || name->text != "scoreVectors" ||
            pop == nullptr ||
            pop->asUnsigned() != std::uint64_t{kPopulation} ||
            speedup == nullptr)
            continue;
        return speedup->asDouble().value_or(-1.0);
    }
    return -1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::cerr << "usage: obs_overhead_check BASELINE.json\n";
        return 2;
    }
    const double baseline = baselineSpeedup(argv[1]);
    if (baseline <= 0.0) {
        std::cerr << "obs_overhead_check: no scoreVectors/" << kPopulation
                  << " speedup in " << argv[1] << " — skipping\n";
        return 77;
    }

    // The recorder must be idle: no events stored, enabled() false, so
    // the measurement below exercises the compiled-but-dormant path.
    auto &rec = obs::EventRecorder::instance();
    if (rec.enabled() || !rec.collect().empty()) {
        std::cerr << "obs_overhead_check: flight recorder is not idle "
                     "before measurement\n";
        return 2;
    }

    const auto dc = makeDc();
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    const auto straces = core::extractServiceTraces(traces, service_of, 3);

    // Same protocol as bench_report: single-threaded, best-of-repeats.
    util::setThreadCount(1);
    const int repeats = 7;
    const double reference_ms = bestMs(repeats, [&] {
        core::reference::scoreVectors(traces, straces.straces);
    });
    const double fused_ms = bestMs(repeats, [&] {
        core::scoreVectors(traces, straces.straces);
    });
    util::setThreadCount(0);

    const double measured = reference_ms / fused_ms;
    const double floor = baseline * kKeepFraction;
    std::cout << "obs_overhead_check: baseline speedup " << baseline
              << ", measured " << measured << " (reference "
              << reference_ms << " ms, fused " << fused_ms
              << " ms), floor " << floor << "\n";
    if (measured < floor) {
        std::cerr << "obs_overhead_check: instrumented scoreVectors lost "
                     "more than 5% of the recorded speedup\n";
        return 1;
    }
    if (rec.enabled() || rec.recorded() != 0) {
        std::cerr << "obs_overhead_check: flight recorder woke up during "
                     "the measurement — the idle-path result is invalid\n";
        return 2;
    }
    std::cout << "obs_overhead_check: PASS (recorder stayed idle, "
              << rec.dropped() << " drops)\n";
    return 0;
}
