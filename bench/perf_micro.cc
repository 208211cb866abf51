/**
 * @file
 * Microbenchmarks (google-benchmark): asynchrony scoring, score-vector
 * embedding (I-to-S vs the quadratic I-to-I alternative the paper
 * rejects), k-means, and end-to-end placement, swept over population
 * sizes and trace lengths.
 */

#include <random>

#include <benchmark/benchmark.h>

#include "baseline/oblivious.h"
#include "cluster/kmeans.h"
#include "core/asynchrony.h"
#include "core/placement.h"
#include "core/remap.h"
#include "core/service_traces.h"
#include "trace/arena.h"
#include "trace/kernels.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

workload::GeneratedDatacenter
makeDc(int instances_per_service, int interval)
{
    workload::DatacenterSpec spec;
    spec.name = "bench";
    spec.topology.suites = 2;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = interval;
    spec.weeks = 2;
    spec.seed = 33;
    spec.services.push_back(
        {workload::webFrontend(), instances_per_service});
    spec.services.push_back(
        {workload::dbBackend(), instances_per_service});
    spec.services.push_back({workload::hadoop(), instances_per_service});
    return workload::generate(spec);
}

void
BM_AsynchronyScorePair(benchmark::State &state)
{
    const auto dc = makeDc(2, static_cast<int>(state.range(0)));
    const auto traces = dc.trainingTraces();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::pairAsynchronyScore(traces[0], traces[1]));
    }
    state.SetLabel(std::to_string(traces[0].size()) + " samples");
}
BENCHMARK(BM_AsynchronyScorePair)->Arg(60)->Arg(15)->Arg(5);

// Scoring sweeps use 5-minute samples (one training week = 2016 points
// per trace), matching the paper's fine-grained production power meters
// and the committed bench_report numbers.
constexpr int kScoringInterval = 5;

void
BM_ScoreVectors_ItoS(benchmark::State &state)
{
    const auto dc =
        makeDc(static_cast<int>(state.range(0)), kScoringInterval);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    const auto straces = core::extractServiceTraces(traces, service_of, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::scoreVectors(traces, straces.straces));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(traces.size()));
}
BENCHMARK(BM_ScoreVectors_ItoS)->Arg(16)->Arg(64)->Arg(128);

void
BM_ScoreVectors_Reference(benchmark::State &state)
{
    // The seed implementation: materialize (a + b) per pair, rescan for
    // every peak.  Kept as the A/B baseline for the fused kernel layer.
    const auto dc =
        makeDc(static_cast<int>(state.range(0)), kScoringInterval);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    const auto straces = core::extractServiceTraces(traces, service_of, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::reference::scoreVectors(traces, straces.straces));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(traces.size()));
}
BENCHMARK(BM_ScoreVectors_Reference)->Arg(16)->Arg(64)->Arg(128);

void
BM_ScoreVectors_Blocked(benchmark::State &state)
{
    // Arena-packed embedding on the blocked/SIMD kernels — the third
    // point of the reference vs fused vs blocked trajectory.
    const auto dc =
        makeDc(static_cast<int>(state.range(0)), kScoringInterval);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    const auto straces = core::extractServiceTraces(traces, service_of, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::scoreVectorsBlocked(traces, straces.straces));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(traces.size()));
    state.SetLabel(trace::kernelIsaName());
}
BENCHMARK(BM_ScoreVectors_Blocked)->Arg(16)->Arg(64)->Arg(128);

void
BM_ArenaPack(benchmark::State &state)
{
    // Cost of packing a scattered TimeSeries bundle into one aligned
    // SoA buffer — the fixed overhead every arena consumer pays once.
    const auto dc =
        makeDc(static_cast<int>(state.range(0)), kScoringInterval);
    const auto traces = dc.trainingTraces();
    for (auto _ : state) {
        benchmark::DoNotOptimize(trace::TraceArena::fromSeries(traces));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(traces.size()));
}
BENCHMARK(BM_ArenaPack)->Arg(16)->Arg(64)->Arg(128);

void
BM_PeakKernel_StrictVsBlocked(benchmark::State &state)
{
    // Single-row peak(c + s*(a - b)) — the remap inner-loop kernel —
    // strict sequential (range arg 0) vs blocked/dispatched (arg 1).
    std::mt19937 rng(3);
    std::uniform_real_distribution<double> dist(0.0, 2.0);
    const std::size_t n = 2016; // one training week at 5-minute samples
    std::vector<trace::TimeSeries> rows;
    for (int i = 0; i < 3; ++i) {
        std::vector<double> samples(n);
        for (auto &s : samples)
            s = dist(rng);
        rows.emplace_back(std::move(samples), 5);
    }
    const bool blocked = state.range(0) != 0;
    for (auto _ : state) {
        const double peak =
            blocked ? trace::peakOfAddScaledDiffBlocked(rows[0], rows[1],
                                                        rows[2], 0.25)
                    : trace::peakOfAddScaledDiff(rows[0], rows[1],
                                                 rows[2], 0.25);
        benchmark::DoNotOptimize(peak);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<long>(3 * n * sizeof(double)));
    state.SetLabel(blocked ? trace::kernelIsaName() : "strict");
}
BENCHMARK(BM_PeakKernel_StrictVsBlocked)->Arg(0)->Arg(1);

void
BM_ScoreMatrix_ItoI(benchmark::State &state)
{
    // The pairwise alternative the paper rejects as unscalable: O(n^2)
    // pair scores instead of O(n * m).
    const auto dc = makeDc(static_cast<int>(state.range(0)), 30);
    const auto traces = dc.trainingTraces();
    for (auto _ : state) {
        double acc = 0.0;
        for (std::size_t i = 0; i < traces.size(); ++i)
            for (std::size_t j = i + 1; j < traces.size(); ++j)
                acc += core::pairAsynchronyScore(traces[i], traces[j]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(traces.size()));
}
BENCHMARK(BM_ScoreMatrix_ItoI)->Arg(16)->Arg(64);

void
BM_KMeans(benchmark::State &state)
{
    util::Rng rng(5);
    std::vector<cluster::Point> points;
    for (long i = 0; i < state.range(0); ++i) {
        cluster::Point p(10);
        for (auto &x : p)
            x = rng.uniform(1.0, 2.0);
        points.push_back(std::move(p));
    }
    cluster::KMeansConfig config;
    config.k = 8;
    config.restarts = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(cluster::kMeans(points, config));
}
BENCHMARK(BM_KMeans)->Arg(128)->Arg(512)->Arg(2048);

void
BM_PlacementEndToEnd(benchmark::State &state)
{
    const auto dc =
        makeDc(static_cast<int>(state.range(0)), kScoringInterval);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(dc.spec().topology);
    core::PlacementEngine engine(tree, {});
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.place(traces, service_of));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(traces.size()));
}
BENCHMARK(BM_PlacementEndToEnd)->Arg(32)->Arg(64)->Arg(128);

void
BM_PlacementEndToEnd_Reference(benchmark::State &state)
{
    // Same pipeline with the materializing reference scoring — the e2e
    // A/B baseline for the kernel layer (placements are bit-identical).
    const auto dc =
        makeDc(static_cast<int>(state.range(0)), kScoringInterval);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(dc.spec().topology);
    core::PlacementConfig config;
    config.scoring = core::ScoringImpl::kReference;
    core::PlacementEngine engine(tree, config);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.place(traces, service_of));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(traces.size()));
}
BENCHMARK(BM_PlacementEndToEnd_Reference)->Arg(32)->Arg(64)->Arg(128);

void
BM_RemapRefine(benchmark::State &state)
{
    const auto dc = makeDc(static_cast<int>(state.range(0)), 30);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(dc.spec().topology);
    const auto start = baseline::obliviousPlacement(tree, service_of);
    core::RemapConfig rc;
    rc.maxSwaps = 16;
    core::Remapper remapper(tree, rc);
    for (auto _ : state) {
        power::Assignment assignment = start;
        benchmark::DoNotOptimize(remapper.refine(assignment, traces));
    }
}
BENCHMARK(BM_RemapRefine)->Arg(16)->Arg(64);

void
BM_RemapRefine_Blocked(benchmark::State &state)
{
    // Same refinement with the blocked kernel family (ULP-bounded
    // contract; identical swaps on finite data).
    const auto dc = makeDc(static_cast<int>(state.range(0)), 30);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(dc.spec().topology);
    const auto start = baseline::obliviousPlacement(tree, service_of);
    core::RemapConfig rc;
    rc.maxSwaps = 16;
    rc.kernels = trace::KernelMode::kBlocked;
    core::Remapper remapper(tree, rc);
    for (auto _ : state) {
        power::Assignment assignment = start;
        benchmark::DoNotOptimize(remapper.refine(assignment, traces));
    }
    state.SetLabel(trace::kernelIsaName());
}
BENCHMARK(BM_RemapRefine_Blocked)->Arg(16)->Arg(64);

void
BM_TraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            makeDc(static_cast<int>(state.range(0)), 30));
    }
}
BENCHMARK(BM_TraceGeneration)->Arg(16)->Arg(64);

void
BM_AggregateTraces(benchmark::State &state)
{
    const auto dc = makeDc(static_cast<int>(state.range(0)), 30);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(dc.spec().topology);
    const auto assignment =
        baseline::obliviousPlacement(tree, service_of);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            tree.aggregateTraces(traces, assignment));
}
BENCHMARK(BM_AggregateTraces)->Arg(32)->Arg(128);

} // namespace

BENCHMARK_MAIN();
