/**
 * @file
 * The online-monitor workload, serve-dc3.
 *
 * DC3 at scale 1 is streamed tick by tick through serve::Service: the
 * training week, then the held-out test week (4032 five-minute ticks).
 * The loop is closed, as `sosim serve` drives it: tick t+1 is fed only
 * after tick t's epochs are processed, so the run measures capacity and
 * unloaded decision latency.  Each repetition sets the service up from
 * scratch (a set-up sample) and streams the whole feed (a plan sample);
 * every processed epoch is a re-plan sample, timed from the advanceTo
 * that crosses its boundary to the processReadyEpochs that returns it.
 *
 * The traced run records one span per tick's ingest batch, per
 * advanceTo and per processReadyEpochs.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "baseline/oblivious.h"
#include "bench.h"
#include "core/headroom.h"
#include "serve/service.h"
#include "workload/dc_presets.h"

namespace perfbench {
namespace {

using namespace sosim;
using Scope = SpanRecorder::Scope;

/** Everything one repetition streams, built during set-up. */
struct Feed {
    std::size_t instances = 0;
    std::size_t ticks = 0;
    /** Tick-major samples: feed[t * instances + i]. */
    std::vector<double> samples;
    /** The held-out test week, for the quality of the final placement. */
    std::vector<trace::TimeSeries> test;
    std::vector<std::size_t> serviceOf;
};

Feed
buildFeed(const workload::DatacenterSpec &spec, SpanRecorder &rec)
{
    std::optional<workload::GeneratedDatacenter> dc;
    {
        Scope s(rec, "workload.generate");
        dc.emplace(workload::generate(spec));
    }
    Feed feed;
    feed.instances = dc->instanceCount();
    const auto training = dc->trainingTraces();
    feed.test = dc->testTraces();
    const std::size_t week = training.front().size();
    feed.ticks = 2 * week;
    feed.samples.resize(feed.ticks * feed.instances);
    for (std::size_t i = 0; i < feed.instances; ++i)
        for (std::size_t t = 0; t < week; ++t) {
            feed.samples[t * feed.instances + i] = training[i][t];
            feed.samples[(week + t) * feed.instances + i] = feed.test[i][t];
        }
    feed.serviceOf.resize(feed.instances);
    for (std::size_t i = 0; i < feed.instances; ++i)
        feed.serviceOf[i] = dc->serviceOf(i);
    return feed;
}

/** Tallies of one streamed repetition. */
struct StreamTally {
    std::uint64_t offered = 0;
    std::uint64_t epochs = 0;
    std::uint64_t remaps = 0;
    std::uint64_t replaces = 0;
};

} // namespace

Outcome
runServeWorkload(const Options &opt)
{
    // The shipped `sosim serve` defaults: window 48, epoch 24, 16 swaps.
    serve::ServeConfig config;
    config.remap.maxSwaps = 16;
    config.checkpointDir =
        (std::filesystem::path(opt.scratchDir) / "serve-checkpoints")
            .string();

    Outcome out;
    SpanRecorder rec;
    // CPU time of each timed step, and its wall time for the report.
    Samples setup, stream, epoch_ms, setup_wall, stream_wall, epoch_wall_ms;
    Samples extra, rpp, overhead;
    Samples epochs, remaps, replaces, shed, accepted, rejected,
        checkpoint_bytes;
    std::uint64_t pair_digest = 0;
    double pair_wall = 0.0;
    std::vector<core::LevelComparison> levels;
    double rss_mb = 0.0;

    // Repetitions come in pairs that stream the same DC3 instance,
    // generated from seed + pair index; the second of a pair must
    // reproduce the first's digest.  A new instance per pair makes the
    // run's medians cover several instances, because how often the
    // monitor remaps or re-places depends strongly on the instance.  In
    // the traced run the first of a pair streams without spans and the
    // second with them; pair 0 warms the allocator and page cache and
    // is left out of the tracing overhead.
    const int min_reps = opt.trace ? 4 : 2;
    const auto start = Clock::now();
    for (int rep = 0; rep < min_reps || rep % 2 == 1 ||
                      secondsSince(start) < opt.seconds;
         ++rep) {
        const auto pair = static_cast<std::uint64_t>(rep / 2);
        const bool traced = opt.trace && rep % 2 == 1;
        rec.setRun(rep);
        rec.setEnabled(traced);

        const Stopwatch sw_setup;
        workload::PresetOptions preset;
        preset.seed = opt.seed + pair;
        preset.intervalMinutes = 5;
        preset.weeks = 3;
        const auto spec = workload::buildDc3Spec(preset);
        const power::PowerTree tree(spec.topology);
        const Feed feed = buildFeed(spec, rec);
        const auto initial =
            baseline::obliviousPlacement(tree, feed.serviceOf);
        std::filesystem::remove_all(config.checkpointDir);
        std::filesystem::create_directories(config.checkpointDir);
        serve::Service svc(tree, feed.serviceOf, initial,
                           spec.intervalMinutes, config);
        setup.add(sw_setup.cpu());
        setup_wall.add(sw_setup.wall());

        StreamTally st;
        std::string problem;
        const Stopwatch sw_stream;
        try {
            for (std::uint64_t t = 0; t < feed.ticks; ++t) {
                const Stopwatch sw_tick;
                {
                    Scope s(rec, "serve.advance");
                    svc.advanceTo(t);
                }
                {
                    Scope s(rec, "serve.ingest");
                    const double *row = &feed.samples[t * feed.instances];
                    for (std::size_t i = 0; i < feed.instances; ++i)
                        if (std::isfinite(row[i])) {
                            svc.ingest({t, i, row[i]});
                            ++st.offered;
                        }
                }
                std::vector<serve::EpochResult> done;
                {
                    Scope s(rec, "serve.epoch");
                    done = svc.processReadyEpochs();
                }
                if (done.empty())
                    continue;
                const double n = static_cast<double>(done.size());
                const double ms = 1e3 * sw_tick.cpu() / n;
                const double wall_ms = 1e3 * sw_tick.wall() / n;
                for (const auto &e : done) {
                    epoch_ms.add(ms);
                    epoch_wall_ms.add(wall_ms);
                    ++st.epochs;
                    st.remaps +=
                        e.observation.action == core::MonitorAction::Remap;
                    st.replaces +=
                        e.observation.action == core::MonitorAction::Replace;
                }
            }
            st.epochs += svc.processReadyEpochs().size();
        } catch (const std::exception &e) {
            problem = std::string("stream threw: ") + e.what();
        }
        const double wall = sw_stream.wall();
        stream.add(sw_stream.cpu());
        stream_wall.add(wall);
        if (opt.trace && pair > 0) {
            if (traced)
                overhead.add(wall / pair_wall - 1.0);
            else
                pair_wall = wall;
        }
        out.attempted += st.epochs + (problem.empty() ? 0 : 1);
        if (!problem.empty()) {
            out.fail(problem);
            continue;
        }

        // Correctness: every finite sample is accounted for, the replay
        // digest repeats, and the live placement is a placement.
        const auto &ring = svc.ring();
        if (ring.acceptedCount() + ring.rejectedTotal() != st.offered)
            out.fail("accepted + rejected != offered samples (" +
                     std::to_string(ring.acceptedCount()) + " + " +
                     std::to_string(ring.rejectedTotal()) + " vs " +
                     std::to_string(st.offered) + ")");
        if (rep % 2 == 0)
            pair_digest = svc.digest();
        else if (pair_digest != svc.digest())
            out.fail("serve digest of seed " +
                     std::to_string(preset.seed) +
                     " differs between its two repetitions");
        const auto &live = svc.assignment();
        if (const auto bad = checkAssignment(tree, live, feed.instances);
            !bad.empty())
            out.fail("served placement: " + bad);

        {
            // What the served placement buys over the oblivious start.
            Scope s(rec, "core.headroom");
            const auto report =
                core::comparePlacements(tree, feed.test, initial, live);
            extra.add(100.0 * report.extraServerFraction());
            rpp.add(100.0 *
                    report.at(power::Level::Rpp).peakReductionFraction);
            levels = report.levels;
        }
        if (rep == 0)
            rss_mb = peakRssMb(); // one set-up and one stream
        epochs.add(static_cast<double>(st.epochs));
        remaps.add(static_cast<double>(st.remaps));
        replaces.add(static_cast<double>(st.replaces));
        shed.add(static_cast<double>(svc.shedCount()));
        accepted.add(static_cast<double>(ring.acceptedCount()));
        rejected.add(static_cast<double>(ring.rejectedTotal()));
        std::uintmax_t slot = 0;
        for (const auto &f :
             std::filesystem::directory_iterator(config.checkpointDir))
            slot = std::max(slot, f.file_size());
        checkpoint_bytes.add(
            static_cast<double>(svc.committedEpoch() * slot));
    }
    std::filesystem::remove_all(config.checkpointDir);

    if (!opt.trace) {
        out.addTime("setup_s", setup, setup_wall, 1.0, "s");
        out.addTime("plan_s", stream, stream_wall, 1.0, "s");
        out.addTime("replan_ms", epoch_ms, epoch_wall_ms, 1.0, "ms");
        out.add("peak_rss_mb", rss_mb, "MB");
        out.add("extra_servers_pct", extra, 0.5, 1.0, "%");
        out.add("rpp_peak_reduction_pct", rpp, 0.5, 1.0, "%");
        return out;
    }

    const auto ingest = samplesOf(rec.selfByRun("serve.ingest"));
    out.add("workload.generate_s",
            samplesOf(rec.selfByRun("workload.generate")), 0.5, 1.0, "s");
    out.add("serve.ingest_s", ingest, 0.5, 1.0, "s");
    out.add("serve.ingest_ns_per_sample",
            1e9 * ingest.median() / accepted.median(), "ns", ingest.size());
    out.add("serve.samples_accepted", accepted, 0.5, 1.0, "count");
    out.add("serve.samples_rejected", rejected, 0.5, 1.0, "count");
    out.add("serve.advance_s", samplesOf(rec.selfByRun("serve.advance")),
            0.5, 1.0, "s");
    out.add("serve.epoch_s", samplesOf(rec.selfByRun("serve.epoch")), 0.5,
            1.0, "s");
    out.add("serve.epoch_p90_ms", epoch_ms, 0.9, 1.0, "ms");
    out.add("serve.epochs", epochs, 0.5, 1.0, "count");
    out.add("serve.epochs_shed", shed, 0.5, 1.0, "count");
    out.add("serve.actions_remap", remaps, 0.5, 1.0, "count");
    out.add("serve.actions_replace", replaces, 0.5, 1.0, "count");
    out.add("serve.checkpoint_bytes", checkpoint_bytes, 0.5, 1.0, "bytes");
    out.add("core.headroom_s", samplesOf(rec.selfByRun("core.headroom")),
            0.5, 1.0, "s");
    for (const auto &lc : levels)
        if (lc.level != power::Level::Datacenter &&
            lc.level != power::Level::Rack)
            out.add("power.peak_reduction_pct." + power::levelName(lc.level),
                    100.0 * lc.peakReductionFraction, "%");
    out.add("bench.trace_overhead_pct", overhead, 0.5, 100.0, "%");
    if (!opt.spansOut.empty() && !rec.write(opt.spansOut))
        out.fail("cannot write spans to " + opt.spansOut);
    return out;
}

} // namespace perfbench
