#ifndef SOSIM_PERFBENCH_BENCH_H
#define SOSIM_PERFBENCH_BENCH_H

/**
 * @file
 * Shared pieces of the end-to-end benchmark: the run options, sample
 * sets with quantiles, the in-memory span recorder of the traced run,
 * and the outcome every workload hands back to main().
 *
 * Spans are recorded only by the benchmark's own code, around each call
 * into a library layer's public function; the library's internal
 * instrumentation is left as the build configures it.
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "power/power_tree.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Wall seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** CPU seconds consumed by the whole process (all threads). */
double processCpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * Wall and process-CPU clocks started together.  With the library's
 * pool at width 1 the timed work runs on the calling thread, so on an
 * idle host its CPU time equals its wall time; unlike wall time, CPU
 * time leaves out the time a shared host gives to other tenants (the
 * kernel accounts steal time separately).
 */
class Stopwatch
{
  public:
    Stopwatch() : wall0_(Clock::now()), cpu0_(processCpuSeconds()) {}
    double wall() const { return secondsSince(wall0_); }
    double cpu() const { return processCpuSeconds() - cpu0_; }

  private:
    Clock::time_point wall0_;
    double cpu0_;
};

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    /** Sets the datacenter generation seed and the fault-plan seed. */
    std::uint64_t seed = 2018;
    /** Measurement budget of the run. */
    double seconds = 10.0;
    /** 0: untraced end-to-end run; 1: traced per-layer run. */
    bool trace = false;
    /** Directory the run may write scratch files into. */
    std::string scratchDir = ".";
    /** Where the traced run writes its spans at exit (empty: nowhere). */
    std::string spansOut;
};

/** A set of measurements of one quantity. */
class Samples
{
  public:
    void add(double x) { values_.push_back(x); }
    std::size_t size() const { return values_.size(); }
    /**
     * Quantile by linear interpolation between order statistics (the
     * "inclusive" method); q in [0, 1].  0 when empty.
     */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }

  private:
    std::vector<double> values_;
};

/** The values of a per-repetition map as samples. */
Samples samplesOf(const std::map<int, double> &per_run);

/** One recorded span; times are seconds since the recorder started. */
struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    double cpuStart = 0.0;
    double cpuEnd = 0.0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    /** Repetition the span belongs to. */
    int run = 0;
};

/**
 * In-memory span store.  Spans nest through an explicit stack, so the
 * recorder is for the single calling thread only.  A disabled recorder
 * records nothing, which lets one process time the same work with and
 * without tracing.
 */
class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int index_ = -1;
    };

    void setEnabled(bool on) { enabled_ = on; }
    /** Tag the spans that follow with repetition `run`. */
    void setRun(int run) { run_ = run; }

    /**
     * Per repetition that has spans at all, the summed self time (span
     * minus its children) of every span called `name`; 0 for a
     * repetition without one.
     */
    std::map<int, double> selfByRun(const std::string &name) const;
    /** Like selfByRun, summing whole-span wall time. */
    std::map<int, double> wallByRun(const std::string &name) const;
    /** Per repetition, process CPU seconds over wall seconds of `name`. */
    Samples cpuPerWall(const std::string &name) const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    bool enabled_ = true;
    int run_ = 0;
};

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Measurements the value summarises (1 for a single reading). */
    std::size_t samples = 1;
    /** Smallest and largest of those measurements. */
    double min = 0.0;
    double max = 0.0;
    /** For a CPU-time metric, the median wall time of the same work. */
    double wall = -1.0;
};

/** What a workload run hands back: metrics plus its operation tally. */
struct Outcome {
    std::vector<Metric> metrics;
    /** Pipeline runs, what-ifs and epochs attempted. */
    std::uint64_t attempted = 0;
    /** Attempted operations that threw or failed a correctness check. */
    std::uint64_t failed = 0;
    /** One line per failed check, printed before the result. */
    std::vector<std::string> failures;

    void add(std::string name, double value, std::string unit,
             std::size_t samples = 1);
    void add(std::string name, const Samples &s, double q, double scale,
             std::string unit);
    /** The median of CPU-time samples, with the median of their walls. */
    void addTime(std::string name, const Samples &cpu, const Samples &wall,
                 double scale, std::string unit);
    /** Count a failed check against the operations already attempted. */
    void fail(const std::string &what);
};

/**
 * Empty when `a` puts each of `instances` instances on exactly one rack
 * of `tree`, else what is wrong.
 */
std::string checkAssignment(const sosim::power::PowerTree &tree,
                            const sosim::power::Assignment &a,
                            std::size_t instances);

/** CPUs online on this machine. */
std::size_t onlineCpus();

/**
 * Cores the machine actually delivers to `threads` busy threads: the
 * same fixed burn loop run alone and on every thread at once,
 * `threads * t1 / tN`.  1.0 for one thread by definition.
 */
double effectiveCores(std::size_t threads);

Outcome runPlanWorkload(const Options &opt);
Outcome runServeWorkload(const Options &opt);

} // namespace perfbench

#endif // SOSIM_PERFBENCH_BENCH_H
