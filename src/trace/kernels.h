#ifndef SOSIM_TRACE_KERNELS_H
#define SOSIM_TRACE_KERNELS_H

/**
 * @file
 * Non-owning trace views and allocation-free scoring kernels.
 *
 * Every asynchrony score in the system reduces to "the peak of a (scaled)
 * sum of week-long vectors" (Eq. 6-7).  The naive formulation materializes
 * the sum as a temporary TimeSeries just to take its maximum; at placement
 * scale that is one heap allocation and several extra memory passes per
 * scored pair.  The kernels here fuse the arithmetic with the max-scan so
 * each score is a single pass over the operands and never allocates.
 *
 * Determinism note: every kernel applies the same floating-point operations
 * in the same order as the materializing formulation it replaces
 * (element-wise op, then running max), so results are bit-identical to the
 * `(a + b).peak()` style they replace.  tests/test_kernels.cc pins this.
 */

#include <cstddef>
#include <vector>

#include "trace/time_series.h"

namespace sosim::trace {

class TraceArena; // trace/arena.h

/**
 * A non-owning view of a trace: a span of samples plus the sampling
 * interval.  Cheap to copy (pointer + size + int); the viewed storage must
 * outlive the view.  TimeSeries converts implicitly, so every kernel can
 * be called directly on owned traces or on raw sample buffers.
 */
class TraceView
{
  public:
    /** An empty view. */
    TraceView() = default;

    /** View over a raw sample buffer. */
    TraceView(const double *data, std::size_t size, int interval_minutes)
        : data_(data), size_(size), intervalMinutes_(interval_minutes)
    {}

    /** Implicit view of an owned series (lifetime: the series). */
    TraceView(const TimeSeries &ts)
        : data_(ts.samples().data()), size_(ts.size()),
          intervalMinutes_(ts.intervalMinutes())
    {}

    /** Number of samples viewed. */
    std::size_t size() const { return size_; }

    /** True when no samples are viewed. */
    bool empty() const { return size_ == 0; }

    /** Sampling interval in minutes. */
    int intervalMinutes() const { return intervalMinutes_; }

    /** Unchecked element access. */
    double operator[](std::size_t i) const { return data_[i]; }

    /** Raw sample pointer. */
    const double *data() const { return data_; }

    /** Iteration support. */
    const double *begin() const { return data_; }
    const double *end() const { return data_ + size_; }

    /** True when size and interval match (arithmetic is legal). */
    bool alignedWith(const TraceView &other) const
    {
        return size_ == other.size_ &&
               intervalMinutes_ == other.intervalMinutes_;
    }

    /** Contiguous sub-view of len samples starting at `first` (checked). */
    TraceView slice(std::size_t first, std::size_t len) const;

  private:
    const double *data_ = nullptr;
    std::size_t size_ = 0;
    int intervalMinutes_ = 1;
};

/**
 * Single-pass summary statistics of a trace (see TimeSeries::stats() for
 * the cached variant).
 */
TraceStats computeStats(TraceView v);

/**
 * Summary statistics over the *valid* (finite) samples of a possibly
 * degraded trace.  validSamples counts the finite entries; the stats
 * fields cover only those.  When validSamples == 0 every stat is 0.0
 * and peakIndex is 0 — the zero-power convention for data that is not
 * there (see DESIGN.md section 9).
 */
struct ValidStats {
    TraceStats stats;
    std::size_t validSamples = 0;

    /** Fraction of finite samples, in [0, 1]; 1.0 for an empty view. */
    double validFraction(std::size_t total) const
    {
        return total == 0 ? 1.0
                          : static_cast<double>(validSamples) /
                                static_cast<double>(total);
    }
};

/**
 * NaN-skipping variant of computeStats for degraded traces.  On a fully
 * finite view the stats field is bit-identical to computeStats(v) (same
 * operations in the same order).  Unlike computeStats, an empty view is
 * legal and yields {zeros, 0}.
 */
ValidStats computeValidStats(TraceView v);

/**
 * Gap-aware peak(a + b): positions where either operand is non-finite
 * are skipped.  `valid_count` (optional) receives the number of
 * positions that contributed.  When no position is valid the result is
 * 0.0 (zero-power convention).  On fully finite inputs the result is
 * bit-identical to peakOfSum.  Views must be aligned and non-empty.
 */
double peakOfSumValid(TraceView a, TraceView b,
                      std::size_t *valid_count = nullptr);

/**
 * Gap-aware sum over the valid samples of one view; `valid_count`
 * (optional) receives how many samples contributed.  0.0 when nothing
 * is valid.
 */
double sumValid(TraceView v, std::size_t *valid_count = nullptr);

/** Fused peak(a + b); no temporary.  Views must be aligned, non-empty. */
double peakOfSum(TraceView a, TraceView b);

/**
 * Fused peak(a + s*b); no temporary.  The element expression is evaluated
 * as `a[i] + (s * b[i])`, matching the materializing `a + (b * s)` path
 * bit for bit.  Views must be aligned and non-empty.
 */
double peakOfScaledSum(TraceView a, TraceView b, double scale);

/** Fused peak(a - b); no temporary.  Views must be aligned, non-empty. */
double peakOfDiff(TraceView a, TraceView b);

/**
 * Fused peak(c + s*(a - b)); no temporary.  This is the remap inner loop:
 * the differential score of candidate `c` against a rack whose aggregate
 * is `a` with member `b` removed, where `s = 1 / other_count`.  Matches
 * the materializing `c + ((a - b) * s)` path bit for bit.
 */
double peakOfAddScaledDiff(TraceView c, TraceView a, TraceView b,
                           double scale);

/*
 * Early-reject peak kernels: the swap scan in core::remap computes
 * `score = numerator / peak(...)` only to test `score <= threshold` and
 * discard the candidate.  Because the running max never decreases and
 * IEEE division is monotone in its denominator, the test's outcome is
 * decided the moment the *prefix* peak alone drives the score to or
 * below the threshold — the rest of the scan cannot change the
 * decision.  These variants check that condition every few dozen
 * elements (only while the prefix peak is positive, so the zero-power
 * branch is untouched) and abort the scan once rejection is proven.
 *
 * Contract: the returned value is bit-identical to the plain kernel
 * whenever `numerator / result > threshold` (the accept case, where the
 * caller uses the value); on an aborted scan the returned prefix peak
 * still yields `numerator / result <= threshold`, so the caller's
 * accept test takes the identical branch.  Decisions are therefore
 * exactly those of the full-scan kernels.  Internally each chunk runs
 * through the dispatched blocked kernels (see below), so like that
 * family these variants require finite inputs — exactly what
 * core::remap::refine guarantees for its gap-free traces.
 */

/** peakOfScaledSum with early rejection (see the contract above). */
double peakOfScaledSumEarlyReject(TraceView a, TraceView b, double scale,
                                  double numerator, double threshold);

/** peakOfAddScaledDiff with early rejection (see the contract above). */
double peakOfAddScaledDiffEarlyReject(TraceView c, TraceView a,
                                      TraceView b, double scale,
                                      double numerator, double threshold);

/**
 * The reject proof shared by the early-reject kernels and the remap
 * swap scan's probe bounds: `floor` is a lower bound on the peak of the
 * full scan (a prefix peak, or any one element the scan takes its max
 * over).  For floor > 0 and a non-negative numerator (a sum of power
 * peaks) the proof is exact — the full peak is >= floor and IEEE
 * division is monotone in the denominator, so
 * `numerator / peak <= threshold` whenever `numerator / floor` is.  A
 * non-positive floor proves nothing (the zero-power branch, peak <= 0
 * -> score 0.0, needs the full scan's sign).
 */
inline bool
rejectProven(double floor, double numerator, double threshold)
{
    return floor > 0.0 && numerator / floor <= threshold;
}

/**
 * Element `t` of peakOfScaledSum's scan, `a[t] + scale * b[t]`, with
 * the identical IEEE operations in the identical order (the build pins
 * -ffp-contract=off, so no FMA), hence never above the kernel's peak.
 */
inline double
scaledSumAt(TraceView a, TraceView b, double scale, std::size_t t)
{
    return a[t] + scale * b[t];
}

/**
 * Element `t` of peakOfAddScaledDiff's scan, `c[t] + scale*(a[t]-b[t])`,
 * evaluated exactly as the kernel does (see scaledSumAt).
 */
inline double
addScaledDiffAt(TraceView c, TraceView a, TraceView b, double scale,
                std::size_t t)
{
    return c[t] + scale * (a[t] - b[t]);
}

/**
 * Element-wise accumulate `src` into `dst` and return the peak of the
 * *updated* dst, in one fused pass.  This is the building block of
 * aggregate scores: summing n member traces costs n passes total and the
 * final call's return value is peak(Σ).  Invalidates dst's cached stats.
 *
 * @return Peak of dst after the accumulation.
 */
double accumulatePeak(TimeSeries &dst, TraceView src);

/**
 * Raw-row form of accumulatePeak for arena rows: dst[i] += src[i] with a
 * fused max-scan of the updated row.  Same operations in the same order
 * as accumulatePeak; the caller owns stats invalidation.
 */
double accumulatePeakRow(double *dst, TraceView src);

/**
 * Fused swap application for running-sum rows:
 * dst[i] = (dst[i] - sub[i]) + add[i], returning the peak of the updated
 * row in the same pass.  Element-wise this is exactly the two-pass
 * `dst -= sub; dst += add` it replaces (each element sees the identical
 * rounding sequence), so results are bit-identical; the fusion only saves
 * a memory pass.  One call per affected rack applies a member swap.
 */
double subAddPeakRow(double *dst, TraceView add, TraceView sub);

/**
 * Materialize dst[i] = a[i] - b[i] and return the peak of dst in the
 * same pass (strict scan order).  core::remap uses this to hoist the
 * per-candidate "rack minus leaver" row out of the swap inner loop.
 */
double diffPeakRow(double *dst, TraceView a, TraceView b);

/*
 * ── Blocked kernels ──────────────────────────────────────────────────
 *
 * The strict kernels above scan with a single sequential accumulator, a
 * loop shape whose loop-carried compare keeps the compiler from using
 * wide max instructions.  The *blocked* variants below break the scan
 * into independent accumulator lanes so they auto-vectorize (and, when
 * compiled with SOSIM_NATIVE on x86-64, dispatch at runtime to an AVX2
 * path — see kernelIsaName()).
 *
 * Contract: on finite inputs every blocked peak kernel returns a value
 * bit-identical to its strict sibling — a max-reduction is insensitive
 * to association, and the element expressions apply the identical IEEE
 * operations (the AVX2 path deliberately uses separate mul/add, never
 * FMA).  Sum-style reductions (ValidStats::stats.sum / .mean) DO change
 * association and are only ULP-bounded; that is why consumers gate the
 * blocked family behind an explicit KernelMode flag instead of swapping
 * it in silently.  Non-finite samples are the other difference: strict
 * kernels reproduce the reference NaN propagation, blocked peak kernels
 * require finite data (the *Valid variants are the NaN-aware blocked
 * entry points).  tests/test_arena.cc pins both properties.
 */

/**
 * Which kernel family a consumer routes hot scoring loops through.
 * kStrict (default everywhere) preserves the reference scan order and
 * bit-exact results; kBlocked enables the blocked/SIMD variants above
 * (ULP-bounded where a sum reduction is involved, bit-identical for
 * peaks on finite data).
 */
enum class KernelMode { kStrict, kBlocked };

/** Printable mode name ("strict", "blocked"). */
const char *kernelModeName(KernelMode mode);

/**
 * ISA the blocked kernels dispatch to at runtime: "avx2" when compiled
 * with SOSIM_NATIVE, running on AVX2 hardware and not disabled via the
 * environment variable SOSIM_NATIVE=0; otherwise "generic" (portable
 * multi-accumulator loops).  Resolved once, on first use.
 */
const char *kernelIsaName();

/** Blocked peak(v); finite inputs.  See the contract above. */
double peakBlocked(TraceView v);

/**
 * First index t with v[t] == peak.  Called with peak = peakBlocked(v) it
 * is the first argmax — the computeStats peakIndex on finite data.
 * Returns 0 when no sample equals `peak` (possible only on non-finite
 * data), so the result is always a valid index.
 */
std::size_t firstPeakIndex(TraceView v, double peak);

/** First index t with a[t] - b[t] == peak (0 if none), as above. */
std::size_t firstPeakIndexOfDiff(TraceView a, TraceView b, double peak);

/**
 * dst[i] += src[i] without a max-scan (vectorizable).  Each element sees
 * the same single addition as in accumulatePeakRow, so a row summed
 * this way and then scanned with peakBlocked has the identical values
 * and peak.
 */
void accumulateRow(double *dst, TraceView src);

/** Blocked peak(a + b); finite inputs.  See the contract above. */
double peakOfSumBlocked(TraceView a, TraceView b);

/** Blocked peak(a + s*b); finite inputs. */
double peakOfScaledSumBlocked(TraceView a, TraceView b, double scale);

/** Blocked peak(a - b); finite inputs. */
double peakOfDiffBlocked(TraceView a, TraceView b);

/** Blocked peak(c + s*(a - b)); finite inputs. */
double peakOfAddScaledDiffBlocked(TraceView c, TraceView a, TraceView b,
                                  double scale);

/**
 * Blocked gap-aware peak(a + b): identical results to peakOfSumValid on
 * every input (the max over valid positions does not depend on scan
 * association, and the valid count is integer-exact).
 */
double peakOfSumValidBlocked(TraceView a, TraceView b,
                             std::size_t *valid_count = nullptr);

/**
 * Blocked NaN-skipping stats.  peak, valley, validSamples and peakIndex
 * (first index attaining the maximum) are identical to
 * computeValidStats; sum and mean are ULP-bounded (lane-partitioned
 * accumulation changes the addition order).
 */
ValidStats computeValidStatsBlocked(TraceView v);

/** Blocked count of finite samples (exact). */
std::size_t countValid(TraceView v);

/**
 * Batched peak-of-sum over two arenas: out[i * straces.size() + j] =
 * peak(itraces row i + straces row j), computed with the blocked
 * kernels, rows fanned out via util::parallelFor with per-slot writes
 * (bit-identical for any thread count).  This is the raw kernel under
 * the blocked population embedding (core::scoreVectorsBlocked), which
 * turns the peaks into Eq. 7 pair scores.
 */
std::vector<double> scoreVectorsBatch(const TraceArena &itraces,
                                      const TraceArena &straces);

} // namespace sosim::trace

#endif // SOSIM_TRACE_KERNELS_H
