#include "kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/obs.h"
#include "trace/arena.h"
#include "util/error.h"
#include "util/parallel.h"

#if defined(SOSIM_NATIVE_KERNELS) && defined(__x86_64__)
#define SOSIM_AVX2_COMPILED 1
#include <immintrin.h>
#endif

namespace sosim::trace {

namespace {

void
requireAligned(TraceView a, TraceView b, const char *what)
{
    SOSIM_REQUIRE(!a.empty(), what);
    SOSIM_REQUIRE(a.alignedWith(b), what);
}

} // namespace

TraceView
TraceView::slice(std::size_t first, std::size_t len) const
{
    SOSIM_REQUIRE(first + len <= size_, "TraceView::slice: range out of bounds");
    return TraceView(data_ + first, len, intervalMinutes_);
}

TraceStats
computeStats(TraceView v)
{
    SOSIM_REQUIRE(!v.empty(), "computeStats: view is empty");
    TraceStats st;
    st.peak = v[0];
    st.valley = v[0];
    st.sum = v[0];
    st.peakIndex = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
        const double x = v[i];
        if (x > st.peak) {
            st.peak = x;
            st.peakIndex = i;
        }
        if (x < st.valley)
            st.valley = x;
        st.sum += x;
    }
    st.mean = st.sum / static_cast<double>(v.size());
    return st;
}

ValidStats
computeValidStats(TraceView v)
{
    ValidStats out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double x = v[i];
        if (!std::isfinite(x))
            continue;
        if (out.validSamples == 0) {
            out.stats.peak = x;
            out.stats.valley = x;
            out.stats.sum = x;
            out.stats.peakIndex = i;
        } else {
            if (x > out.stats.peak) {
                out.stats.peak = x;
                out.stats.peakIndex = i;
            }
            if (x < out.stats.valley)
                out.stats.valley = x;
            out.stats.sum += x;
        }
        ++out.validSamples;
    }
    if (out.validSamples > 0)
        out.stats.mean =
            out.stats.sum / static_cast<double>(out.validSamples);
    return out;
}

double
peakOfSumValid(TraceView a, TraceView b, std::size_t *valid_count)
{
    SOSIM_COUNT("trace.kernels.peak_of_sum_valid");
    requireAligned(a, b,
                   "peakOfSumValid: views must be aligned and non-empty");
    double best = 0.0;
    std::size_t valid = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = a[i] + b[i];
        if (!std::isfinite(x))
            continue;
        if (valid == 0 || x > best)
            best = x;
        ++valid;
    }
    if (valid_count != nullptr)
        *valid_count = valid;
    return best;
}

double
sumValid(TraceView v, std::size_t *valid_count)
{
    double sum = 0.0;
    std::size_t valid = 0;
    for (const double x : v) {
        if (!std::isfinite(x))
            continue;
        sum += x;
        ++valid;
    }
    if (valid_count != nullptr)
        *valid_count = valid;
    return sum;
}

double
peakOfSum(TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.peak_of_sum");
    requireAligned(a, b, "peakOfSum: views must be aligned and non-empty");
    double best = a[0] + b[0];
    for (std::size_t i = 1; i < a.size(); ++i) {
        const double x = a[i] + b[i];
        if (x > best)
            best = x;
    }
    return best;
}

double
peakOfScaledSum(TraceView a, TraceView b, double scale)
{
    SOSIM_COUNT("trace.kernels.peak_of_scaled_sum");
    requireAligned(a, b,
                   "peakOfScaledSum: views must be aligned and non-empty");
    // Two rounding steps per element (multiply, then add), exactly like
    // materializing `b * scale` first and adding it to `a`.
    double best = a[0] + scale * b[0];
    for (std::size_t i = 1; i < a.size(); ++i) {
        const double x = a[i] + scale * b[i];
        if (x > best)
            best = x;
    }
    return best;
}

double
peakOfDiff(TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.peak_of_diff");
    requireAligned(a, b, "peakOfDiff: views must be aligned and non-empty");
    double best = a[0] - b[0];
    for (std::size_t i = 1; i < a.size(); ++i) {
        const double x = a[i] - b[i];
        if (x > best)
            best = x;
    }
    return best;
}

double
peakOfAddScaledDiff(TraceView c, TraceView a, TraceView b, double scale)
{
    SOSIM_COUNT("trace.kernels.peak_of_add_scaled_diff");
    requireAligned(c, a,
                   "peakOfAddScaledDiff: views must be aligned, non-empty");
    requireAligned(c, b,
                   "peakOfAddScaledDiff: views must be aligned, non-empty");
    double best = c[0] + scale * (a[0] - b[0]);
    for (std::size_t i = 1; i < c.size(); ++i) {
        const double x = c[i] + scale * (a[i] - b[i]);
        if (x > best)
            best = x;
    }
    return best;
}

// peakOfScaledSumEarlyReject / peakOfAddScaledDiffEarlyReject are
// defined after the blocked-kernel dispatch machinery below: they scan
// in dispatched chunks so the early-reject check does not cost the
// vectorized inner loop.

double
accumulatePeak(TimeSeries &dst, TraceView src)
{
    SOSIM_REQUIRE(!dst.empty(),
                  "accumulatePeak: destination must be non-empty");
    SOSIM_REQUIRE(TraceView(dst).alignedWith(src),
                  "accumulatePeak: views must be aligned");
    // Taking one mutable reference invalidates dst's stats cache; the
    // remaining writes go through the raw pointer.
    return accumulatePeakRow(&dst[0], src);
}

double
accumulatePeakRow(double *dst, TraceView src)
{
    SOSIM_COUNT("trace.kernels.accumulate_peak");
    SOSIM_REQUIRE(!src.empty(), "accumulatePeakRow: source must be "
                                "non-empty");
    double best = (dst[0] += src[0]);
    for (std::size_t i = 1; i < src.size(); ++i) {
        const double x = (dst[i] += src[i]);
        if (x > best)
            best = x;
    }
    return best;
}

double
subAddPeakRow(double *dst, TraceView add, TraceView sub)
{
    SOSIM_COUNT("trace.kernels.sub_add_peak");
    SOSIM_REQUIRE(!add.empty() && add.alignedWith(sub),
                  "subAddPeakRow: views must be aligned and non-empty");
    // Per element: subtract first, then add — the identical rounding
    // sequence of the `dst -= sub; dst += add` passes this fuses.
    double best = (dst[0] = (dst[0] - sub[0]) + add[0]);
    for (std::size_t i = 1; i < add.size(); ++i) {
        const double x = (dst[i] = (dst[i] - sub[i]) + add[i]);
        if (x > best)
            best = x;
    }
    return best;
}

double
diffPeakRow(double *dst, TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.diff_peak_row");
    requireAligned(a, b,
                   "diffPeakRow: views must be aligned and non-empty");
    double best = (dst[0] = a[0] - b[0]);
    for (std::size_t i = 1; i < a.size(); ++i) {
        const double x = (dst[i] = a[i] - b[i]);
        if (x > best)
            best = x;
    }
    return best;
}

/*
 * ── Blocked kernels ──────────────────────────────────────────────────
 *
 * Each kernel exists as a portable multi-accumulator loop (written so
 * the compiler's vectorizer sees independent lanes) and, when
 * SOSIM_NATIVE compiled them in, as an AVX2 implementation selected at
 * runtime.  The AVX2 code uses separate mul/add — never FMA — so every
 * element value is bit-identical to the scalar expression and only the
 * (association-insensitive) max-reduction is reordered.
 */

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double
peakGeneric(const double *a, std::size_t n)
{
    double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        m0 = std::max(m0, a[i]);
        m1 = std::max(m1, a[i + 1]);
        m2 = std::max(m2, a[i + 2]);
        m3 = std::max(m3, a[i + 3]);
    }
    double best = std::max(std::max(m0, m1), std::max(m2, m3));
    for (; i < n; ++i)
        best = std::max(best, a[i]);
    return best;
}

double
peakOfSumGeneric(const double *a, const double *b, std::size_t n)
{
    double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        m0 = std::max(m0, a[i] + b[i]);
        m1 = std::max(m1, a[i + 1] + b[i + 1]);
        m2 = std::max(m2, a[i + 2] + b[i + 2]);
        m3 = std::max(m3, a[i + 3] + b[i + 3]);
    }
    double best = std::max(std::max(m0, m1), std::max(m2, m3));
    for (; i < n; ++i)
        best = std::max(best, a[i] + b[i]);
    return best;
}

double
peakOfScaledSumGeneric(const double *a, const double *b, double s,
                       std::size_t n)
{
    double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        m0 = std::max(m0, a[i] + s * b[i]);
        m1 = std::max(m1, a[i + 1] + s * b[i + 1]);
        m2 = std::max(m2, a[i + 2] + s * b[i + 2]);
        m3 = std::max(m3, a[i + 3] + s * b[i + 3]);
    }
    double best = std::max(std::max(m0, m1), std::max(m2, m3));
    for (; i < n; ++i)
        best = std::max(best, a[i] + s * b[i]);
    return best;
}

double
peakOfDiffGeneric(const double *a, const double *b, std::size_t n)
{
    double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        m0 = std::max(m0, a[i] - b[i]);
        m1 = std::max(m1, a[i + 1] - b[i + 1]);
        m2 = std::max(m2, a[i + 2] - b[i + 2]);
        m3 = std::max(m3, a[i + 3] - b[i + 3]);
    }
    double best = std::max(std::max(m0, m1), std::max(m2, m3));
    for (; i < n; ++i)
        best = std::max(best, a[i] - b[i]);
    return best;
}

double
peakOfAddScaledDiffGeneric(const double *c, const double *a,
                           const double *b, double s, std::size_t n)
{
    double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        m0 = std::max(m0, c[i] + s * (a[i] - b[i]));
        m1 = std::max(m1, c[i + 1] + s * (a[i + 1] - b[i + 1]));
        m2 = std::max(m2, c[i + 2] + s * (a[i + 2] - b[i + 2]));
        m3 = std::max(m3, c[i + 3] + s * (a[i + 3] - b[i + 3]));
    }
    double best = std::max(std::max(m0, m1), std::max(m2, m3));
    for (; i < n; ++i)
        best = std::max(best, c[i] + s * (a[i] - b[i]));
    return best;
}

#if SOSIM_AVX2_COMPILED

__attribute__((target("avx2"))) double
horizontalMax(__m256d m, double tail_best)
{
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, m);
    const double a = std::max(lanes[0], lanes[1]);
    const double b = std::max(lanes[2], lanes[3]);
    return std::max(std::max(a, b), tail_best);
}

__attribute__((target("avx2"))) double
peakAvx2(const double *a, std::size_t n)
{
    __m256d m0 = _mm256_set1_pd(kNegInf);
    __m256d m1 = _mm256_set1_pd(kNegInf);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        m0 = _mm256_max_pd(m0, _mm256_loadu_pd(a + i));
        m1 = _mm256_max_pd(m1, _mm256_loadu_pd(a + i + 4));
    }
    double best = kNegInf;
    for (; i < n; ++i)
        best = std::max(best, a[i]);
    return horizontalMax(_mm256_max_pd(m0, m1), best);
}

__attribute__((target("avx2"))) double
peakOfSumAvx2(const double *a, const double *b, std::size_t n)
{
    __m256d m0 = _mm256_set1_pd(kNegInf);
    __m256d m1 = _mm256_set1_pd(kNegInf);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        m0 = _mm256_max_pd(m0, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                             _mm256_loadu_pd(b + i)));
        m1 = _mm256_max_pd(m1, _mm256_add_pd(_mm256_loadu_pd(a + i + 4),
                                             _mm256_loadu_pd(b + i + 4)));
    }
    double best = kNegInf;
    for (; i < n; ++i)
        best = std::max(best, a[i] + b[i]);
    return horizontalMax(_mm256_max_pd(m0, m1), best);
}

__attribute__((target("avx2"))) double
peakOfScaledSumAvx2(const double *a, const double *b, double s,
                    std::size_t n)
{
    const __m256d vs = _mm256_set1_pd(s);
    __m256d m0 = _mm256_set1_pd(kNegInf);
    __m256d m1 = _mm256_set1_pd(kNegInf);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // mul then add, two rounding steps — matches the scalar a + s*b.
        m0 = _mm256_max_pd(
            m0, _mm256_add_pd(_mm256_loadu_pd(a + i),
                              _mm256_mul_pd(vs, _mm256_loadu_pd(b + i))));
        m1 = _mm256_max_pd(
            m1,
            _mm256_add_pd(_mm256_loadu_pd(a + i + 4),
                          _mm256_mul_pd(vs, _mm256_loadu_pd(b + i + 4))));
    }
    double best = kNegInf;
    for (; i < n; ++i)
        best = std::max(best, a[i] + s * b[i]);
    return horizontalMax(_mm256_max_pd(m0, m1), best);
}

__attribute__((target("avx2"))) double
peakOfDiffAvx2(const double *a, const double *b, std::size_t n)
{
    __m256d m0 = _mm256_set1_pd(kNegInf);
    __m256d m1 = _mm256_set1_pd(kNegInf);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        m0 = _mm256_max_pd(m0, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                             _mm256_loadu_pd(b + i)));
        m1 = _mm256_max_pd(m1, _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                             _mm256_loadu_pd(b + i + 4)));
    }
    double best = kNegInf;
    for (; i < n; ++i)
        best = std::max(best, a[i] - b[i]);
    return horizontalMax(_mm256_max_pd(m0, m1), best);
}

__attribute__((target("avx2"))) double
peakOfAddScaledDiffAvx2(const double *c, const double *a, const double *b,
                        double s, std::size_t n)
{
    const __m256d vs = _mm256_set1_pd(s);
    __m256d m0 = _mm256_set1_pd(kNegInf);
    __m256d m1 = _mm256_set1_pd(kNegInf);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i));
        const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4));
        m0 = _mm256_max_pd(m0, _mm256_add_pd(_mm256_loadu_pd(c + i),
                                             _mm256_mul_pd(vs, d0)));
        m1 = _mm256_max_pd(m1, _mm256_add_pd(_mm256_loadu_pd(c + i + 4),
                                             _mm256_mul_pd(vs, d1)));
    }
    double best = kNegInf;
    for (; i < n; ++i)
        best = std::max(best, c[i] + s * (a[i] - b[i]));
    return horizontalMax(_mm256_max_pd(m0, m1), best);
}

#endif // SOSIM_AVX2_COMPILED

/** Function-pointer table the blocked kernels route through. */
struct KernelDispatch {
    double (*peak)(const double *, std::size_t);
    double (*peakOfSum)(const double *, const double *, std::size_t);
    double (*peakOfScaledSum)(const double *, const double *, double,
                              std::size_t);
    double (*peakOfDiff)(const double *, const double *, std::size_t);
    double (*peakOfAddScaledDiff)(const double *, const double *,
                                  const double *, double, std::size_t);
    const char *isa;
};

KernelDispatch
pickDispatch()
{
    KernelDispatch d{peakGeneric, peakOfSumGeneric, peakOfScaledSumGeneric,
                     peakOfDiffGeneric, peakOfAddScaledDiffGeneric,
                     "generic"};
#if SOSIM_AVX2_COMPILED
    const char *env = std::getenv("SOSIM_NATIVE");
    const bool disabled = env != nullptr && env[0] == '0';
    if (!disabled && __builtin_cpu_supports("avx2")) {
        d = {peakAvx2, peakOfSumAvx2, peakOfScaledSumAvx2, peakOfDiffAvx2,
             peakOfAddScaledDiffAvx2, "avx2"};
    }
#endif
    return d;
}

/** Resolved once on first use (thread-safe magic static). */
const KernelDispatch &
dispatch()
{
    static const KernelDispatch d = pickDispatch();
    return d;
}

} // namespace

const char *
kernelModeName(KernelMode mode)
{
    return mode == KernelMode::kBlocked ? "blocked" : "strict";
}

const char *
kernelIsaName()
{
    return dispatch().isa;
}

namespace {

/**
 * Elements scanned between early-reject checks.  Each chunk goes
 * through the dispatched (AVX2 / generic multi-accumulator) peak
 * kernels, so the check never sits inside the vectorized loop; one
 * division per chunk is noise, and most failing candidates abort
 * within a few chunks.
 */
constexpr std::size_t kRejectStride = 256;

} // namespace

double
peakOfScaledSumEarlyReject(TraceView a, TraceView b, double scale,
                           double numerator, double threshold)
{
    SOSIM_COUNT("trace.kernels.peak_of_scaled_sum");
    requireAligned(a, b, "peakOfScaledSumEarlyReject: views must be "
                         "aligned and non-empty");
    const KernelDispatch &d = dispatch();
    const std::size_t n = a.size();
    double best = kNegInf;
    std::size_t i = 0;
    while (i < n) {
        const std::size_t len = std::min(n - i, kRejectStride);
        const double chunk =
            d.peakOfScaledSum(a.data() + i, b.data() + i, scale, len);
        if (chunk > best)
            best = chunk;
        i += len;
        if (i < n && rejectProven(best, numerator, threshold)) {
            SOSIM_COUNT("trace.kernels.early_rejects");
            return best;
        }
    }
    return best;
}

double
peakOfAddScaledDiffEarlyReject(TraceView c, TraceView a, TraceView b,
                               double scale, double numerator,
                               double threshold)
{
    SOSIM_COUNT("trace.kernels.peak_of_add_scaled_diff");
    requireAligned(c, a, "peakOfAddScaledDiffEarlyReject: views must be "
                         "aligned, non-empty");
    requireAligned(c, b, "peakOfAddScaledDiffEarlyReject: views must be "
                         "aligned, non-empty");
    const KernelDispatch &d = dispatch();
    const std::size_t n = c.size();
    double best = kNegInf;
    std::size_t i = 0;
    while (i < n) {
        const std::size_t len = std::min(n - i, kRejectStride);
        const double chunk = d.peakOfAddScaledDiff(
            c.data() + i, a.data() + i, b.data() + i, scale, len);
        if (chunk > best)
            best = chunk;
        i += len;
        if (i < n && rejectProven(best, numerator, threshold)) {
            SOSIM_COUNT("trace.kernels.early_rejects");
            return best;
        }
    }
    return best;
}

double
peakBlocked(TraceView v)
{
    SOSIM_COUNT("trace.kernels.peak_blocked");
    SOSIM_REQUIRE(!v.empty(), "peakBlocked: view must be non-empty");
    return dispatch().peak(v.data(), v.size());
}

std::size_t
firstPeakIndex(TraceView v, double peak)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        if (v[i] == peak)
            return i;
    return 0;
}

std::size_t
firstPeakIndexOfDiff(TraceView a, TraceView b, double peak)
{
    SOSIM_REQUIRE(a.alignedWith(b),
                  "firstPeakIndexOfDiff: views must be aligned");
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] - b[i] == peak)
            return i;
    return 0;
}

void
accumulateRow(double *dst, TraceView src)
{
    SOSIM_COUNT("trace.kernels.accumulate_row");
    const double *p = src.data();
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] += p[i];
}

double
peakOfSumBlocked(TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.peak_of_sum_blocked");
    requireAligned(a, b,
                   "peakOfSumBlocked: views must be aligned and non-empty");
    return dispatch().peakOfSum(a.data(), b.data(), a.size());
}

double
peakOfScaledSumBlocked(TraceView a, TraceView b, double scale)
{
    SOSIM_COUNT("trace.kernels.peak_of_scaled_sum_blocked");
    requireAligned(a, b, "peakOfScaledSumBlocked: views must be aligned "
                         "and non-empty");
    return dispatch().peakOfScaledSum(a.data(), b.data(), scale, a.size());
}

double
peakOfDiffBlocked(TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.peak_of_diff_blocked");
    requireAligned(a, b,
                   "peakOfDiffBlocked: views must be aligned and non-empty");
    return dispatch().peakOfDiff(a.data(), b.data(), a.size());
}

double
peakOfAddScaledDiffBlocked(TraceView c, TraceView a, TraceView b,
                           double scale)
{
    SOSIM_COUNT("trace.kernels.peak_of_add_scaled_diff_blocked");
    requireAligned(c, a, "peakOfAddScaledDiffBlocked: views must be "
                         "aligned, non-empty");
    requireAligned(c, b, "peakOfAddScaledDiffBlocked: views must be "
                         "aligned, non-empty");
    return dispatch().peakOfAddScaledDiff(c.data(), a.data(), b.data(),
                                          scale, c.size());
}

double
peakOfSumValidBlocked(TraceView a, TraceView b, std::size_t *valid_count)
{
    SOSIM_COUNT("trace.kernels.peak_of_sum_valid_blocked");
    requireAligned(a, b, "peakOfSumValidBlocked: views must be aligned "
                         "and non-empty");
    // Four independent (max, count) lanes; NaN sums fail the > compare
    // and never enter a lane max, so only the exact-integer count and the
    // association-insensitive max survive to the merge.
    double m[4] = {kNegInf, kNegInf, kNegInf, kNegInf};
    std::size_t cnt[4] = {0, 0, 0, 0};
    const double *pa = a.data();
    const double *pb = b.data();
    const std::size_t n = a.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        for (std::size_t l = 0; l < 4; ++l) {
            const double x = pa[i + l] + pb[i + l];
            if (std::isfinite(x)) {
                m[l] = std::max(m[l], x);
                ++cnt[l];
            }
        }
    }
    for (; i < n; ++i) {
        const double x = pa[i] + pb[i];
        if (std::isfinite(x)) {
            m[0] = std::max(m[0], x);
            ++cnt[0];
        }
    }
    const std::size_t valid = cnt[0] + cnt[1] + cnt[2] + cnt[3];
    if (valid_count != nullptr)
        *valid_count = valid;
    if (valid == 0)
        return 0.0; // Zero-power convention, as peakOfSumValid.
    return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
}

ValidStats
computeValidStatsBlocked(TraceView v)
{
    // Lane-partitioned single pass.  peak/valley/count merge exactly;
    // the sums accumulate per lane, so sum/mean are ULP-bounded against
    // computeValidStats.  peakIndex: each lane records the first index
    // attaining its lane max (strict > update), so the global first
    // attainment is the smallest recorded index among the lanes whose
    // max equals the merged peak.
    constexpr std::size_t kLanes = 4;
    double pk[kLanes], vl[kLanes], sm[kLanes];
    std::size_t idx[kLanes], cnt[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
        pk[l] = kNegInf;
        vl[l] = std::numeric_limits<double>::infinity();
        sm[l] = 0.0;
        idx[l] = 0;
        cnt[l] = 0;
    }
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double x = v[i];
        if (!std::isfinite(x))
            continue;
        const std::size_t l = i % kLanes;
        if (x > pk[l]) {
            pk[l] = x;
            idx[l] = i;
        }
        vl[l] = std::min(vl[l], x);
        sm[l] += x;
        ++cnt[l];
    }
    ValidStats out;
    out.validSamples = cnt[0] + cnt[1] + cnt[2] + cnt[3];
    if (out.validSamples == 0)
        return out; // All-zero stats, the computeValidStats convention.
    double peak = kNegInf, valley = std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (std::size_t l = 0; l < kLanes; ++l) {
        peak = std::max(peak, pk[l]);
        valley = std::min(valley, vl[l]);
        sum += sm[l];
    }
    std::size_t peak_index = v.size();
    for (std::size_t l = 0; l < kLanes; ++l)
        if (pk[l] == peak)
            peak_index = std::min(peak_index, idx[l]);
    out.stats.peak = peak;
    out.stats.valley = valley;
    out.stats.sum = sum;
    out.stats.mean = sum / static_cast<double>(out.validSamples);
    out.stats.peakIndex = peak_index;
    return out;
}

std::size_t
countValid(TraceView v)
{
    std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    const double *p = v.data();
    const std::size_t n = v.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        c0 += std::isfinite(p[i]) ? 1 : 0;
        c1 += std::isfinite(p[i + 1]) ? 1 : 0;
        c2 += std::isfinite(p[i + 2]) ? 1 : 0;
        c3 += std::isfinite(p[i + 3]) ? 1 : 0;
    }
    for (; i < n; ++i)
        c0 += std::isfinite(p[i]) ? 1 : 0;
    return c0 + c1 + c2 + c3;
}

std::vector<double>
scoreVectorsBatch(const TraceArena &itraces, const TraceArena &straces)
{
    SOSIM_SPAN("trace.kernels.score_vectors_batch");
    SOSIM_REQUIRE(!itraces.empty() && !straces.empty(),
                  "scoreVectorsBatch: both arenas must hold rows");
    SOSIM_REQUIRE(itraces.samplesPerTrace() == straces.samplesPerTrace() &&
                      itraces.intervalMinutes() ==
                          straces.intervalMinutes(),
                  "scoreVectorsBatch: arenas must be aligned");
    const std::size_t rows = itraces.size();
    const std::size_t cols = straces.size();
    std::vector<double> peaks(rows * cols);
    util::parallelFor(rows, [&](std::size_t i) {
        const TraceView a = itraces.view(i);
        for (std::size_t j = 0; j < cols; ++j)
            peaks[i * cols + j] = peakOfSumBlocked(a, straces.view(j));
    });
    return peaks;
}

} // namespace sosim::trace
