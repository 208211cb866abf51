#ifndef SOSIM_OBS_EVENTS_H
#define SOSIM_OBS_EVENTS_H

/**
 * @file
 * Flight recorder: a bounded, lock-cheap journal of structured decision
 * events (DESIGN.md section 12).
 *
 * Counters and spans (obs/metrics.h, obs/span.h) answer *aggregate*
 * questions — how many swaps, how much busy time.  The flight recorder
 * answers *causal* ones: why was instance 17 swapped, why was week 2
 * flagged degraded, why did this graph op re-execute.  Decision sites
 * emit fixed-size Event records through the SOSIM_EVENT* macros in
 * obs/obs.h; sinks (obs/trace_export.h) turn the drained buffer into a
 * JSONL journal, a Chrome-trace timeline, or a `sosim explain` history.
 *
 * Design, mirroring the metrics registry:
 *   - Per-thread ring buffers: writers append to the shard selected by
 *     threadShard(), so concurrent parallelFor workers almost never
 *     contend (each shard's mutex is effectively thread-private until
 *     more than kShards threads exist).
 *   - Bounded memory: each shard holds at most capacity() events; when
 *     full, the oldest event in that shard is overwritten and a drop
 *     counter increments.  Nothing ever blocks on a full buffer.
 *   - Idle by default: recording starts only when a sink is requested
 *     (--flight-record / --chrome-trace).  The compiled-but-idle cost
 *     of an instrumented site is one relaxed load and a branch.
 *   - SOSIM_OBS=OFF compiles the macros to no-ops that do not evaluate
 *     their arguments; the classes stay available so sinks still link.
 *
 * Causality: every event carries the id (sequence number) of the scope
 * event that was current on its thread when it was recorded.  Scopes
 * are opened with SOSIM_EVENT_SCOPE and util::parallelFor propagates
 * the submitting thread's current scope into its worker chunks exactly
 * the way ScopedSpanAdopt propagates spans, so decisions made on pool
 * workers chain to the stage that submitted the fan-out.
 *
 * Timestamps: events carry steady-clock nanoseconds since the epoch
 * captured when recording was enabled; the matching wall-clock epoch is
 * stored alongside so exporters can render absolute times.  When fake
 * time is active (obs::setFakeTime / SOSIM_FAKE_TIME) the recorder
 * stamps synthetic, sequence-derived times instead, which makes journal
 * goldens byte-stable.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace sosim::obs {

struct SpanNode; // span.h; events.h must not depend on it.

/** What kind of decision an Event records. */
enum class EventKind : std::uint8_t {
    None = 0,
    /** A closed span (a = SpanNode pointer, b = duration ns). */
    Span,
    /** A generic causal scope opened by SOSIM_EVENT_SCOPE. */
    Scope,
    /** Remap accepted a swap (a/b = instances, c/d = racks). */
    SwapAccept,
    /** Remap rejected a pairing (code = RejectReason). */
    SwapReject,
    /** One monitor week ingested (a = week, b = action). */
    MonitorWeek,
    /** An instance excluded from decisions for low validity. */
    MonitorExclude,
    /** One scheduled fault applied (code = FaultEventCode). */
    FaultInject,
    /** One trace repaired after injection (a = instance). */
    FaultRepair,
    /** A graph op body executed (a = node signature). */
    GraphEval,
    /** A graph op served from cache (a = node signature). */
    GraphCacheHit,
    /** A graph node marked dirty by an input change. */
    GraphDirty,
    /** Serve ingest rejected a sample (code = serve::IngestStatus). */
    IngestReject,
    /** One serve epoch processed (a = epoch, c = action). */
    EpochCommit,
    /** A pending epoch snapshot shed under backpressure (a = epoch). */
    EpochShed,
    /** A serve checkpoint committed (a = epoch, b = bytes). */
    CheckpointWrite,
    /** Serve state restored from a checkpoint (a = epoch). */
    CheckpointRestore,
};

/**
 * Why remap rejected a candidate pairing (Event::code).  A pair is
 * attributed to the first check that rejects it, in the scan's order:
 * validity gate, cluster prune, then the accept test cheapest-first —
 * the O(1) probe bound at B, the O(1) probe bound at A, the scan at B,
 * the scan at A (core/remap.cc).  So a pair that would fail at both
 * nodes reads NoImprovement unless the A-side bound proves it and the
 * B-side bound does not.  The nearest-miss scores journaled with a
 * reject are the values the deciding check computed: a bound-derived
 * score (numerator over the probe floor) or a prefix score from an
 * early-reject pass, both at least the true post-swap score.
 */
enum class RejectReason : std::uint32_t {
    /** Failed improve-at-A: by the A-side probe bound or the A scan. */
    EarlyReject = 1,
    /** Instance validity below RemapConfig::minValidFraction. */
    ValidityGate = 2,
    /** Failed improve-at-B: by the B-side probe bound (a lone member's
     *  fixed 2.0 score included) or the B scan. */
    NoImprovement = 3,
    /** Skipped before any kernel pass: the partner's embedding cluster
     *  is outside the candidate's allowed set (RemapConfig::prune). */
    Pruned = 4,
};

/** Which scheduled fault a FaultInject event applied (Event::code). */
enum class FaultEventCode : std::uint32_t {
    ClockSkew = 1,
    StuckSensor = 2,
    Gap = 3,
    TraceLoss = 4,
    BreakerTrip = 5,
    Derate = 6,
};

/**
 * One recorded decision event.  Fixed-size POD: the u64/double payload
 * fields are kind-specific (see trace_export.cc's renderer for the
 * schema of each kind); `name` is an id interned by the recorder.
 */
struct Event {
    /** Unique 1-based sequence number.  Allocated to threads in small
     *  blocks (store()), so it is monotonic within a thread but only
     *  block-approximate across threads; single-threaded runs assign
     *  contiguous values.  Timeline ordering uses steadyNanos. */
    std::uint64_t seq = 0;
    /** seq of the enclosing scope event (0 = no enclosing scope). */
    std::uint64_t parent = 0;
    /** Steady-clock ns since the recorder epoch (synthetic under fake
     *  time: seq * 1000). */
    std::uint64_t steadyNanos = 0;
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    double x = 0.0, y = 0.0, z = 0.0;
    /** Interned label id (0 = unlabeled); see EventRecorder::labelOf. */
    std::uint32_t name = 0;
    /** Kind-specific sub-code (RejectReason, FaultEventCode, ...). */
    std::uint32_t code = 0;
    EventKind kind = EventKind::None;
    /** Recording thread's shard slot (threadShard()). */
    std::uint16_t thread = 0;
};

/**
 * Call-site payload for SOSIM_EVENT / SOSIM_EVENT_SCOPE.  Designated
 * initializers keep sites readable: SOSIM_EVENT(.kind = ..., .a = ...).
 * `label` is interned only when the recorder is enabled, so sites may
 * pass dynamic names without paying for them while idle.
 */
struct EventData {
    EventKind kind = EventKind::None;
    std::uint32_t code = 0;
    std::string_view label{};
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    double x = 0.0, y = 0.0, z = 0.0;
};

/**
 * The process-wide flight recorder: kShards ring buffers plus the
 * label intern table and the monotonic sequence source.
 */
class EventRecorder
{
  public:
    /** Default ring capacity per shard (events, not bytes). */
    static constexpr std::size_t kDefaultCapacity = 4096;

    static EventRecorder &instance();

    /** One relaxed load: the record() fast-path gate. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Start/stop recording.  Enabling captures the steady/wall epoch
     * pair that timestamps are measured against; buffered events are
     * kept (drain() or reset() to discard).
     */
    void setEnabled(bool on);

    /** Per-shard ring capacity; setCapacity drops buffered events. */
    std::size_t capacity() const;
    void setCapacity(std::size_t per_shard);

    /** Append one event (no-op while disabled). */
    void record(const EventData &d) noexcept;

    /** Append one event with an explicit steady-ns timestamp (used by
     *  span journaling, whose slice starts before it is recorded). */
    void recordAt(const EventData &d,
                  std::uint64_t steady_nanos) noexcept;

    /**
     * Record `d` as a scope event and return its sequence number (0
     * while disabled).  The caller is responsible for making it the
     * thread's current scope — use ScopedEventScope.
     */
    std::uint64_t recordScope(const EventData &d) noexcept;

    /** Events evicted by ring wrap since the last reset(). */
    std::uint64_t dropped() const;

    /** Events successfully stored since the last reset(). */
    std::uint64_t recorded() const;

    /**
     * Snapshot every shard, sorted by sequence number.  `clear` also
     * empties the rings (drop/record totals are kept).  Callers must
     * have quiesced writers for an exact result — same contract as
     * Registry::snapshot().
     */
    std::vector<Event> collect(bool clear = false);

    /** Drop buffered events, zero the drop/record totals, and rewind
     *  the sequence counter (tests and golden replays). */
    void reset();

    /** Intern a label, returning its stable non-zero id. */
    std::uint32_t internLabel(std::string_view label);

    /** The label for an interned id ("" for 0 / unknown ids). */
    std::string labelOf(std::uint32_t id) const;

    /** Steady epoch captured by the last setEnabled(true). */
    std::chrono::steady_clock::time_point steadyEpoch() const;

    /** Wall-clock epoch ("YYYY-MM-DDTHH:MM:SSZ") captured with it. */
    std::string wallEpoch() const;

    EventRecorder(const EventRecorder &) = delete;
    EventRecorder &operator=(const EventRecorder &) = delete;

  private:
    EventRecorder() = default;

    /** One ring buffer; effectively thread-private until more than
     *  kShards threads record at once. */
    struct alignas(64) Shard {
        mutable std::mutex mutex;
        std::vector<Event> ring;
        /** Next write position once the ring has grown to capacity. */
        std::size_t head = 0;
        std::uint64_t dropped = 0;
        std::uint64_t recorded = 0;
    };

    /** Stamp, sequence, and buffer one event; returns its seq. */
    std::uint64_t store(Event e, std::uint64_t steady_nanos) noexcept;

    /** Draw the next seq from a per-thread block (see events.cc). */
    std::uint64_t nextSeqLocal() noexcept;

    std::array<Shard, kShards> shards_;
    std::atomic<std::uint64_t> nextSeq_{1};
    /** Bumped by reset() to invalidate per-thread seq blocks. */
    std::atomic<std::uint64_t> seqGeneration_{0};
    std::atomic<bool> enabled_{false};
    std::atomic<std::size_t> capacity_{kDefaultCapacity};
    std::chrono::steady_clock::time_point steadyEpoch_{};
    /** TSC reading and cycles→ns factor calibrated by setEnabled(true)
     *  on x86-64 (events.cc); unused elsewhere. */
    std::uint64_t tscEpoch_ = 0;
    double nsPerTick_ = 0.0;
    std::string wallEpoch_;
    mutable std::mutex labelMutex_;
    std::vector<std::string> labels_;
    std::map<std::string, std::uint32_t, std::less<>> labelIds_;
};

/** The calling thread's current causal scope id (0 = none). */
std::uint64_t currentEventScope();

/** Replace the thread's current scope id; returns the previous one. */
std::uint64_t setCurrentEventScope(std::uint64_t scope);

/**
 * RAII causal scope: records `d` as a scope event and makes its id the
 * thread's current scope, so events recorded inside chain to it; the
 * previous scope is restored on exit.  While the recorder is disabled
 * this is a no-op that leaves the current scope untouched.
 */
class ScopedEventScope
{
  public:
    explicit ScopedEventScope(const EventData &d)
    {
        EventRecorder &rec = EventRecorder::instance();
        if (!rec.enabled())
            return;
        const std::uint64_t id = rec.recordScope(d);
        if (id == 0)
            return;
        adopted_ = true;
        prev_ = setCurrentEventScope(id);
    }

    ~ScopedEventScope()
    {
        if (adopted_)
            setCurrentEventScope(prev_);
    }

    ScopedEventScope(const ScopedEventScope &) = delete;
    ScopedEventScope &operator=(const ScopedEventScope &) = delete;

  private:
    std::uint64_t prev_ = 0;
    bool adopted_ = false;
};

/**
 * Adopt another thread's causal scope for a scope — util::parallelFor
 * wraps every worker chunk in one of these (next to ScopedSpanAdopt),
 * passing the submitting thread's current scope id, which is what
 * chains worker-side decisions under the submitting stage.
 */
class ScopedEventParentAdopt
{
  public:
    explicit ScopedEventParentAdopt(std::uint64_t submitter)
        : prev_(setCurrentEventScope(submitter))
    {}

    ~ScopedEventParentAdopt() { setCurrentEventScope(prev_); }

    ScopedEventParentAdopt(const ScopedEventParentAdopt &) = delete;
    ScopedEventParentAdopt &
    operator=(const ScopedEventParentAdopt &) = delete;

  private:
    std::uint64_t prev_ = 0;
};

/**
 * Journal one closed span (called from ~ScopedSpan when the recorder
 * is enabled): kind Span, a = the SpanNode pointer (resolved to a path
 * by the exporters), b = duration ns, timestamped at `start`.
 */
void recordSpanEvent(const SpanNode *node,
                     std::chrono::steady_clock::time_point start,
                     std::uint64_t duration_nanos) noexcept;

} // namespace sosim::obs

#endif // SOSIM_OBS_EVENTS_H
