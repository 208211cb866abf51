#ifndef SOSIM_OBS_TRACE_EXPORT_H
#define SOSIM_OBS_TRACE_EXPORT_H

/**
 * @file
 * Sinks for the flight recorder (obs/events.h):
 *
 *   - writeEventJournal: JSONL — one header object (label, wall epoch,
 *     drop/record totals), then one flat JSON object per event with
 *     seq/parent/thread/t_ns/kind plus kind-specific "args".  This is
 *     the durable artifact behind `--flight-record PATH` and the input
 *     to `sosim explain`.
 *
 *   - writeChromeTrace: a Chrome trace / Perfetto JSON document merging
 *     the span timeline and the decision journal: spans become "X"
 *     (complete) duration events on per-thread tracks, decisions become
 *     instant events with their payload as args.  Load the file in
 *     chrome://tracing or ui.perfetto.dev.
 *
 *   - readEventJournal / explainRecord: parse a journal back and
 *     reconstruct the causal decision history of one instance (or one
 *     graph node signature) — the `sosim explain` backend.
 *
 * Span events store a live SpanNode pointer, so the two writers resolve
 * span paths in-process at write time; the journal/trace files are
 * self-contained afterwards.
 */

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/events.h"

namespace sosim::obs {

/** Stable lowercase name for an event kind ("swap_reject", ...). */
const char *eventKindName(EventKind kind);

/** Write the JSONL journal for an explicit event snapshot. */
void writeEventJournal(std::ostream &os, const std::vector<Event> &events,
                       const std::string &label);

/** Convenience overload draining (without clearing) the recorder. */
void writeEventJournal(std::ostream &os, const std::string &label);

/** Write a Chrome-trace JSON document for an explicit snapshot. */
void writeChromeTrace(std::ostream &os, const std::vector<Event> &events,
                      const std::string &label);

/** Convenience overload draining (without clearing) the recorder. */
void writeChromeTrace(std::ostream &os, const std::string &label);

/** One journal row parsed back from JSONL (args hold raw scalar text,
 *  i.e. numbers unquoted and strings without their quotes). */
struct JournalEvent {
    std::uint64_t seq = 0;
    std::uint64_t parent = 0;
    std::uint64_t tNanos = 0;
    unsigned thread = 0;
    std::string kind;
    std::map<std::string, std::string> args;
};

/**
 * Parse a journal written by writeEventJournal.  Every non-empty line
 * must be a JSON object (obs/json.h).  Lines without a "kind" key (the
 * header) are skipped; every other line needs seq/parent/thread/t_ns as
 * unsigned decimal integers within range and, if present, a flat "args"
 * object of scalars.  Returns false on the first line that breaks
 * this, with a line-numbered message in `error` when non-null.
 */
bool readEventJournal(std::istream &is, std::vector<JournalEvent> &out,
                      std::string *error = nullptr);

/** What `sosim explain` should reconstruct: exactly one of the two. */
struct ExplainQuery {
    std::optional<std::uint64_t> instance;
    std::optional<std::uint64_t> node;
};

/**
 * Write a human-readable causal decision history for the queried
 * instance (swap accepts/rejects, exclusions, faults, repairs, plus
 * every global monitor-week event) or graph-node signature (evals,
 * cache hits, dirty marks).  Each line shows the event and its scope
 * chain, reconstructed through parent ids.  Returns false (after
 * writing a note) when the journal holds no matching events.
 */
bool explainRecord(std::ostream &os,
                   const std::vector<JournalEvent> &events,
                   const ExplainQuery &query);

} // namespace sosim::obs

#endif // SOSIM_OBS_TRACE_EXPORT_H
