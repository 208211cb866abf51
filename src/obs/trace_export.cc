#include "trace_export.h"

#include <cstdio>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/span.h"

namespace sosim::obs {

namespace {

/** Nanoseconds as microseconds with exactly three decimals (exact —
 *  Chrome trace "ts"/"dur" are microseconds, and integer-splitting
 *  avoids floating-point rounding in the export). */
void
writeMicros(std::ostream &os, std::uint64_t ns)
{
    char buf[8];
    std::snprintf(buf, sizeof buf, "%03u",
                  static_cast<unsigned>(ns % 1000));
    os << ns / 1000 << '.' << buf;
}

/** "a/b/c" path of a span node (walks parents; excludes the root). */
std::string
spanPath(const SpanNode *node)
{
    std::vector<const SpanNode *> chain;
    for (const SpanNode *n = node; n != nullptr && n->parent != nullptr;
         n = n->parent)
        chain.push_back(n);
    std::string path;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        if (!path.empty())
            path += "/";
        path += (*it)->name;
    }
    return path;
}

const char *
rejectReasonName(std::uint32_t code)
{
    switch (static_cast<RejectReason>(code)) {
      case RejectReason::EarlyReject:
        return "early_reject";
      case RejectReason::ValidityGate:
        return "validity_gate";
      case RejectReason::NoImprovement:
        return "no_improvement";
      case RejectReason::Pruned:
        return "pruned";
    }
    return "unknown";
}

const char *
faultCodeName(std::uint32_t code)
{
    switch (static_cast<FaultEventCode>(code)) {
      case FaultEventCode::ClockSkew:
        return "clock_skew";
      case FaultEventCode::StuckSensor:
        return "stuck_sensor";
      case FaultEventCode::Gap:
        return "gap";
      case FaultEventCode::TraceLoss:
        return "trace_loss";
      case FaultEventCode::BreakerTrip:
        return "breaker_trip";
      case FaultEventCode::Derate:
        return "derate";
    }
    return "unknown";
}

/** Reason name of an IngestReject event's code — mirrors the values of
 *  serve::IngestStatus (obs must not depend on the serve layer). */
const char *
ingestRejectName(std::uint32_t code)
{
    switch (code) {
      case 2:
        return "stale";
      case 3:
        return "future";
      case 4:
        return "duplicate";
      case 5:
        return "nonfinite";
      case 6:
        return "negative";
      case 7:
        return "unknown_instance";
    }
    return "unknown";
}

/**
 * The kind-specific payload of one event as `"key": value` JSON object
 * members (no surrounding braces) — shared by the journal writer and
 * the Chrome-trace writer.  This is the journal's args schema.
 */
std::string
argsInner(const Event &e)
{
    std::ostringstream os;
    bool first = true;
    auto key = [&](const char *k) {
        if (!first)
            os << ", ";
        first = false;
        os << '"' << k << "\": ";
    };
    auto u64 = [&](const char *k, std::uint64_t v) {
        key(k);
        os << v;
    };
    auto i64 = [&](const char *k, std::int64_t v) {
        key(k);
        os << v;
    };
    auto dbl = [&](const char *k, double v) {
        key(k);
        json::writeNumber(os, v);
    };
    auto str = [&](const char *k, const std::string &v) {
        key(k);
        json::writeString(os, v);
    };
    const EventRecorder &rec = EventRecorder::instance();
    switch (e.kind) {
      case EventKind::None:
        break;
      case EventKind::Span:
        str("span", spanPath(reinterpret_cast<const SpanNode *>(e.a)));
        u64("dur_ns", e.b);
        break;
      case EventKind::Scope:
        str("label", rec.labelOf(e.name));
        if (e.a != 0)
            u64("a", e.a);
        if (e.b != 0)
            u64("b", e.b);
        if (e.c != 0)
            u64("c", e.c);
        if (e.d != 0)
            u64("d", e.d);
        break;
      case EventKind::SwapAccept:
        u64("inst_a", e.a);
        u64("inst_b", e.b);
        u64("rack_a", e.c);
        u64("rack_b", e.d);
        dbl("gain", e.x);
        dbl("delta_a", e.y);
        dbl("delta_b", e.z);
        break;
      case EventKind::SwapReject:
        // Coalesced: one event per candidate per reason per remap
        // round — `partners` rejected pairings, `nearest` the partner
        // with the smallest score deficit (see core/remap.cc).
        str("reason", rejectReasonName(e.code));
        u64("inst_a", e.a);
        u64("partners", e.b);
        u64("rack_a", e.c);
        u64("nearest", e.d);
        dbl("score_before", e.x);
        dbl("score_after", e.y);
        break;
      case EventKind::MonitorWeek:
        u64("week", e.a);
        u64("action", e.b);
        if (e.name != 0)
            str("action_name", rec.labelOf(e.name));
        u64("degraded", e.code);
        u64("excluded", e.c);
        u64("repaired_samples", e.d);
        dbl("fragmentation_ratio", e.x);
        dbl("valid_fraction", e.y);
        dbl("widen", e.z);
        break;
      case EventKind::MonitorExclude:
        u64("instance", e.a);
        dbl("validity", e.x);
        break;
      case EventKind::FaultInject:
        str("fault", faultCodeName(e.code));
        switch (static_cast<FaultEventCode>(e.code)) {
          case FaultEventCode::ClockSkew:
            u64("instance", e.a);
            i64("offset", static_cast<std::int64_t>(e.b));
            break;
          case FaultEventCode::StuckSensor:
            u64("instance", e.a);
            u64("windows", e.b);
            u64("samples", e.c);
            break;
          case FaultEventCode::Gap:
            u64("instance", e.a);
            u64("gaps", e.b);
            u64("samples", e.c);
            break;
          case FaultEventCode::TraceLoss:
            u64("instance", e.a);
            break;
          case FaultEventCode::BreakerTrip:
            u64("rack", e.a);
            u64("at_sample", e.b);
            u64("duration", e.c);
            break;
          case FaultEventCode::Derate:
            u64("node", e.a);
            dbl("factor", e.x);
            break;
        }
        if (e.d != 0)
            u64("plan", e.d);
        break;
      case EventKind::FaultRepair:
        u64("instance", e.a);
        u64("samples", e.b);
        break;
      case EventKind::GraphEval:
        str("op", rec.labelOf(e.name));
        u64("sig", e.a);
        if (e.b != 0)
            u64("input_fp0", e.b);
        if (e.c != 0)
            u64("input_fp1", e.c);
        if (e.d != 0)
            u64("input_fp2", e.d);
        break;
      case EventKind::GraphCacheHit:
        str("op", rec.labelOf(e.name));
        u64("sig", e.a);
        break;
      case EventKind::GraphDirty:
        str("op", rec.labelOf(e.name));
        u64("node", e.a);
        break;
      case EventKind::IngestReject:
        str("reason", ingestRejectName(e.code));
        u64("instance", e.a);
        u64("tick", e.b);
        dbl("watts", e.x);
        break;
      case EventKind::EpochCommit:
        u64("epoch", e.a);
        u64("frontier", e.b);
        u64("action", e.c);
        u64("swaps", e.d);
        dbl("fragmentation_ratio", e.x);
        u64("degraded", e.code);
        break;
      case EventKind::EpochShed:
        u64("epoch", e.a);
        u64("queue_depth", e.b);
        break;
      case EventKind::CheckpointWrite:
        u64("epoch", e.a);
        u64("bytes", e.b);
        u64("slot", e.c);
        break;
      case EventKind::CheckpointRestore:
        u64("epoch", e.a);
        u64("frontier", e.b);
        break;
    }
    return os.str();
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::None:
        return "none";
      case EventKind::Span:
        return "span";
      case EventKind::Scope:
        return "scope";
      case EventKind::SwapAccept:
        return "swap_accept";
      case EventKind::SwapReject:
        return "swap_reject";
      case EventKind::MonitorWeek:
        return "monitor_week";
      case EventKind::MonitorExclude:
        return "monitor_exclude";
      case EventKind::FaultInject:
        return "fault_inject";
      case EventKind::FaultRepair:
        return "fault_repair";
      case EventKind::GraphEval:
        return "graph_eval";
      case EventKind::GraphCacheHit:
        return "graph_cache_hit";
      case EventKind::GraphDirty:
        return "graph_dirty";
      case EventKind::IngestReject:
        return "ingest_reject";
      case EventKind::EpochCommit:
        return "epoch_commit";
      case EventKind::EpochShed:
        return "epoch_shed";
      case EventKind::CheckpointWrite:
        return "checkpoint_write";
      case EventKind::CheckpointRestore:
        return "checkpoint_restore";
    }
    return "unknown";
}

void
writeEventJournal(std::ostream &os, const std::vector<Event> &events,
                  const std::string &label)
{
    EventRecorder &rec = EventRecorder::instance();
    const std::string stamp =
        rec.wallEpoch().empty() ? utcTimestamp() : rec.wallEpoch();
    os << "{\"label\": ";
    json::writeString(os, label);
    os << ", \"timestamp_utc\": ";
    json::writeString(os, stamp);
    os << ", \"dropped\": " << rec.dropped()
       << ", \"recorded\": " << rec.recorded()
       << ", \"events\": " << events.size() << "}\n";
    for (const Event &e : events) {
        os << "{\"seq\": " << e.seq << ", \"parent\": " << e.parent
           << ", \"thread\": " << e.thread
           << ", \"t_ns\": " << e.steadyNanos << ", \"kind\": \""
           << eventKindName(e.kind) << "\"";
        const std::string inner = argsInner(e);
        if (!inner.empty())
            os << ", \"args\": {" << inner << "}";
        os << "}\n";
    }
}

void
writeEventJournal(std::ostream &os, const std::string &label)
{
    writeEventJournal(os, EventRecorder::instance().collect(), label);
}

void
writeChromeTrace(std::ostream &os, const std::vector<Event> &events,
                 const std::string &label)
{
    EventRecorder &rec = EventRecorder::instance();
    const std::string stamp =
        rec.wallEpoch().empty() ? utcTimestamp() : rec.wallEpoch();
    os << "{\n\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    sep();
    os << "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
          "\"name\": \"process_name\", \"args\": {\"name\": \"sosim\"}}";
    std::set<unsigned> threads;
    for (const Event &e : events)
        threads.insert(e.thread);
    for (const unsigned t : threads) {
        sep();
        os << "{\"ph\": \"M\", \"pid\": 0, \"tid\": " << t
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
              "\"worker "
           << t << "\"}}";
    }
    for (const Event &e : events) {
        sep();
        const std::string inner = argsInner(e);
        if (e.kind == EventKind::Span) {
            const auto *node = reinterpret_cast<const SpanNode *>(e.a);
            os << "{\"ph\": \"X\", \"pid\": 0, \"tid\": " << e.thread
               << ", \"ts\": ";
            writeMicros(os, e.steadyNanos);
            os << ", \"dur\": ";
            writeMicros(os, e.b);
            os << ", \"name\": ";
            json::writeString(os, node != nullptr ? node->name : "?");
            os << ", \"cat\": \"span\"";
        } else {
            os << "{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": "
               << e.thread << ", \"ts\": ";
            writeMicros(os, e.steadyNanos);
            os << ", \"name\": \"" << eventKindName(e.kind)
               << "\", \"cat\": \"decision\"";
        }
        os << ", \"args\": {\"seq\": " << e.seq
           << ", \"parent\": " << e.parent;
        if (!inner.empty())
            os << ", " << inner;
        os << "}}";
    }
    os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
          "{\"label\": ";
    json::writeString(os, label);
    os << ", \"timestamp_utc\": ";
    json::writeString(os, stamp);
    os << "}\n}\n";
}

void
writeChromeTrace(std::ostream &os, const std::string &label)
{
    writeChromeTrace(os, EventRecorder::instance().collect(), label);
}

namespace {

/**
 * Fill `ev` from one parsed journal line.  Returns nullptr on success,
 * else why the line is not a journal row.  The header object has no
 * "kind" and leaves `ev.kind` empty.
 */
const char *
journalEvent(const json::Value &line, JournalEvent &ev)
{
    if (line.kind != json::Value::Kind::Object)
        return "not a JSON object";
    const json::Value *kind = line.find("kind");
    if (kind == nullptr)
        return nullptr;
    if (kind->kind != json::Value::Kind::String || kind->text.empty())
        return "\"kind\" is not a non-empty string";
    ev.kind = kind->text;
    const auto field = [&line](const char *name) {
        const json::Value *v = line.find(name);
        return v != nullptr ? v->asUnsigned() : std::nullopt;
    };
    const auto seq = field("seq");
    const auto parent = field("parent");
    const auto thread = field("thread");
    const auto t_ns = field("t_ns");
    if (!seq || !parent || !thread || !t_ns ||
        *thread > std::numeric_limits<unsigned>::max())
        return "seq, parent, thread and t_ns must be unsigned integers";
    ev.seq = *seq;
    ev.parent = *parent;
    ev.thread = static_cast<unsigned>(*thread);
    ev.tNanos = *t_ns;
    if (const json::Value *args = line.find("args")) {
        if (args->kind != json::Value::Kind::Object)
            return "\"args\" is not an object";
        for (const json::Member &m : args->members) {
            if (!m.value.isScalar())
                return "an \"args\" value is not a scalar";
            ev.args.emplace(m.name, m.value.text);
        }
    }
    return nullptr;
}

} // namespace

bool
readEventJournal(std::istream &is, std::vector<JournalEvent> &out,
                 std::string *error)
{
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        json::Value doc;
        JournalEvent ev;
        std::string why;
        if (json::parse(line, doc, &why)) {
            const char *bad = journalEvent(doc, ev);
            if (bad == nullptr) {
                if (!ev.kind.empty())
                    out.push_back(std::move(ev));
                continue;
            }
            why = bad;
        }
        if (error != nullptr)
            *error = "malformed journal line " + std::to_string(lineno) +
                     ": " + why;
        return false;
    }
    return true;
}

namespace {

std::string
arg(const JournalEvent &e, const char *k)
{
    const auto it = e.args.find(k);
    return it == e.args.end() ? std::string() : it->second;
}

bool
argEquals(const JournalEvent &e, const char *k, std::uint64_t v)
{
    const auto it = e.args.find(k);
    return it != e.args.end() && json::parseUnsigned(it->second) == v;
}

bool
matchesInstance(const JournalEvent &e, std::uint64_t id)
{
    if (e.kind == "swap_accept")
        return argEquals(e, "inst_a", id) || argEquals(e, "inst_b", id);
    if (e.kind == "swap_reject")
        return argEquals(e, "inst_a", id) ||
               argEquals(e, "nearest", id);
    if (e.kind == "monitor_exclude" || e.kind == "fault_inject" ||
        e.kind == "fault_repair")
        return argEquals(e, "instance", id);
    return false;
}

bool
matchesNode(const JournalEvent &e, std::uint64_t sig)
{
    if (e.kind == "graph_eval" || e.kind == "graph_cache_hit")
        return argEquals(e, "sig", sig);
    if (e.kind == "graph_dirty")
        return argEquals(e, "node", sig);
    return false;
}

/** One human-readable sentence for an event (k=v fallback). */
std::string
describe(const JournalEvent &e)
{
    std::ostringstream os;
    if (e.kind == "swap_accept") {
        os << "accepted swap: instance " << arg(e, "inst_a")
           << " <-> instance " << arg(e, "inst_b") << " (rack "
           << arg(e, "rack_a") << " <-> rack " << arg(e, "rack_b")
           << "), gain " << arg(e, "gain") << " (delta A "
           << arg(e, "delta_a") << ", delta B " << arg(e, "delta_b")
           << ")";
    } else if (e.kind == "swap_reject") {
        const std::string reason = arg(e, "reason");
        os << "rejected pairings: instance " << arg(e, "inst_a")
           << " at rack " << arg(e, "rack_a") << " — "
           << arg(e, "partners") << " partner(s) ";
        if (reason == "early_reject")
            os << "showed no improvement at the donor rack";
        else if (reason == "validity_gate")
            os << "excluded by the validity gate";
        else if (reason == "no_improvement")
            os << "showed no improvement at the partner's rack";
        else if (reason == "pruned")
            os << "pruned by the cluster candidate index before "
                  "evaluation";
        else
            os << "rejected: " << reason;
        if (reason != "validity_gate" && reason != "pruned" &&
            !arg(e, "nearest").empty())
            os << "; nearest miss: instance " << arg(e, "nearest")
               << ", score " << arg(e, "score_before") << " -> "
               << arg(e, "score_after");
    } else if (e.kind == "monitor_week") {
        os << "monitor week " << arg(e, "week") << ": "
           << (arg(e, "degraded") == "1" ? "DEGRADED" : "normal")
           << ", fragmentation_ratio "
           << arg(e, "fragmentation_ratio") << ", valid_fraction "
           << arg(e, "valid_fraction");
        if (!arg(e, "action_name").empty())
            os << ", action " << arg(e, "action_name");
        if (arg(e, "degraded") == "1")
            os << ", thresholds widened x" << arg(e, "widen");
        if (arg(e, "excluded") != "0" && !arg(e, "excluded").empty())
            os << ", " << arg(e, "excluded") << " instance(s) excluded";
    } else if (e.kind == "monitor_exclude") {
        os << "instance " << arg(e, "instance")
           << " excluded from the week's measurement (validity "
           << arg(e, "validity") << ")";
    } else if (e.kind == "fault_inject") {
        os << "fault injected: " << arg(e, "fault");
        for (const auto &[k, v] : e.args)
            if (k != "fault" && k != "plan")
                os << " " << k << "=" << v;
        if (!arg(e, "plan").empty())
            os << " (plan " << arg(e, "plan") << ")";
    } else if (e.kind == "fault_repair") {
        os << "trace repaired: instance " << arg(e, "instance") << ", "
           << arg(e, "samples") << " sample(s) restored";
    } else if (e.kind == "graph_eval") {
        os << "op '" << arg(e, "op") << "' executed (sig "
           << arg(e, "sig") << ")";
    } else if (e.kind == "graph_cache_hit") {
        os << "op '" << arg(e, "op") << "' served from cache (sig "
           << arg(e, "sig") << ")";
    } else if (e.kind == "graph_dirty") {
        os << "op '" << arg(e, "op") << "' marked dirty";
    } else if (e.kind == "span") {
        os << "span " << arg(e, "span") << " closed ("
           << arg(e, "dur_ns") << " ns)";
    } else if (e.kind == "scope") {
        os << "scope " << arg(e, "label");
    } else {
        os << e.kind;
        for (const auto &[k, v] : e.args)
            os << " " << k << "=" << v;
    }
    return os.str();
}

/** "a <- b <- c" chain of enclosing scopes, via parent ids. */
std::string
scopeChain(const JournalEvent &e,
           const std::map<std::uint64_t, const JournalEvent *> &by_seq)
{
    std::string chain;
    std::uint64_t parent = e.parent;
    for (int depth = 0; parent != 0 && depth < 16; ++depth) {
        const auto it = by_seq.find(parent);
        if (it == by_seq.end()) {
            chain += chain.empty() ? "" : " <- ";
            chain += "(evicted #" + std::to_string(parent) + ")";
            break;
        }
        const JournalEvent &p = *it->second;
        std::string name;
        if (p.kind == "scope")
            name = arg(p, "label");
        else if (p.kind == "span")
            name = arg(p, "span");
        else if (p.kind == "graph_eval")
            name = "op '" + arg(p, "op") + "'";
        if (name.empty() || name == "op ''")
            name = p.kind + "#" + std::to_string(p.seq);
        chain += chain.empty() ? "" : " <- ";
        chain += name;
        parent = p.parent;
    }
    return chain;
}

} // namespace

bool
explainRecord(std::ostream &os, const std::vector<JournalEvent> &events,
              const ExplainQuery &query)
{
    std::map<std::uint64_t, const JournalEvent *> by_seq;
    for (const JournalEvent &e : events)
        by_seq.emplace(e.seq, &e);

    std::vector<const JournalEvent *> matched;
    for (const JournalEvent &e : events) {
        if (query.instance && (matchesInstance(e, *query.instance) ||
                               e.kind == "monitor_week"))
            matched.push_back(&e);
        else if (query.node && matchesNode(e, *query.node))
            matched.push_back(&e);
    }

    std::size_t specific = 0;
    for (const JournalEvent *e : matched)
        if (!query.instance || e->kind != "monitor_week")
            ++specific;

    if (query.instance)
        os << "decision history for instance " << *query.instance;
    else if (query.node)
        os << "decision history for graph node signature "
           << (query.node ? *query.node : 0);
    else
        os << "decision history";
    os << "\n  " << specific << " matching event(s)";
    if (query.instance && matched.size() > specific)
        os << " + " << matched.size() - specific
           << " global monitor-week record(s)";
    os << " out of " << events.size() << " in the journal\n";

    if (specific == 0) {
        os << "  (no decisions recorded for this query — the ring "
              "buffer may have evicted them; raise the capacity or "
              "narrow the run)\n";
        return false;
    }

    for (const JournalEvent *e : matched) {
        std::ostringstream tag;
        tag << "#" << std::setw(6) << std::setfill('0') << e->seq;
        os << "  " << tag.str() << " [" << e->kind << "] "
           << describe(*e) << "\n";
        const std::string chain = scopeChain(*e, by_seq);
        if (!chain.empty())
            os << "          within " << chain << "\n";
    }
    return true;
}

} // namespace sosim::obs
