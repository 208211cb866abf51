/**
 * @file
 * Benchmark regression gate: compare a fresh bench_report JSON document
 * against a committed baseline and fail when a metric got slower than an
 * allowed tolerance.  Usage:
 *
 *   bench_compare BASELINE.json CURRENT.json
 *                 [--max-regress PCT] [--metrics name1,name2,...]
 *                 [--min-ms MS] [--json-out FILE]
 *
 * Rows are matched by (name, population).  For every matched row both
 * fused_ms and pooled_ms are compared; a relative slowdown beyond
 * --max-regress percent (default 25) fails the gate, as does a baseline
 * row that disappeared from the current document.  Rows that only exist
 * in the current document are reported but never fail — new benchmarks
 * must be able to land together with their first baseline.
 *
 * Timings whose baseline is below --min-ms (default 2.0) are reported
 * but not gated: at sub-millisecond scale, scheduler jitter on a busy
 * runner swings individual measurements by integer factors, and a
 * relative gate on them is pure noise.  Regressions that matter show
 * up in the larger-population rows of the same benchmark.
 *
 * --metrics restricts the gate to a comma-separated set of row names
 * (unmatched names in the filter are an error, so a typo cannot
 * silently disable the gate).
 *
 * --json-out writes the comparison itself as JSON: one row per gated
 * pair plus a header carrying both reports' hardware fields — in
 * particular each side's `oversubscribed` flag — so archived nightly
 * artifacts record when a WARN-only hardware mismatch (which this tool
 * deliberately never fails on) was in effect, instead of that context
 * living only in a scrolled-away build log.
 *
 * Both documents are read with the strict JSON reader (obs/json.h).
 * A file that is not JSON, has no rows, or has a row whose fused_ms or
 * pooled_ms is null, missing or not a number exits 2: a timing the
 * gate cannot read must not pass it as 0 ms.  reference_ms and the
 * speedups are not gated and may be null.
 *
 * CI wiring and the baseline update procedure are documented in
 * README.md ("CI jobs") and EXPERIMENTS.md: regenerate the baseline
 * with `bench_report --repeats 5 --out BENCH_<tag>.json` on a quiet
 * machine and commit it together with the change that moved the
 * numbers.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

namespace json = sosim::obs::json;

struct Row {
    std::string name;
    std::uint64_t population = 0;
    double fusedMs = -1.0;
    double pooledMs = -1.0;
};

/** Key uniquely identifying a measurement across documents. */
std::string
keyOf(const Row &row)
{
    return row.name + "/" + std::to_string(row.population);
}

/** The report-level hardware fields as JSON text ("" when absent —
 *  reports written before the fields existed do not carry them). */
struct Hardware {
    std::string concurrency;
    std::string oversubscribed;
};

struct Report {
    std::vector<Row> rows;
    Hardware hardware;
};

[[noreturn]] void
unreadable(const std::string &path, const std::string &why)
{
    std::cerr << "bench_compare: " << path << ": " << why << "\n";
    std::exit(2);
}

/** A top-level number or boolean's JSON text, else "". */
std::string
hardwareField(const json::Value &doc, const char *name)
{
    const json::Value *v = doc.find(name);
    using Kind = json::Value::Kind;
    const bool scalar =
        v != nullptr && (v->kind == Kind::Number || v->kind == Kind::Bool);
    return scalar ? v->text : "";
}

/**
 * Read a bench_report document.  Anything the gate cannot trust exits
 * 2: a file that is not JSON, no rows, or a row without a name, an
 * integer population, or numeric fused_ms and pooled_ms (a null timing
 * read as 0 ms would pass any comparison).
 */
Report
readReport(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        unreadable(path, "cannot read");
    std::stringstream buffer;
    buffer << file.rdbuf();
    json::Value doc;
    std::string error;
    if (!json::parse(buffer.str(), doc, &error))
        unreadable(path, "not JSON: " + error);
    const json::Value *results = doc.find("results");
    if (results == nullptr || results->kind != json::Value::Kind::Array)
        unreadable(path, "has no \"results\" array");

    Report report;
    report.hardware.concurrency = hardwareField(doc, "hardware_concurrency");
    report.hardware.oversubscribed = hardwareField(doc, "oversubscribed");
    for (const json::Value &item : results->items) {
        const json::Value *name = item.find("name");
        const json::Value *population = item.find("population");
        const auto pop = population != nullptr ? population->asUnsigned()
                                               : std::nullopt;
        if (name == nullptr || name->kind != json::Value::Kind::String ||
            !pop)
            unreadable(path, "a result row lacks a name string or an "
                             "integer population");
        Row row;
        row.name = name->text;
        row.population = *pop;
        const auto ms = [&](const char *field) {
            const json::Value *v = item.find(field);
            const auto x = v != nullptr ? v->asDouble() : std::nullopt;
            if (!x)
                unreadable(path, keyOf(row) + ": " + field +
                                     " is null, missing or not a number");
            return *x;
        };
        row.fusedMs = ms("fused_ms");
        row.pooledMs = ms("pooled_ms");
        report.rows.push_back(row);
    }
    if (report.rows.empty())
        unreadable(path, "contains no benchmark rows");
    return report;
}

/**
 * Warn (never fail) when the two reports ran on different hardware or
 * with different oversubscription: their timings are still printed, but
 * a cross-machine or cores-vs-oversubscribed comparison is not a
 * regression signal.  Older reports without the fields warn once about
 * the asymmetry instead of pretending the hardware matched.
 */
void
warnOnHardwareMismatch(const std::string &base_path, const Hardware &base,
                       const std::string &cur_path, const Hardware &cur)
{
    if (base.concurrency.empty() && cur.concurrency.empty())
        return;
    if (base.concurrency.empty() || cur.concurrency.empty()) {
        std::cout << "WARN hardware fields present in only one report ("
                  << (base.concurrency.empty() ? cur_path : base_path)
                  << "); cross-hardware timings may not be comparable\n";
        return;
    }
    if (base.concurrency != cur.concurrency)
        std::cout << "WARN hardware_concurrency differs: baseline "
                  << base.concurrency << ", current " << cur.concurrency
                  << " — timings may not be comparable\n";
    if (base.oversubscribed != cur.oversubscribed)
        std::cout << "WARN oversubscription differs: baseline "
                  << base.oversubscribed << ", current "
                  << cur.oversubscribed
                  << " — pooled timings may not be comparable\n";
}

/** Relative slowdown of current vs baseline, in percent. */
double
regressionPct(double baseline_ms, double current_ms)
{
    if (baseline_ms <= 0.0)
        return 0.0;
    return (current_ms - baseline_ms) / baseline_ms * 100.0;
}

/** One comparison line, for --json-out. */
struct GateLine {
    std::string key;
    std::string status; // "fail" | "ok" | "skip" | "new" | "missing"
    double baseFusedMs = -1.0;
    double curFusedMs = -1.0;
    double fusedPct = 0.0;
    double basePooledMs = -1.0;
    double curPooledMs = -1.0;
    double pooledPct = 0.0;
};

void
writeComparisonJson(std::ostream &os, const std::string &base_path,
                    const Hardware &base, const std::string &cur_path,
                    const Hardware &cur, double max_regress, double min_ms,
                    const std::vector<GateLine> &lines, int failures)
{
    // Hardware fields hold validated JSON number/boolean text; "" is a
    // report that predates the field.
    const auto field = [&os](const char *name, const std::string &text) {
        os << "  \"" << name << "\": " << (text.empty() ? "null" : text)
           << ",\n";
    };
    // Timings below zero are the "no such side" sentinel.
    const auto ms = [&os](double v) {
        if (v < 0.0)
            os << "null";
        else
            json::writeNumber(os, v);
    };
    os << "{\n  \"baseline\": ";
    json::writeString(os, base_path);
    os << ",\n  \"current\": ";
    json::writeString(os, cur_path);
    os << ",\n  \"max_regress_pct\": ";
    json::writeNumber(os, max_regress);
    os << ",\n  \"min_ms\": ";
    json::writeNumber(os, min_ms);
    os << ",\n";
    field("baseline_hardware_concurrency", base.concurrency);
    field("baseline_oversubscribed", base.oversubscribed);
    field("current_hardware_concurrency", cur.concurrency);
    field("current_oversubscribed", cur.oversubscribed);
    os << "  \"hardware_mismatch\": "
       << (base.concurrency != cur.concurrency ||
                   base.oversubscribed != cur.oversubscribed
               ? "true"
               : "false")
       << ",\n";
    os << "  \"failures\": " << failures << ",\n";
    os << "  \"rows\": [\n";
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto &l = lines[i];
        os << "    {\"key\": ";
        json::writeString(os, l.key);
        os << ", \"status\": ";
        json::writeString(os, l.status);
        os << ", \"baseline_fused_ms\": ";
        ms(l.baseFusedMs);
        os << ", \"current_fused_ms\": ";
        ms(l.curFusedMs);
        os << ", \"fused_regress_pct\": ";
        json::writeNumber(os, l.fusedPct);
        os << ", \"baseline_pooled_ms\": ";
        ms(l.basePooledMs);
        os << ", \"current_pooled_ms\": ";
        ms(l.curPooledMs);
        os << ", \"pooled_regress_pct\": ";
        json::writeNumber(os, l.pooledPct);
        os << "}" << (i + 1 < lines.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    double max_regress = 25.0;
    double min_ms = 2.0;
    std::string json_out;
    std::set<std::string> filter;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "bench_compare: " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--max-regress") {
            max_regress = std::strtod(next("--max-regress").c_str(),
                                      nullptr);
        } else if (arg == "--min-ms") {
            min_ms = std::strtod(next("--min-ms").c_str(), nullptr);
        } else if (arg == "--json-out") {
            json_out = next("--json-out");
        } else if (arg == "--metrics") {
            std::stringstream names(next("--metrics"));
            std::string name;
            while (std::getline(names, name, ','))
                if (!name.empty())
                    filter.insert(name);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "usage: bench_compare BASELINE.json CURRENT.json "
                         "[--max-regress PCT] [--metrics n1,n2,...] "
                         "[--min-ms MS] [--json-out FILE]\n";
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2) {
        std::cerr << "bench_compare: need exactly a baseline and a "
                     "current report (got "
                  << files.size() << " files)\n";
        return 2;
    }

    const Report base_report = readReport(files[0]);
    const Report cur_report = readReport(files[1]);
    const auto &baseline = base_report.rows;
    const auto &current = cur_report.rows;
    warnOnHardwareMismatch(files[0], base_report.hardware, files[1],
                           cur_report.hardware);
    std::map<std::string, Row> current_by_key;
    for (const auto &row : current)
        current_by_key[keyOf(row)] = row;

    // A filter name that matches nothing is a configuration error — a
    // typo must not silently disable the gate.
    for (const auto &name : filter) {
        bool known = false;
        for (const auto &row : baseline)
            known = known || row.name == name;
        if (!known) {
            std::cerr << "bench_compare: --metrics name '" << name
                      << "' matches no baseline row\n";
            return 2;
        }
    }

    int failures = 0;
    std::set<std::string> seen;
    std::vector<GateLine> lines;
    for (const auto &base : baseline) {
        if (!filter.empty() && filter.count(base.name) == 0)
            continue;
        const std::string key = keyOf(base);
        seen.insert(key);
        const auto found = current_by_key.find(key);
        if (found == current_by_key.end()) {
            std::cout << "FAIL " << key << ": missing from "
                      << files[1] << "\n";
            ++failures;
            GateLine line;
            line.key = key;
            line.status = "missing";
            line.baseFusedMs = base.fusedMs;
            line.basePooledMs = base.pooledMs;
            lines.push_back(line);
            continue;
        }
        const Row &cur = found->second;
        const double fused = regressionPct(base.fusedMs, cur.fusedMs);
        const double pooled = regressionPct(base.pooledMs, cur.pooledMs);
        // Baselines below the floor are jitter-dominated: report only.
        const bool gate_fused = base.fusedMs >= min_ms;
        const bool gate_pooled = base.pooledMs >= min_ms;
        const bool bad = (gate_fused && fused > max_regress) ||
                         (gate_pooled && pooled > max_regress);
        const char *tag = bad                          ? "FAIL "
                          : !gate_fused && !gate_pooled ? "skip "
                                                        : "ok   ";
        std::cout << tag << key << ": fused " << base.fusedMs << " -> "
                  << cur.fusedMs << " ms (" << (fused >= 0 ? "+" : "")
                  << fused << "%" << (gate_fused ? "" : ", ungated")
                  << "), pooled " << base.pooledMs << " -> "
                  << cur.pooledMs << " ms (" << (pooled >= 0 ? "+" : "")
                  << pooled << "%" << (gate_pooled ? "" : ", ungated")
                  << ")\n";
        if (bad)
            ++failures;
        GateLine line;
        line.key = key;
        line.status = bad                            ? "fail"
                      : !gate_fused && !gate_pooled ? "skip"
                                                    : "ok";
        line.baseFusedMs = base.fusedMs;
        line.curFusedMs = cur.fusedMs;
        line.fusedPct = fused;
        line.basePooledMs = base.pooledMs;
        line.curPooledMs = cur.pooledMs;
        line.pooledPct = pooled;
        lines.push_back(line);
    }
    for (const auto &cur : current)
        if (seen.count(keyOf(cur)) == 0 &&
            (filter.empty() || filter.count(cur.name) != 0)) {
            std::cout << "new  " << keyOf(cur)
                      << ": no baseline row (not gated)\n";
            GateLine line;
            line.key = keyOf(cur);
            line.status = "new";
            line.curFusedMs = cur.fusedMs;
            line.curPooledMs = cur.pooledMs;
            lines.push_back(line);
        }

    if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out) {
            std::cerr << "bench_compare: cannot write " << json_out
                      << "\n";
            return 2;
        }
        writeComparisonJson(out, files[0], base_report.hardware, files[1],
                            cur_report.hardware, max_regress, min_ms,
                            lines, failures);
        std::cout << "comparison written to " << json_out << "\n";
    }

    if (failures > 0) {
        std::cout << failures << " metric(s) regressed more than "
                  << max_regress << "% — see README.md (CI jobs) for "
                  << "the baseline update procedure\n";
        return 1;
    }
    std::cout << "all gated metrics within " << max_regress
              << "% of baseline\n";
    return 0;
}
