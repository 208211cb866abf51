/**
 * @file
 * Tests for the one JSON module (src/obs/json.*): the escaper and number
 * writer round-trip through the reader, the reader's strictness, and a
 * seeded mutation fuzz of the reader and of readEventJournal over the
 * writers' own output (metrics JSON, a flight journal, a Chrome trace
 * and a committed bench_report document).
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/events.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/span.h"
#include "obs/trace_export.h"

namespace {

using namespace sosim;
namespace json = obs::json;

std::string
escaped(std::string_view s)
{
    std::ostringstream os;
    json::writeString(os, s);
    return os.str();
}

std::string
number(double v)
{
    std::ostringstream os;
    json::writeNumber(os, v);
    return os.str();
}

TEST(Json, NumbersRoundTripBitExact)
{
    for (const double v :
         {0.0, -0.0, 0.1, 1.25, 13.686916834228832, 1.0 / 3.0, 1e-300,
          5e-324, 1e21, 123456789012345680.0,
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::min()}) {
        const std::string text = number(v);
        json::Value doc;
        ASSERT_TRUE(json::parse(text, doc)) << text;
        ASSERT_EQ(doc.kind, json::Value::Kind::Number) << text;
        EXPECT_EQ(doc.text, text);
        const auto back = doc.asDouble();
        ASSERT_TRUE(back.has_value()) << text;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
                  std::bit_cast<std::uint64_t>(v))
            << text;
    }
    EXPECT_EQ(number(1.25), "1.25");
    EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, NumbersKeepTheirTokenText)
{
    json::Value doc;
    ASSERT_TRUE(json::parse(R"([1.50, 1e309, -0, 42, 0.5e1, -3])", doc));
    ASSERT_EQ(doc.items.size(), 6u);
    EXPECT_EQ(doc.items[0].text, "1.50");
    // Valid JSON, but no finite double: readable as text only.
    EXPECT_EQ(doc.items[1].text, "1e309");
    EXPECT_FALSE(doc.items[1].asDouble().has_value());
    EXPECT_EQ(doc.items[2].text, "-0");
    EXPECT_TRUE(std::signbit(*doc.items[2].asDouble()));
    EXPECT_EQ(doc.items[3].asUnsigned(), 42u);
    EXPECT_FALSE(doc.items[4].asUnsigned().has_value());
    EXPECT_FALSE(doc.items[5].asUnsigned().has_value());

    EXPECT_EQ(json::parseUnsigned("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    for (const char *bad : {"", "18446744073709551616", "-1", "+1", "0x10",
                            "1e3", "1.0", "01", " 1"})
        EXPECT_FALSE(json::parseUnsigned(bad).has_value()) << bad;
}

TEST(Json, DecodesEscapesAndSurrogatePairs)
{
    json::Value doc;
    ASSERT_TRUE(json::parse(
        R"(["é\/\b\f\n\r\t\"\\", "😀", "\u0000"])", doc));
    EXPECT_EQ(doc.items[0].text, "\xc3\xa9/\b\f\n\r\t\"\\");
    EXPECT_EQ(doc.items[1].text, "\xf0\x9f\x98\x80");
    EXPECT_EQ(doc.items[2].text, std::string(1, '\0'));

    for (const char *bad : {R"("\ud800")", R"("\ud800x")", R"("\udc00")",
                            R"("\ud800A")", R"("\u12")"}) {
        std::string error;
        EXPECT_FALSE(json::parse(bad, doc, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Json, CapsNestingDepth)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    json::Value doc;
    EXPECT_TRUE(json::parse(nested(json::kMaxDepth + 1), doc));
    std::string error;
    EXPECT_FALSE(json::parse(nested(json::kMaxDepth + 2), doc, &error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(Json, ObjectsKeepMemberOrder)
{
    json::Value doc;
    ASSERT_TRUE(json::parse(R"({"b": 1, "a": {"c": null}, "b": 2})", doc));
    ASSERT_EQ(doc.members.size(), 3u);
    EXPECT_EQ(doc.members[0].name, "b");
    EXPECT_EQ(doc.members[1].name, "a");
    EXPECT_EQ(doc.find("b")->text, "1");
    EXPECT_EQ(doc.find("a")->find("c")->kind, json::Value::Kind::Null);
    EXPECT_EQ(doc.find("missing"), nullptr);
}

// ---- Seeded mutation fuzz ---------------------------------------------

/** Metrics JSON with every section populated, a non-finite gauge and a
 *  span name that needs escaping. */
std::string
metricsDocument()
{
    obs::MetricsSnapshot snapshot;
    snapshot.counters.push_back({"trace.stats_cache.hit", 42});
    snapshot.gauges.push_back({"monitor.fragmentation_ratio",
                               13.686916834228832});
    snapshot.gauges.push_back(
        {"test.nan", std::numeric_limits<double>::quiet_NaN()});
    obs::HistogramSample h;
    h.name = "monitor.observe_seconds";
    h.data.bucketCounts.assign(obs::Histogram::kBuckets, 0);
    h.data.bucketCounts[3] = 2;
    h.data.count = 2;
    h.data.sum = 1e-300;
    snapshot.histograms.push_back(std::move(h));
    obs::SpanNode root("root", nullptr);
    auto child = std::make_unique<obs::SpanNode>("odd\t\"name\"\\", &root);
    child->invocations.store(3);
    child->totalNanos.store(123456789);
    root.children.emplace(child->name, std::move(child));
    std::ostringstream os;
    obs::writeMetricsJson(os, snapshot, root, "fuzz\nlabel",
                          "2026-01-01T00:00:00Z");
    return os.str();
}

/** One event of each payload shape the journal writes. */
std::vector<obs::Event>
sampleEvents(const obs::SpanNode &span)
{
    using obs::EventKind;
    std::vector<obs::Event> events;
    std::uint64_t seq = 0;
    const auto add = [&](obs::Event e) {
        e.seq = ++seq;
        e.parent = seq > 1 ? 1 : 0;
        e.steadyNanos = seq * 1000 + 7;
        e.thread = static_cast<std::uint16_t>(seq % 3);
        events.push_back(e);
    };
    add({.a = reinterpret_cast<std::uint64_t>(&span), .b = 2500,
         .kind = EventKind::Span});
    add({.a = 3, .b = 9, .c = 1, .d = 2, .x = 0.5, .y = -0.0, .z = 1e-300,
         .kind = EventKind::SwapAccept});
    add({.a = 3, .b = 9, .c = 1, .d = 2, .x = 13.686916834228832,
         .y = std::numeric_limits<double>::quiet_NaN(), .code = 2,
         .kind = EventKind::SwapReject});
    add({.a = 1, .b = 2, .c = 4, .d = 17, .x = 1.0177, .y = 0.93, .z = 2,
         .code = 1, .kind = EventKind::MonitorWeek});
    add({.a = 5, .b = 18446744073709551615u, .code = 1,
         .kind = EventKind::FaultInject});
    add({.a = 5, .x = 0.8, .code = 6, .kind = EventKind::FaultInject});
    add({.a = 0xdeadbeefcafeULL, .b = 1, .kind = EventKind::GraphEval});
    add({.a = 7, .b = 1, .x = -3.5, .code = 5,
         .kind = EventKind::IngestReject});
    add({.a = 2, .b = 96, .c = 1, .d = 4, .x = 1.01769,
         .kind = EventKind::EpochCommit});
    return events;
}

/** The committed bench_report baseline, read from the source tree. */
std::string
benchReportDocument()
{
    std::ifstream in(SOSIM_BENCH_SAMPLE);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Deterministic mutator: bit flips, truncation, splices, and hostile
 *  numeric / escape tokens dropped over number digits or anywhere. */
class Mutator
{
  public:
    Mutator(std::uint64_t seed, const std::vector<std::string> &corpus)
        : rng_(seed), corpus_(corpus)
    {
    }

    std::string
    mutate(std::string s)
    {
        const int rounds = 1 + static_cast<int>(below(3));
        for (int r = 0; r < rounds; ++r) {
            switch (below(4)) {
              case 0:
                if (!s.empty())
                    s[below(s.size())] ^=
                        static_cast<char>(1U << below(8));
                break;
              case 1:
                s.resize(below(s.size() + 1));
                break;
              case 2: {
                const std::string &donor = corpus_[below(corpus_.size())];
                const std::size_t from = below(donor.size() + 1);
                const std::size_t len = below(donor.size() - from + 1);
                const std::size_t at = below(s.size() + 1);
                s.replace(at, below(s.size() - at + 1),
                          donor.substr(from, len));
                break;
              }
              default:
                s = withToken(std::move(s));
            }
        }
        return s;
    }

    std::size_t
    below(std::size_t n)
    {
        return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
    }

  private:
    std::string
    withToken(std::string s)
    {
        static const char *const kTokens[] = {"nan", "1e309", "-0",
                                              "\\ud800", "NaN", "-",
                                              "1e", "0x10", "\"", "}"};
        const std::string token = kTokens[below(std::size(kTokens))];
        std::size_t at = below(s.size() + 1);
        std::size_t len = 0;
        // Prefer replacing a whole number when one is nearby.
        const std::size_t digit = s.find_first_of("0123456789", at);
        if (digit != std::string::npos && below(2) == 0) {
            at = digit;
            while (at + len < s.size() &&
                   std::string_view("0123456789.eE+-")
                           .find(s[at + len]) != std::string_view::npos)
                ++len;
        }
        s.replace(at, len, token);
        return s;
    }

    std::mt19937_64 rng_;
    const std::vector<std::string> &corpus_;
};

TEST(JsonFuzz, MutatedWriterOutputIsReadSafely)
{
    obs::SpanNode root("root", nullptr);
    obs::SpanNode span("placement\n\"place\"", &root);
    const auto events = sampleEvents(span);
    std::ostringstream journal;
    obs::writeEventJournal(journal, events, "fuzz");
    std::ostringstream trace;
    obs::writeChromeTrace(trace, events, "fuzz");

    const std::vector<std::string> corpus = {
        metricsDocument(), journal.str(), trace.str(), benchReportDocument()};
    // Every seed document is itself accepted.
    std::string error;
    for (const std::size_t doc : {0, 2, 3}) {
        json::Value value;
        ASSERT_TRUE(json::parse(corpus[doc], value, &error)) << error;
    }
    std::istringstream seed_journal(corpus[1]);
    std::vector<obs::JournalEvent> seed_events;
    ASSERT_TRUE(obs::readEventJournal(seed_journal, seed_events, &error))
        << error;
    ASSERT_EQ(seed_events.size(), events.size());

    constexpr std::size_t kRounds = 10000;
    Mutator mutator(20260101, corpus);
    std::size_t accepted = 0;
    std::size_t journal_lines = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        const std::size_t pick = mutator.below(corpus.size());
        const std::string mutant = mutator.mutate(corpus[pick]);
        json::Value value;
        std::string why;
        if (json::parse(mutant, value, &why)) {
            ++accepted;
            // Accepted numbers convert (or decline) without trouble.
            for (const json::Member &m : value.members) {
                (void)m.value.asDouble();
                (void)m.value.asUnsigned();
            }
        } else {
            EXPECT_NE(why.find("at byte "), std::string::npos) << why;
        }
        if (pick != 1)
            continue;
        // The journal reader never accepts a line the reader rejects,
        // and whatever it accepts explains without trouble.
        std::istringstream lines(mutant);
        std::string line;
        while (std::getline(lines, line)) {
            if (line.empty())
                continue;
            ++journal_lines;
            std::istringstream one(line);
            std::vector<obs::JournalEvent> parsed;
            if (!obs::readEventJournal(one, parsed))
                continue;
            json::Value doc;
            EXPECT_TRUE(json::parse(line, doc)) << line;
            obs::ExplainQuery query;
            query.instance = 3;
            std::ostringstream sink;
            obs::explainRecord(sink, parsed, query);
        }
    }
    // The budget exercised both verdicts and the journal property.
    EXPECT_GT(accepted, kRounds / 100);
    EXPECT_LT(accepted, kRounds / 2);
    EXPECT_GT(journal_lines, kRounds);
    std::cout << "json fuzz: " << accepted << " of " << kRounds
              << " mutants parsed, " << journal_lines
              << " journal lines read\n";
}

TEST(JsonFuzz, EscapedByteStringsRoundTrip)
{
    std::mt19937_64 rng(7);
    for (int round = 0; round < 2000; ++round) {
        std::string bytes(rng() % 48, '\0');
        for (char &c : bytes)
            c = static_cast<char>(rng() & 0xFFU);
        const std::string text = escaped(bytes);
        json::Value doc;
        std::string error;
        ASSERT_TRUE(json::parse(text, doc, &error)) << error;
        ASSERT_EQ(doc.kind, json::Value::Kind::String);
        ASSERT_EQ(doc.text, bytes);
        // The same bytes as an object key.
        ASSERT_TRUE(json::parse("{" + text + ": 1}", doc, &error)) << error;
        ASSERT_EQ(doc.members.at(0).name, bytes);
    }
    EXPECT_EQ(escaped("a\"b\\\n\x01\x7f"), "\"a\\\"b\\\\\\n\\u0001\x7f\"");
}

} // namespace
