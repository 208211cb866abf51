#ifndef SOSIM_OBS_JSON_H
#define SOSIM_OBS_JSON_H

/**
 * @file
 * The one JSON module: every document the project writes (metrics, the
 * flight journal, the Chrome trace, BENCH reports and comparisons) goes
 * through writeString / writeNumber, and every document it reads back
 * (journals, BENCH baselines) goes through parse.
 *
 *   - writeString: a quoted literal; `"` and `\` are backslash-escaped,
 *     \n \r \t use their short forms and other bytes below 0x20 become
 *     \u00XX.  Bytes >= 0x80 pass through untouched, so any byte string
 *     round-trips through parse.
 *
 *   - writeNumber: finite doubles in shortest round-trip form
 *     (std::to_chars, so parsing the text gives back the same bits and
 *     the stream's floating-point format and precision never matter);
 *     NaN and infinities as `null`, since JSON has no literal for them.
 *
 *   - parse: a strict RFC 8259 reader into a small value tree — no
 *     trailing commas, leading zeros, bare NaN/Infinity, raw control
 *     characters, unknown escapes, unpaired surrogate escapes or
 *     trailing text — with nesting capped at kMaxDepth.  String contents
 *     are byte-transparent (not UTF-8 validated) for the round-trip
 *     above.  Numbers keep their validated token text, so a value read
 *     back is the exact text that was written.
 */

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sosim::obs::json {

/** Values deeper than this many nested arrays/objects are rejected. */
inline constexpr int kMaxDepth = 128;

/** Write `s` as a quoted, escaped JSON string literal. */
void writeString(std::ostream &os, std::string_view s);

/** Shortest text that parses back to exactly `v` (to_chars format). */
std::string shortestDouble(double v);

/** Write `v` in shortest round-trip form, or `null` when not finite. */
void writeNumber(std::ostream &os, double v);

/** A plain unsigned decimal integer ("0", "42"; no sign, fraction,
 *  exponent or hex) within u64, else nullopt. */
std::optional<std::uint64_t> parseUnsigned(std::string_view text);

struct Member;

/** One parsed JSON value. */
struct Value {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    /** String: the decoded contents.  Number: the token as written.
     *  Bool/Null: the literal ("true", "false", "null"). */
    std::string text;
    /** Array elements, in document order. */
    std::vector<Value> items;
    /** Object members, in document order. */
    std::vector<Member> members;

    /** Not an array or object. */
    bool isScalar() const;

    /** First member called `name` of an object, else nullptr. */
    const Value *find(std::string_view name) const;

    /** A number representable as a finite double, else nullopt. */
    std::optional<double> asDouble() const;

    /** A number that is an unsigned decimal integer within u64. */
    std::optional<std::uint64_t> asUnsigned() const;
};

struct Member {
    std::string name;
    Value value;
};

/**
 * Parse one complete document.  On failure returns false and, when
 * `error` is non-null, stores "at byte N: reason".
 */
bool parse(std::string_view text, Value &out, std::string *error = nullptr);

} // namespace sosim::obs::json

#endif // SOSIM_OBS_JSON_H
