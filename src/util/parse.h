#ifndef SOSIM_UTIL_PARSE_H
#define SOSIM_UTIL_PARSE_H

/**
 * @file
 * Checked integer parsing for command-line flags.
 *
 * `std::stoi`, `std::strtoull` and `atoi` all accept a valid prefix and
 * drop the rest ("3abc" reads as 3, "abc" as 0) and wrap or clamp out of
 * range values silently.  Every integer flag of the tools goes through
 * parseInteger instead: the whole token must be consumed, the value must
 * fit the target type, and nothing else is accepted.
 */

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace sosim::util {

/**
 * Parse all of `text` as a decimal integer of type T; with `allow_hex`
 * a leading "0x"/"0X" selects base 16 instead.  Rejected (nullopt):
 * empty text, leading whitespace or '+', any trailing character, a sign
 * on an unsigned type, and values outside T's range.
 */
template <typename T>
std::optional<T>
parseInteger(std::string_view text, bool allow_hex = false)
{
    int base = 10;
    if (allow_hex && text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        text.remove_prefix(2);
        base = 16;
    }
    if (text.empty())
        return std::nullopt;
    T value{};
    const char *last = text.data() + text.size();
    const auto [end, error] =
        std::from_chars(text.data(), last, value, base);
    if (error != std::errc() || end != last)
        return std::nullopt;
    return value;
}

/**
 * The value of integer flag `flag` of command-line tool `tool`.  On a
 * value parseInteger rejects, prints
 * "<tool>: <flag> expects an integer in [min, max], got '<text>'" to
 * stderr and exits with status 2, the tools' usage-error status.
 */
template <typename T>
T
integerFlagOrExit(std::string_view tool, std::string_view flag,
                  std::string_view text, bool allow_hex = false)
{
    if (const auto value = parseInteger<T>(text, allow_hex))
        return *value;
    std::cerr << tool << ": " << flag << " expects "
              << (allow_hex ? "a decimal or 0x-hex integer"
                            : "an integer")
              << " in [" << +std::numeric_limits<T>::min() << ", "
              << +std::numeric_limits<T>::max() << "], got '" << text
              << "'\n";
    std::exit(2);
}

} // namespace sosim::util

#endif // SOSIM_UTIL_PARSE_H
