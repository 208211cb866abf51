#include "json.h"

#include <charconv>
#include <cmath>
#include <ostream>
#include <system_error>
#include <utility>

namespace sosim::obs::json {

void
writeString(std::ostream &os, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    os.put('"');
    std::size_t run = 0; // Start of the pending run of verbatim bytes.
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto byte = static_cast<unsigned char>(s[i]);
        if (byte >= 0x20 && byte != '"' && byte != '\\')
            continue;
        os.write(s.data() + run, static_cast<std::streamsize>(i - run));
        run = i + 1;
        const char *short_form = byte == '"'    ? "\\\""
                                 : byte == '\\' ? "\\\\"
                                 : byte == '\n' ? "\\n"
                                 : byte == '\r' ? "\\r"
                                 : byte == '\t' ? "\\t"
                                                : nullptr;
        if (short_form != nullptr) {
            os << short_form;
        } else {
            const char esc[] = {'\\', 'u', '0', '0', kHex[byte >> 4U],
                                kHex[byte & 0xFU]};
            os.write(esc, sizeof esc);
        }
    }
    os.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
    os.put('"');
}

std::string
shortestDouble(double v)
{
    char buf[32]; // The longest shortest form is 24 characters.
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

void
writeNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << shortestDouble(v);
    else
        os << "null";
}

std::optional<std::uint64_t>
parseUnsigned(std::string_view text)
{
    if (text.empty() || (text.size() > 1 && text[0] == '0'))
        return std::nullopt;
    for (const char c : text)
        if (c < '0' || c > '9')
            return std::nullopt;
    std::uint64_t v = 0;
    const auto r =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (r.ec != std::errc())
        return std::nullopt; // Out of range.
    return v;
}

bool
Value::isScalar() const
{
    return kind != Kind::Array && kind != Kind::Object;
}

const Value *
Value::find(std::string_view name) const
{
    for (const Member &m : members)
        if (m.name == name)
            return &m.value;
    return nullptr;
}

std::optional<double>
Value::asDouble() const
{
    if (kind != Kind::Number)
        return std::nullopt;
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto r = std::from_chars(text.data(), end, v);
    if (r.ec != std::errc() || r.ptr != end || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::optional<std::uint64_t>
Value::asUnsigned() const
{
    if (kind != Kind::Number)
        return std::nullopt;
    return parseUnsigned(text);
}

namespace {

/** Recursive-descent reader; the first failure's message wins. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : s_(text) {}

    bool
    run(Value &out, std::string *error)
    {
        ws();
        if (value(out, 0)) {
            ws();
            if (i_ == s_.size())
                return true;
            fail("trailing data after document");
        }
        if (error != nullptr)
            *error = "at byte " + std::to_string(i_) + ": " + message_;
        return false;
    }

  private:
    bool
    fail(const char *msg)
    {
        if (message_ == nullptr)
            message_ = msg;
        return false;
    }

    void
    ws()
    {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                                  s_[i_] == '\n' || s_[i_] == '\r'))
            ++i_;
    }

    bool
    eat(char c)
    {
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    digits()
    {
        const std::size_t begin = i_;
        while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9')
            ++i_;
        return i_ > begin;
    }

    bool
    value(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (i_ >= s_.size())
            return fail("unexpected end of input");
        switch (s_[i_]) {
          case '{':
            return object(out, depth);
          case '[':
            return array(out, depth);
          case '"':
            out.kind = Value::Kind::String;
            return string(out.text);
          case 't':
            return literal(out, "true", Value::Kind::Bool);
          case 'f':
            return literal(out, "false", Value::Kind::Bool);
          case 'n':
            return literal(out, "null", Value::Kind::Null);
          default:
            return number(out);
        }
    }

    bool
    literal(Value &out, std::string_view lit, Value::Kind kind)
    {
        if (s_.substr(i_, lit.size()) != lit)
            return fail("bad literal");
        i_ += lit.size();
        out.kind = kind;
        out.text = lit;
        return true;
    }

    bool
    number(Value &out)
    {
        const std::size_t begin = i_;
        eat('-');
        if (!eat('0') && !digits()) // No leading zeros.
            return fail("expected number");
        if (eat('.') && !digits())
            return fail("digits required after decimal point");
        if (eat('e') || eat('E')) {
            if (!eat('+'))
                eat('-');
            if (!digits())
                return fail("digits required in exponent");
        }
        out.kind = Value::Kind::Number;
        out.text = s_.substr(begin, i_ - begin);
        return true;
    }

    bool
    hex4(std::uint32_t &cp)
    {
        const char *p = s_.data() + i_;
        if (s_.size() - i_ < 4 ||
            std::from_chars(p, p + 4, cp, 16).ptr != p + 4)
            return fail("bad \\u escape");
        i_ += 4;
        return true;
    }

    /** The code point of a \\u escape (after the "\\u"), surrogate pairs
     *  combined, appended as UTF-8. */
    bool
    unicodeEscape(std::string &out)
    {
        std::uint32_t cp = 0;
        if (!hex4(cp))
            return false;
        if (cp >= 0xDC00 && cp <= 0xDFFF)
            return fail("unpaired surrogate escape");
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            std::uint32_t low = 0;
            if (!eat('\\') || !eat('u'))
                return fail("unpaired surrogate escape");
            if (!hex4(low))
                return false;
            if (low < 0xDC00 || low > 0xDFFF)
                return fail("unpaired surrogate escape");
            cp = 0x10000 + ((cp - 0xD800) << 10U) + (low - 0xDC00);
        }
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
            return true;
        }
        // Lead byte 110xxxxx, 1110xxxx or 11110xxx, then 10xxxxxx each.
        const unsigned extra = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out.push_back(static_cast<char>((0xF0U << (3 - extra)) |
                                        (cp >> (6 * extra))));
        for (unsigned k = extra; k-- > 0;)
            out.push_back(
                static_cast<char>(0x80U | ((cp >> (6 * k)) & 0x3FU)));
        return true;
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return fail("expected string");
        out.clear();
        while (i_ < s_.size()) {
            const char c = s_[i_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            static constexpr std::string_view kEscapes = "\"\\/bfnrt";
            static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
            if (i_ >= s_.size())
                return fail("truncated escape");
            const char esc = s_[i_++];
            const std::size_t at = kEscapes.find(esc);
            if (at != std::string_view::npos)
                out.push_back(kDecoded[at]);
            else if (esc != 'u')
                return fail("bad escape character");
            else if (!unicodeEscape(out))
                return false;
        }
        return fail("unterminated string");
    }

    bool
    object(Value &out, int depth)
    {
        out.kind = Value::Kind::Object;
        eat('{');
        ws();
        if (eat('}'))
            return true;
        while (true) {
            ws();
            Member m;
            if (!string(m.name))
                return false;
            ws();
            if (!eat(':'))
                return fail("expected ':' in object");
            ws();
            if (!value(m.value, depth + 1))
                return false;
            out.members.push_back(std::move(m));
            ws();
            if (eat(','))
                continue;
            if (eat('}'))
                return true;
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(Value &out, int depth)
    {
        out.kind = Value::Kind::Array;
        eat('[');
        ws();
        if (eat(']'))
            return true;
        while (true) {
            ws();
            out.items.emplace_back();
            if (!value(out.items.back(), depth + 1))
                return false;
            ws();
            if (eat(','))
                continue;
            if (eat(']'))
                return true;
            return fail("expected ',' or ']' in array");
        }
    }

    std::string_view s_;
    std::size_t i_ = 0;
    const char *message_ = nullptr;
};

} // namespace

bool
parse(std::string_view text, Value &out, std::string *error)
{
    out = Value{};
    return Parser(text).run(out, error);
}

} // namespace sosim::obs::json
