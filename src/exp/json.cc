/**
 * @file
 * JSON serialization and parsing.
 */

#include "exp/json.hh"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/tracer.hh"

namespace damn::exp {

void
Json::set(const std::string &key, Json v)
{
    assert(kind_ == Kind::Object);
    for (auto &[k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(key, std::move(v));
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

std::int64_t
Json::asInt() const
{
    switch (kind_) {
    case Kind::Int: return int_;
    case Kind::Uint: return std::int64_t(uint_);
    case Kind::Double: return std::int64_t(double_);
    default: throw std::runtime_error("json: not a number");
    }
}

std::uint64_t
Json::asUint() const
{
    switch (kind_) {
    case Kind::Int: return std::uint64_t(int_);
    case Kind::Uint: return uint_;
    case Kind::Double: return std::uint64_t(double_);
    default: throw std::runtime_error("json: not a number");
    }
}

double
Json::asDouble() const
{
    switch (kind_) {
    case Kind::Int: return double(int_);
    case Kind::Uint: return double(uint_);
    case Kind::Double: return double_;
    default: throw std::runtime_error("json: not a number");
    }
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

namespace {

void
appendQuoted(std::string &out, const std::string &s)
{
    out += '"';
    out += sim::jsonEscape(s);
    out += '"';
}

void
appendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; emit null (parse treats it as absent).
        out += "null";
        return;
    }
    char buf[64];
    // Shortest round-trip representation: deterministic and exact.
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendIndent(std::string &out, unsigned indent)
{
    out.append(std::size_t(indent) * 2, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, unsigned indent) const
{
    switch (kind_) {
    case Kind::Null:
        out += "null";
        break;
    case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
    case Kind::Int:
        out += std::to_string(int_);
        break;
    case Kind::Uint:
        out += std::to_string(uint_);
        break;
    case Kind::Double:
        appendDouble(out, double_);
        break;
    case Kind::String:
        appendQuoted(out, string_);
        break;
    case Kind::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            appendIndent(out, indent + 1);
            items_[i].dumpTo(out, indent + 1);
            if (i + 1 < items_.size())
                out += ',';
            out += '\n';
        }
        appendIndent(out, indent);
        out += ']';
        break;
    case Kind::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
            appendIndent(out, indent + 1);
            appendQuoted(out, members_[i].first);
            out += ": ";
            members_[i].second.dumpTo(out, indent + 1);
            if (i + 1 < members_.size())
                out += ',';
            out += '\n';
        }
        appendIndent(out, indent);
        out += '}';
        break;
    }
}

std::size_t
Json::dumpSizeHint(unsigned indent) const
{
    // Upper-bound-ish estimate of the serialized size, so dump() can
    // reserve once instead of growing the string geometrically while
    // serializing a multi-megabyte sweep report.  Scalars get a flat
    // allowance; strings their length plus quotes/escape slop;
    // containers the per-element indentation and punctuation.
    switch (kind_) {
    case Kind::Null:
    case Kind::Bool:
        return 5;
    case Kind::Int:
    case Kind::Uint:
    case Kind::Double:
        return 24;
    case Kind::String:
        return string_.size() + 8;
    case Kind::Array: {
        std::size_t n = 4;
        for (const Json &v : items_)
            n += v.dumpSizeHint(indent + 1) + 2 * (indent + 1) + 2;
        return n;
    }
    case Kind::Object: {
        std::size_t n = 4;
        for (const auto &[k, v] : members_)
            n += k.size() + 4 + v.dumpSizeHint(indent + 1) +
                2 * (indent + 1) + 2;
        return n;
    }
    }
    return 0;
}

std::string
Json::dump() const
{
    std::string out;
    out.reserve(dumpSizeHint(0) + 2);
    dumpTo(out, 0);
    out += '\n';
    return out;
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Json
    document()
    {
        const Json v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                s_[pos_] == '\t' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    value()
    {
        switch (peek()) {
        case '{': return object();
        case '[': return array();
        case '"': return Json(string());
        case 't':
            if (consumeLiteral("true"))
                return Json(true);
            fail("bad literal");
        case 'f':
            if (consumeLiteral("false"))
                return Json(false);
            fail("bad literal");
        case 'n':
            if (consumeLiteral("null"))
                return Json();
            fail("bad literal");
        default: return number();
        }
    }

    Json
    object()
    {
        expect('{');
        Json obj = Json::object();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            if (peek() != '"')
                fail("expected object key");
            std::string key = string();
            expect(':');
            obj.set(key, value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json
    array()
    {
        expect('[');
        Json arr = Json::array();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            switch (s_[pos_++]) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("bad \\u escape");
                unsigned code = 0;
                const auto res = std::from_chars(
                    s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
                if (res.ec != std::errc())
                    fail("bad \\u escape");
                pos_ += 4;
                // Our writer only emits \u00xx control codes.
                out += char(code & 0xff);
                break;
            }
            default: fail("unknown escape");
            }
        }
        if (pos_ >= s_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return out;
    }

    Json
    number()
    {
        skipWs();
        const std::size_t start = pos_;
        bool is_float = false;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_float = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("expected a value");
        const std::string tok = s_.substr(start, pos_ - start);
        if (is_float) {
            double v = 0;
            const auto res = std::from_chars(
                tok.data(), tok.data() + tok.size(), v);
            if (res.ec != std::errc())
                fail("bad number");
            return Json(v);
        }
        if (!tok.empty() && tok[0] == '-') {
            std::int64_t v = 0;
            const auto res = std::from_chars(
                tok.data(), tok.data() + tok.size(), v);
            if (res.ec != std::errc())
                fail("bad number");
            return Json(v);
        }
        std::uint64_t v = 0;
        const auto res =
            std::from_chars(tok.data(), tok.data() + tok.size(), v);
        if (res.ec != std::errc())
            fail("bad number");
        return Json(v);
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).document();
}

} // namespace damn::exp
