/**
 * @file
 * JSON parsing and lookups for tests.
 */

#include "tests/json_reader.hh"

#include <charconv>
#include <stdexcept>

namespace damn::testjson {

using exp::Json;

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

/**
 * exp::Json has no numeric getter (nothing in the simulator reads JSON
 * back), so read the number from its own serialization, which is
 * exact: integers print in full, doubles in shortest round-trip form.
 */
template <typename T>
T
numberAs(const Json &j)
{
    const std::string text = j.dump();
    const char *first = text.data();
    const char *last = first + text.size() - 1; // dump() ends in '\n'
    const auto read = [&](auto v) {
        if (std::from_chars(first, last, v).ec != std::errc())
            throw std::runtime_error("json: bad number " + text);
        return T(v);
    };
    switch (j.kind()) {
    case Json::Kind::Int: return read(std::int64_t{});
    case Json::Kind::Uint: return read(std::uint64_t{});
    case Json::Kind::Double: return read(double{});
    default: throw std::runtime_error("json: not a number");
    }
}

} // namespace

Json
parseJson(const std::string &text)
{
    return Parser(text).document();
}

const Json *
find(const Json &j, const std::string &key)
{
    if (j.kind() != Json::Kind::Object)
        return nullptr;
    for (const auto &[k, v] : j.members())
        if (k == key)
            return &v;
    return nullptr;
}

const Json &
at(const Json &j, const std::string &key)
{
    if (const Json *v = find(j, key))
        return *v;
    throw std::runtime_error("json: no member \"" + key + "\"");
}

std::int64_t asInt(const Json &j) { return numberAs<std::int64_t>(j); }
std::uint64_t asUint(const Json &j) { return numberAs<std::uint64_t>(j); }
double asDouble(const Json &j) { return numberAs<double>(j); }

} // namespace damn::testjson
