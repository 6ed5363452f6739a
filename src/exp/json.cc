/**
 * @file
 * JSON serialization.
 */

#include "exp/json.hh"

#include <cassert>
#include <charconv>
#include <cmath>

#include "sim/tracer.hh"

namespace damn::exp {

void
Json::set(const std::string &key, Json v)
{
    assert(kind_ == Kind::Object);
    Members &members = std::get<Members>(data_);
    for (auto &[k, existing] : members) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members.emplace_back(key, std::move(v));
}

const std::vector<Json> &
Json::items() const
{
    static const Items none;
    const Items *v = std::get_if<Items>(&data_);
    return v ? *v : none;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    static const Members none;
    const Members *v = std::get_if<Members>(&data_);
    return v ? *v : none;
}

const std::string &
Json::str() const
{
    static const std::string none;
    const std::string *v = std::get_if<std::string>(&data_);
    return v ? *v : none;
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
        // JSON has no inf/nan; emit null.
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
        out += scalar_.b ? "true" : "false";
        break;
    case Kind::Int:
        out += std::to_string(scalar_.i);
        break;
    case Kind::Uint:
        out += std::to_string(scalar_.u);
        break;
    case Kind::Double:
        appendDouble(out, scalar_.d);
        break;
    case Kind::String:
        appendQuoted(out, str());
        break;
    case Kind::Array: {
        const Items &arr = items();
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < arr.size(); ++i) {
            appendIndent(out, indent + 1);
            arr[i].dumpTo(out, indent + 1);
            if (i + 1 < arr.size())
                out += ',';
            out += '\n';
        }
        appendIndent(out, indent);
        out += ']';
    } break;
    case Kind::Object: {
        const Members &obj = members();
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < obj.size(); ++i) {
            appendIndent(out, indent + 1);
            appendQuoted(out, obj[i].first);
            out += ": ";
            obj[i].second.dumpTo(out, indent + 1);
            if (i + 1 < obj.size())
                out += ',';
            out += '\n';
        }
        appendIndent(out, indent);
        out += '}';
    } break;
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
        return str().size() + 8;
    case Kind::Array: {
        std::size_t n = 4;
        for (const Json &v : items())
            n += v.dumpSizeHint(indent + 1) + 2 * (indent + 1) + 2;
        return n;
    }
    case Kind::Object: {
        std::size_t n = 4;
        for (const auto &[k, v] : members())
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

} // namespace damn::exp
