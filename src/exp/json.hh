/**
 * @file
 * Minimal JSON value: build and serialize.
 *
 * Exists so `damn_bench --json` needs no external dependency and its
 * output is *deterministic*: objects preserve insertion order (the
 * driver builds them in a fixed order), integers round-trip exactly
 * (64-bit, no double conversion), and doubles serialize via the
 * shortest round-trip form — two runs that compute the same values
 * emit byte-identical files.
 */

#ifndef DAMN_EXP_JSON_HH
#define DAMN_EXP_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace damn::exp {

/** A JSON value (null / bool / int / uint / double / string /
 *  array / object). */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,    //!< std::int64_t
        Uint,   //!< std::uint64_t (counters)
        Double,
        String,
        Array,
        Object,
    };

    Json() : kind_(Kind::Null) {}
    Json(bool b) : kind_(Kind::Bool) { scalar_.b = b; }
    Json(int v) : kind_(Kind::Int) { scalar_.i = v; }
    Json(std::int64_t v) : kind_(Kind::Int) { scalar_.i = v; }
    Json(unsigned v) : kind_(Kind::Uint) { scalar_.u = v; }
    Json(std::uint64_t v) : kind_(Kind::Uint) { scalar_.u = v; }
    Json(double v) : kind_(Kind::Double) { scalar_.d = v; }
    Json(const char *s) : kind_(Kind::String), data_(std::string(s)) {}
    Json(std::string s) : kind_(Kind::String), data_(std::move(s)) {}

    static Json
    array()
    {
        Json j;
        j.kind_ = Kind::Array;
        j.data_.emplace<Items>();
        return j;
    }
    static Json
    object()
    {
        Json j;
        j.kind_ = Kind::Object;
        j.data_.emplace<Members>();
        return j;
    }

    Kind kind() const { return kind_; }

    /** Append to an array. */
    void
    push(Json v)
    {
        std::get<Items>(data_).push_back(std::move(v));
    }

    /** Pre-size an array's items (or an object's members). */
    void
    reserve(std::size_t n)
    {
        if (kind_ == Kind::Object)
            std::get<Members>(data_).reserve(n);
        else
            std::get<Items>(data_).reserve(n);
    }

    /** Set a key of an object (insertion-ordered; overwrites). */
    void set(const std::string &key, Json v);

    /** An array's items (empty for any other kind). */
    const std::vector<Json> &items() const;
    /** An object's members (empty for any other kind). */
    const std::vector<std::pair<std::string, Json>> &members() const;

    bool boolean() const { return kind_ == Kind::Bool && scalar_.b; }
    /** A string's text (empty for any other kind). */
    const std::string &str() const;

    /** Serialize (pretty, 2-space indent, "\n" line endings). */
    std::string dump() const;

  private:
    void dumpTo(std::string &out, unsigned indent) const;
    std::size_t dumpSizeHint(unsigned indent) const;

    using Items = std::vector<Json>;
    using Members = std::vector<std::pair<std::string, Json>>;

    // A sweep report holds tens of thousands of values, so a value
    // keeps one scalar slot and one variant for its string, items or
    // members rather than a field per kind.
    Kind kind_;
    union
    {
        bool b;
        std::int64_t i;
        std::uint64_t u = 0;
        double d;
    } scalar_;
    std::variant<std::monostate, std::string, Items, Members> data_;
};

} // namespace damn::exp

#endif // DAMN_EXP_JSON_HH
