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
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(int v) : kind_(Kind::Int), int_(v) {}
    Json(std::int64_t v) : kind_(Kind::Int), int_(v) {}
    Json(unsigned v) : kind_(Kind::Uint), uint_(v) {}
    Json(std::uint64_t v) : kind_(Kind::Uint), uint_(v) {}
    Json(double v) : kind_(Kind::Double), double_(v) {}
    Json(const char *s) : kind_(Kind::String), string_(s) {}
    Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

    static Json array() { Json j; j.kind_ = Kind::Array; return j; }
    static Json object() { Json j; j.kind_ = Kind::Object; return j; }

    Kind kind() const { return kind_; }

    /** Append to an array. */
    void
    push(Json v)
    {
        items_.push_back(std::move(v));
    }

    /** Pre-size an array's items (or an object's members). */
    void
    reserve(std::size_t n)
    {
        if (kind_ == Kind::Object)
            members_.reserve(n);
        else
            items_.reserve(n);
    }

    /** Set a key of an object (insertion-ordered; overwrites). */
    void set(const std::string &key, Json v);

    const std::vector<Json> &items() const { return items_; }
    const std::vector<std::pair<std::string, Json>> &
    members() const
    {
        return members_;
    }

    bool boolean() const { return bool_; }
    const std::string &str() const { return string_; }

    /** Serialize (pretty, 2-space indent, "\n" line endings). */
    std::string dump() const;

  private:
    void dumpTo(std::string &out, unsigned indent) const;
    std::size_t dumpSizeHint(unsigned indent) const;

    Kind kind_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> items_;                            //!< array
    std::vector<std::pair<std::string, Json>> members_;  //!< object
};

} // namespace damn::exp

#endif // DAMN_EXP_JSON_HH
