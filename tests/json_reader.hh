/**
 * @file
 * Reading exp::Json documents back, for tests.
 *
 * The simulator only writes JSON (damn_bench --json, damn_fuzz, the
 * trace exporter); the tests that check those reports parse them here.
 * Parsing builds an exp::Json through its public builder API, so a
 * parsed document dumps back to the same bytes.
 */

#ifndef DAMN_TESTS_JSON_READER_HH
#define DAMN_TESTS_JSON_READER_HH

#include <cstdint>
#include <string>

#include "exp/json.hh"

namespace damn::testjson {

/** Parse a JSON document; throws std::runtime_error on error. */
exp::Json parseJson(const std::string &text);

/** Object member @p key of @p j; nullptr when absent or @p j is not an
 *  object. */
const exp::Json *find(const exp::Json &j, const std::string &key);

/** Object member @p key of @p j; throws std::runtime_error when
 *  absent. */
const exp::Json &at(const exp::Json &j, const std::string &key);

/** Nested lookup: at(j, "a", "b") is at(at(j, "a"), "b"). */
template <typename... Keys>
const exp::Json &
at(const exp::Json &j, const std::string &key, const Keys &...keys)
{
    return at(at(j, key), keys...);
}

/** A number's value, converted as static_cast would; throws
 *  std::runtime_error when @p j is not a number. */
std::int64_t asInt(const exp::Json &j);
std::uint64_t asUint(const exp::Json &j);
double asDouble(const exp::Json &j);

} // namespace damn::testjson

#endif // DAMN_TESTS_JSON_READER_HH
