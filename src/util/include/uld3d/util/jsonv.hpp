// Minimal JSON document model + recursive-descent parser.
//
// Exists so the tools that *consume* the repo's own JSON artifacts
// (BENCH_*.json from util/bench, metrics/trace exports) can do so without an
// external dependency.  It parses the full JSON grammar (RFC 8259) except
// \uXXXX surrogate pairs, which are preserved verbatim; numbers are doubles.
//
//   const JsonValue doc = json_parse(text);          // throws JsonParseError
//   doc.at("suite").as_string();
//   for (const JsonValue& b : doc.at("benchmarks").as_array()) ...
//
// Object member order is preserved (vector of pairs, not a map) so emitted
// and re-parsed documents diff cleanly.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "uld3d/util/check.hpp"

namespace uld3d {

/// Thrown by json_parse on malformed input; the message carries a byte
/// offset and a short description of what was expected.
class JsonParseError : public Error {
 public:
  using Error::Error;
};

/// One JSON value: null, bool, number, string, array, or object.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), string_(std::move(s)) {}
  explicit JsonValue(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}
  explicit JsonValue(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw PreconditionError on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup.  `find` returns nullptr when absent (or when this
  /// value is not an object); `at` throws PreconditionError instead.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  [[nodiscard]] const JsonValue& at(const std::string& key) const;

  /// Convenience: member `key` as a double/string, or `fallback` when the
  /// member is absent or of the wrong kind.
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// `value` as an Int when it is a finite, integral number within Int's
/// range; nullopt for anything else (a string, a fraction, inf, 1e300, -1
/// for an unsigned Int), since casting such a double to an integer type is
/// undefined behaviour.  Every reader of an integral member of outside
/// input goes through this.
template <typename Int>
[[nodiscard]] std::optional<Int> json_integer(const JsonValue& value) {
  if (!value.is_number()) return std::nullopt;
  // Int's max() + 1 is a power of two, so it converts to double exactly.
  const double end = std::ldexp(1.0, std::numeric_limits<Int>::digits);
  const double v = value.as_number();
  if (!(v >= (std::numeric_limits<Int>::is_signed ? -end : 0.0) && v < end &&
        std::trunc(v) == v)) {
    return std::nullopt;
  }
  return static_cast<Int>(v);
}

/// Parse `text` as a single JSON document (trailing whitespace allowed,
/// trailing garbage rejected).  Throws JsonParseError on malformed input.
[[nodiscard]] JsonValue json_parse(const std::string& text);

/// Read and parse a JSON file.  Throws JsonParseError when the file cannot
/// be read or does not parse.
[[nodiscard]] JsonValue json_parse_file(const std::string& path);

}  // namespace uld3d
