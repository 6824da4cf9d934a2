// The numeric operand grammar of the comparing tools: a whole operand, never
// negative.  Tolerances take "25%" or "0.25" (uld3d-bench-compare's
// --time-tol/--value-tol/--noise-mult, uld3d-report --diff's
// --time-tol/--alloc-tol); noise floors and row counts take a plain number
// (uld3d-report's --min-delta-us/--min-delta-bytes and --top).
#pragma once

#include <stdexcept>
#include <string>

namespace uld3d::tools {

/// The whole of `text` as a finite, non-negative number ("0.25", "1e6"),
/// or with `integral` as plain decimal digits below 2^53 ("5").  Throws
/// std::invalid_argument (or std::stod's std::out_of_range) on anything
/// else: "-1", "5abc", " 5", "0x10", "inf", "nan".
inline double parse_non_negative(const std::string& text,
                                 bool integral = false) {
  const char* allowed = integral ? "0123456789" : "0123456789.eE+-";
  const bool plain = text.find_first_not_of(allowed) == std::string::npos;
  std::size_t used = 0;
  const double value = plain ? std::stod(text, &used) : 0.0;
  if (!plain || used != text.size() || value < 0.0 ||
      (integral && value >= 0x1p53)) {
    throw std::invalid_argument("bad operand: " + text);
  }
  return value;
}

/// "25%" -> 0.25, "0.25" -> 0.25; throws as parse_non_negative does.
inline double parse_tolerance(const std::string& text) {
  std::string body = text;
  double scale = 1.0;
  if (!body.empty() && body.back() == '%') {
    body.pop_back();
    scale = 0.01;
  }
  return parse_non_negative(body) * scale;
}

}  // namespace uld3d::tools
