// The tolerance grammar of the comparing tools: "25%" or "0.25", never
// negative (uld3d-bench-compare's --time-tol/--value-tol/--noise-mult,
// uld3d-report --diff's --time-tol/--alloc-tol).
#pragma once

#include <stdexcept>
#include <string>

namespace uld3d::tools {

/// "25%" -> 0.25, "0.25" -> 0.25; std::invalid_argument (or, from
/// std::stod, std::out_of_range) on anything else.
inline double parse_tolerance(const std::string& text) {
  std::string body = text;
  double scale = 1.0;
  if (!body.empty() && body.back() == '%') {
    body.pop_back();
    scale = 0.01;
  }
  std::size_t used = 0;
  const double value = std::stod(body, &used);
  if (used != body.size() || !(value >= 0.0)) {
    throw std::invalid_argument("bad tolerance: " + text);
  }
  return value * scale;
}

}  // namespace uld3d::tools
