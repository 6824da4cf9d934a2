// Output checks of the end-to-end benchmark.  Each returns an empty string
// when the outputs are right and otherwise says what is wrong; a non-empty
// result turns the op that produced the outputs into a failed op.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "uld3d/dse/sweep.hpp"

namespace uld3d::e2e {

/// One named model output, as the per-figure bench binaries report it.
struct NamedValue {
  std::string name;
  double value = 0.0;
};

/// name -> value of the "values" array of a BENCH_<suite>.json document.
[[nodiscard]] std::map<std::string, double> load_expected_values(
    const std::string& path);

/// Every computed value must have an expectation and match it to `rel_tol`
/// (relative, the default of uld3d-bench-compare).
[[nodiscard]] std::string check_values(
    const std::map<std::string, double>& expected,
    const std::vector<NamedValue>& computed, double rel_tol = 1e-9);

/// Byte equality of a command's stdout with its golden file.
[[nodiscard]] std::string check_stdout(const std::string& golden,
                                       const std::string& actual);

/// Bit identity of two sweeps' rows: grid index, params, metrics (NaN
/// payloads included) and failure code.
[[nodiscard]] std::string check_rows(const std::vector<dse::SweepRow>& expected,
                                     const std::vector<dse::SweepRow>& actual);

/// FNV-1a over the same row content `check_rows` compares, as 16 hex digits.
[[nodiscard]] std::string rows_hash(const std::vector<dse::SweepRow>& rows);

}  // namespace uld3d::e2e
