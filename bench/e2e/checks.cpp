#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/provenance.hpp"

namespace uld3d::e2e {

namespace {

void append_word(std::string& out, std::uint64_t word) {
  char bytes[sizeof word];
  std::memcpy(bytes, &word, sizeof word);
  out.append(bytes, sizeof word);
}

void append_doubles(std::string& out, const std::vector<double>& values) {
  append_word(out, values.size());
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof v);
    append_word(out, bits);
  }
}

/// The exact content of one row as bytes: equal bytes <=> identical rows.
std::string row_bytes(const dse::SweepRow& row) {
  std::string out;
  append_word(out, row.grid_index);
  append_doubles(out, row.params);
  append_doubles(out, row.metrics);
  append_word(out, row.ok() ? 0 : 1 + static_cast<std::uint64_t>(row.failure->code));
  return out;
}

}  // namespace

std::map<std::string, double> load_expected_values(const std::string& path) {
  const JsonValue doc = json_parse_file(path);
  std::map<std::string, double> values;
  for (const JsonValue& entry : doc.at("values").as_array()) {
    values[entry.at("name").as_string()] = entry.at("value").as_number();
  }
  return values;
}

std::string check_values(const std::map<std::string, double>& expected,
                         const std::vector<NamedValue>& computed,
                         double rel_tol) {
  for (const NamedValue& v : computed) {
    const auto it = expected.find(v.name);
    if (it == expected.end()) return v.name + ": no expected value";
    const double denom = std::max(std::abs(it->second), 1e-300);
    if (!(std::abs(v.value - it->second) / denom <= rel_tol)) {
      char message[160];
      std::snprintf(message, sizeof message, ": %.17g != expected %.17g",
                    v.value, it->second);
      return v.name + message;
    }
  }
  return "";
}

std::string check_stdout(const std::string& golden, const std::string& actual) {
  if (golden == actual) return "";
  const auto mismatch =
      std::mismatch(golden.begin(), golden.end(), actual.begin(), actual.end());
  return "stdout differs from golden at byte " +
         std::to_string(mismatch.first - golden.begin()) + " (golden " +
         std::to_string(golden.size()) + " bytes, got " +
         std::to_string(actual.size()) + ")";
}

std::string check_rows(const std::vector<dse::SweepRow>& expected,
                       const std::vector<dse::SweepRow>& actual) {
  if (expected.size() != actual.size()) {
    return "row count " + std::to_string(actual.size()) + " != " +
           std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (row_bytes(expected[i]) != row_bytes(actual[i])) {
      return "row " + std::to_string(i) + " differs from the reference";
    }
  }
  return "";
}

std::string rows_hash(const std::vector<dse::SweepRow>& rows) {
  std::string bytes;
  for (const auto& row : rows) bytes += row_bytes(row);
  return fnv1a_hex(bytes);
}

}  // namespace uld3d::e2e
