// The end-to-end benchmark's output checks: a perturbed value, a changed
// stdout byte or a changed row bit must each fail the op (a non-empty
// check result), and exact outputs must pass.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "checks.hpp"

namespace {

using namespace uld3d;
using namespace uld3d::e2e;

TEST(E2eChecks, ValuesMatchWithinTolerance) {
  const std::map<std::string, double> expected = {{"a", 5.48}, {"b", 0.0}};
  EXPECT_EQ(check_values(expected, {{"a", 5.48}, {"b", 0.0}}), "");
  EXPECT_EQ(check_values(expected, {{"a", 5.48 * (1.0 + 1e-12)}}), "");
}

TEST(E2eChecks, PerturbedValueFails) {
  const std::map<std::string, double> expected = {{"a", 5.48}};
  EXPECT_NE(check_values(expected, {{"a", 5.48 * (1.0 + 1e-8)}}), "");
  EXPECT_NE(check_values(expected, {{"a", std::nan("")}}), "");
}

TEST(E2eChecks, ValueWithoutExpectationFails) {
  EXPECT_NE(check_values({{"a", 1.0}}, {{"b", 1.0}}), "");
}

TEST(E2eChecks, LoadsTheValuesOfABenchDocument) {
  const auto path =
      std::filesystem::temp_directory_path() / "e2e_checks_values.json";
  std::ofstream(path) << R"({"suite": "s", "values": [)"
                      << R"({"name": "x", "value": 1.5, "unit": "ratio"},)"
                      << R"({"name": "y", "value": -2e-3}]})";
  const auto values = load_expected_values(path.string());
  std::filesystem::remove(path);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values.at("x"), 1.5);
  EXPECT_EQ(values.at("y"), -2e-3);
}

TEST(E2eChecks, ChangedStdoutByteFails) {
  const std::string golden = "M3D/2D speedup 5.42x\nN = 8\n";
  EXPECT_EQ(check_stdout(golden, golden), "");
  std::string changed = golden;
  changed[15] = '3';
  const std::string error = check_stdout(golden, changed);
  EXPECT_NE(error.find("byte 15"), std::string::npos) << error;
  EXPECT_NE(check_stdout(golden, golden.substr(0, golden.size() - 1)), "");
  EXPECT_NE(check_stdout(golden, golden + "\n"), "");
}

std::vector<dse::SweepRow> sample_rows() {
  dse::SweepRow ok;
  ok.grid_index = 0;
  ok.params = {1.0, 16.0};
  ok.metrics = {5.48, 1.25};
  dse::SweepRow skipped;
  skipped.grid_index = 1;
  skipped.params = {1.0, 32.0};
  skipped.metrics = {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::quiet_NaN()};
  skipped.failure = Failure(ErrorCode::kInfeasiblePoint, "does not fit");
  return {ok, skipped};
}

TEST(E2eChecks, IdenticalRowsPass) {
  EXPECT_EQ(check_rows(sample_rows(), sample_rows()), "");
  EXPECT_EQ(rows_hash(sample_rows()), rows_hash(sample_rows()));
}

TEST(E2eChecks, ChangedRowBitFails) {
  auto rows = sample_rows();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &rows[0].metrics[1], sizeof bits);
  bits ^= 1u;  // the lowest mantissa bit
  std::memcpy(&rows[0].metrics[1], &bits, sizeof bits);
  EXPECT_NE(check_rows(sample_rows(), rows), "");
  EXPECT_NE(rows_hash(sample_rows()), rows_hash(rows));
}

TEST(E2eChecks, ChangedFailureOrNanPayloadFails) {
  auto code = sample_rows();
  code[1].failure->code = ErrorCode::kThermalLimit;
  EXPECT_NE(check_rows(sample_rows(), code), "");

  auto payload = sample_rows();
  payload[1].metrics[0] = -payload[1].metrics[0];
  EXPECT_NE(check_rows(sample_rows(), payload), "");

  auto missing = sample_rows();
  missing.pop_back();
  EXPECT_NE(check_rows(sample_rows(), missing), "");
}

}  // namespace
