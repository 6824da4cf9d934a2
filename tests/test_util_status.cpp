#include "uld3d/util/status.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace uld3d {
namespace {

TEST(ErrorCodeNames, AreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOk), "kOk");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidConfig), "kInvalidConfig");
  EXPECT_STREQ(error_code_name(ErrorCode::kInfeasiblePoint),
               "kInfeasiblePoint");
  EXPECT_STREQ(error_code_name(ErrorCode::kThermalLimit), "kThermalLimit");
  EXPECT_STREQ(error_code_name(ErrorCode::kNumericalError), "kNumericalError");
}

TEST(Failure, FormatsCodeMessageAndContext) {
  Failure f(ErrorCode::kThermalLimit, "too hot");
  f.with("rise_k", 75.5).with("budget_k", std::int64_t{60});
  const std::string s = f.to_string();
  EXPECT_NE(s.find("kThermalLimit"), std::string::npos);
  EXPECT_NE(s.find("too hot"), std::string::npos);
  EXPECT_NE(s.find("rise_k=75.5"), std::string::npos);
  EXPECT_NE(s.find("budget_k=60"), std::string::npos);
}

TEST(StatusError, CarriesStructuredFailure) {
  try {
    throw StatusError(Failure(ErrorCode::kNumericalError, "nan escaped")
                          .with("metric", "edp_benefit"));
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kNumericalError);
    EXPECT_EQ(error.failure().context.size(), 1u);
    EXPECT_NE(std::string(error.what()).find("nan escaped"),
              std::string::npos);
  }
}

TEST(StatusError, IsAnUld3dError) {
  EXPECT_THROW(throw StatusError(Failure(ErrorCode::kInternal, "x")), Error);
}

TEST(Diagnostics, AccumulatesInsteadOfThrowing) {
  Diagnostics d;
  EXPECT_TRUE(d.ok());
  d.error(ErrorCode::kInvalidConfig, "bad range").with("key", "capacity_mb");
  d.warn(ErrorCode::kUnknownKey, "typo").with("key", "capcity_mb");
  d.error(ErrorCode::kNumericalError, "nan");
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.error_count(), 2u);
  EXPECT_EQ(d.warning_count(), 1u);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has(ErrorCode::kUnknownKey));
  EXPECT_FALSE(d.has(ErrorCode::kThermalLimit));
}

TEST(Diagnostics, WarningsAloneStayOk) {
  Diagnostics d;
  d.warn(ErrorCode::kUnknownKey, "typo");
  EXPECT_TRUE(d.ok());
  EXPECT_NO_THROW(d.throw_if_errors());
  EXPECT_THROW(d.throw_if_errors(/*strict=*/true), StatusError);
}

TEST(Diagnostics, ThrowIfErrorsThrowsFirstError) {
  Diagnostics d;
  d.warn(ErrorCode::kUnknownKey, "first warning");
  d.error(ErrorCode::kInvalidConfig, "first error");
  d.error(ErrorCode::kNumericalError, "second error");
  try {
    d.throw_if_errors();
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
  }
}

TEST(Diagnostics, MergeAndToString) {
  Diagnostics a;
  a.error(ErrorCode::kInvalidConfig, "range");
  Diagnostics b;
  b.warn(ErrorCode::kUnknownKey, "typo");
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  const std::string s = a.to_string();
  EXPECT_NE(s.find("error: "), std::string::npos);
  EXPECT_NE(s.find("warning: "), std::string::npos);
}

TEST(RequireFinite, PassesFiniteThrowsOtherwise) {
  EXPECT_DOUBLE_EQ(require_finite(1.25, "x"), 1.25);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(require_finite(nan, "speedup"), StatusError);
  try {
    require_finite(inf, "energy ratio");
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kNumericalError);
    EXPECT_NE(std::string(error.what()).find("energy ratio"),
              std::string::npos);
  }
}

TEST(EditDistance, ComputesLevenshtein) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("capacity_mb", "capcity_mb"), 1u);
}

TEST(NearestMatch, SuggestsWithinThreshold) {
  const std::vector<std::string> keys = {"capacity_mb", "feature_nm",
                                         "pitch_nm"};
  EXPECT_EQ(nearest_match("capcity_mb", keys), "capacity_mb");
  EXPECT_EQ(nearest_match("pich_nm", keys), "pitch_nm");
  EXPECT_EQ(nearest_match("totally_unrelated_key", keys), "");
}

}  // namespace
}  // namespace uld3d
