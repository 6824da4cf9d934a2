// Malformed-input coverage for the io layer: a table of bad INI texts with
// the structured diagnostics they must produce, plus the one-shot
// validate_case_study_config() pass (all violations reported together,
// unknown keys suggested).
#include <gtest/gtest.h>

#include <string>

#include "uld3d/io/config.hpp"
#include "uld3d/io/study_config.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/status.hpp"

namespace uld3d::io {
namespace {

TEST(ConfigMalformed, ParserRejectsStructurallyBrokenLines) {
  struct Case {
    const char* text;
    const char* why;
  };
  const Case cases[] = {
      {"[unclosed\n", "section header missing ]"},
      {"[]\n", "empty section header"},
      {"no_equals_sign\n", "key without value"},
      {"= orphan_value\n", "value without key"},
      {"[s]\n\x01\x02\xff\n", "non-UTF8 control bytes outside a pair"},
  };
  for (const Case& c : cases) {
    EXPECT_THROW(Config::parse(c.text), PreconditionError) << c.why;
  }
}

TEST(ConfigMalformed, NonUtf8BytesInsideValuesAreStoredVerbatim) {
  // Raw bytes are data, not structure: the parser keeps them and typed
  // getters reject them with a structured failure.
  const Config c = Config::parse("[s]\nx = \xc3\x28\xff\n");
  EXPECT_TRUE(c.has("s", "x"));
  EXPECT_THROW(static_cast<void>(c.get_double("s", "x", 0.0)), StatusError);
}

TEST(ConfigMalformed, DuplicateSectionsMergeLastKeyWins) {
  const Config c =
      Config::parse("[s]\na = 1\n[t]\nb = 2\n[s]\na = 3\nc = 4\n");
  EXPECT_EQ(c.get_int("s", "a", 0), 3);  // later duplicate wins
  EXPECT_EQ(c.get_int("s", "c", 0), 4);  // both duplicates contribute
  EXPECT_EQ(c.get_int("t", "b", 0), 2);
}

TEST(ConfigMalformed, TrailingGarbageIsDistinctFromNotANumber) {
  const Config c = Config::parse("[s]\nx = 12abc\ny = abc\n");
  try {
    static_cast<void>(c.get_double("s", "x", 0.0));
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(error.what()).find("trailing characters"),
              std::string::npos);
  }
  try {
    static_cast<void>(c.get_double("s", "y", 0.0));
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(error.what()).find("not a number"),
              std::string::npos);
  }
}

TEST(ConfigMalformed, HugeNumbersReportOverflowExplicitly) {
  const Config c = Config::parse(
      "[s]\nbig_double = 1e999\nbig_int = 99999999999999999999999\n");
  try {
    static_cast<void>(c.get_double("s", "big_double", 0.0));
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(error.what()).find("overflow"), std::string::npos);
  }
  try {
    static_cast<void>(c.get_int("s", "big_int", 0));
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(error.what()).find("overflow"), std::string::npos);
  }
}

TEST(ConfigMalformed, IntTrailingGarbageAndFloatsRejected) {
  const Config c = Config::parse("[s]\nx = 12.5\ny = 7 seven\n");
  EXPECT_THROW(static_cast<void>(c.get_int("s", "x", 0)),
               StatusError);  // "." is trailing
  EXPECT_THROW(static_cast<void>(c.get_int("s", "y", 0)), StatusError);
}

TEST(StudyConfigValidate, CleanConfigsPass) {
  const Config empty;
  EXPECT_TRUE(validate_case_study_config(empty).ok());
  const Config defaults =
      case_study_to_config(accel::CaseStudy{});
  const Diagnostics diag = validate_case_study_config(defaults);
  EXPECT_TRUE(diag.ok()) << diag.to_string();
  EXPECT_EQ(diag.warning_count(), 0u) << diag.to_string();
}

TEST(StudyConfigValidate, ReportsAllViolationsInOneShot) {
  // Three independent problems; all must be present in one Diagnostics.
  const Config c = Config::parse(
      "[study]\ncapacity_mb = -4\n"
      "[node]\nfeature_nm = not_a_number\n"
      "[rram]\nperiph_area_fraction = 1.5\n");
  const Diagnostics diag = validate_case_study_config(c);
  EXPECT_FALSE(diag.ok());
  EXPECT_EQ(diag.error_count(), 3u) << diag.to_string();
}

TEST(StudyConfigValidate, UnknownKeySuggestsNearestMatch) {
  const Config c = Config::parse("[study]\ncapcity_mb = 64\n");
  const Diagnostics diag = validate_case_study_config(c);
  EXPECT_TRUE(diag.ok());  // typo is a warning, not an error
  EXPECT_EQ(diag.warning_count(), 1u);
  ASSERT_TRUE(diag.has(ErrorCode::kUnknownKey));
  const std::string s = diag.to_string();
  EXPECT_NE(s.find("capcity_mb"), std::string::npos);
  EXPECT_NE(s.find("did_you_mean=capacity_mb"), std::string::npos);
}

TEST(StudyConfigValidate, UnknownSectionSuggestsNearestMatch) {
  const Config c = Config::parse("[rramm]\nbits_per_cell = 2\n");
  const Diagnostics diag = validate_case_study_config(c);
  EXPECT_TRUE(diag.ok());
  ASSERT_TRUE(diag.has(ErrorCode::kUnknownKey));
  EXPECT_NE(diag.to_string().find("did_you_mean=rram"), std::string::npos);
}

TEST(StudyConfigValidate, RangeChecksCoverIntegerKeys) {
  const Config c = Config::parse("[cs]\npe_rows = 0\npe_cols = -2\n");
  const Diagnostics diag = validate_case_study_config(c);
  EXPECT_EQ(diag.error_count(), 2u) << diag.to_string();
  EXPECT_TRUE(diag.has(ErrorCode::kInvalidConfig));
}

TEST(StudyConfigValidate, OverflowSurfacesAsInvalidConfig) {
  const Config c = Config::parse("[study]\ncapacity_mb = 1e999\n");
  const Diagnostics diag = validate_case_study_config(c);
  EXPECT_FALSE(diag.ok());
  EXPECT_TRUE(diag.has(ErrorCode::kInvalidConfig));
  EXPECT_NE(diag.to_string().find("overflow"), std::string::npos);
}

}  // namespace
}  // namespace uld3d::io
