#include "uld3d/io/config.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::io {
namespace {

constexpr const char* kSample = R"(
# a comment
[study]
capacity_mb = 64      # trailing comment
flag = true

[node]
feature_nm = 130
name = hello world
)";

TEST(Config, ParsesSectionsAndKeys) {
  const Config c = Config::parse(kSample);
  EXPECT_TRUE(c.has("study", "capacity_mb"));
  EXPECT_TRUE(c.has("node", "feature_nm"));
  EXPECT_FALSE(c.has("study", "nope"));
  EXPECT_FALSE(c.has("nope", "capacity_mb"));
}

TEST(Config, TypedGetters) {
  const Config c = Config::parse(kSample);
  EXPECT_DOUBLE_EQ(c.get_double("study", "capacity_mb", 0.0), 64.0);
  EXPECT_EQ(c.get_int("node", "feature_nm", 0), 130);
  EXPECT_TRUE(c.get_bool("study", "flag", false));
  EXPECT_EQ(c.get_string("node", "name", ""), "hello world");
}

TEST(Config, FallbacksWhenAbsent) {
  const Config c = Config::parse(kSample);
  EXPECT_DOUBLE_EQ(c.get_double("study", "missing", 3.5), 3.5);
  EXPECT_EQ(c.get_int("missing", "missing", 7), 7);
  EXPECT_FALSE(c.get_bool("study", "missing", false));
  EXPECT_EQ(c.get_string("x", "y", "dflt"), "dflt");
}

TEST(Config, BooleanSpellings) {
  const Config c = Config::parse("[s]\na=yes\nb=0\nc=ON\nd=False\n");
  EXPECT_TRUE(c.get_bool("s", "a", false));
  EXPECT_FALSE(c.get_bool("s", "b", true));
  EXPECT_TRUE(c.get_bool("s", "c", false));
  EXPECT_FALSE(c.get_bool("s", "d", true));
}

TEST(Config, BadValuesThrow) {
  const Config c = Config::parse("[s]\nx = not_a_number\n");
  EXPECT_THROW(static_cast<void>(c.get_double("s", "x", 0.0)), Error);
  EXPECT_THROW(static_cast<void>(c.get_int("s", "x", 0)), Error);
  EXPECT_THROW(static_cast<void>(c.get_bool("s", "x", false)),
               PreconditionError);
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(Config::parse("[unclosed\n"), PreconditionError);
  EXPECT_THROW(Config::parse("no_equals_sign\n"), PreconditionError);
  EXPECT_THROW(Config::parse("= value_without_key\n"), PreconditionError);
}

TEST(Config, KeysBeforeAnySectionLandInGlobal) {
  const Config c = Config::parse("top = 1\n[s]\nx = 2\n");
  EXPECT_EQ(c.get_int("global", "top", 0), 1);
}

TEST(Config, RoundTripsThroughText) {
  Config c;
  c.set("alpha", "k1", "v1");
  c.set("beta", "k2", "42");
  const Config back = Config::parse(c.to_text());
  EXPECT_EQ(back.get_string("alpha", "k1", ""), "v1");
  EXPECT_EQ(back.get_int("beta", "k2", 0), 42);
}

TEST(Config, LoadMissingFileThrows) {
  EXPECT_THROW(Config::load("/nonexistent/file.ini"), PreconditionError);
}

}  // namespace
}  // namespace uld3d::io
