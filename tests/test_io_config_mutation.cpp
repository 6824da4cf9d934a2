// Mutation sweep over the shipped INI configs (configs/*.ini).  Every
// mutated text must end in a refusal or a build, as the CLI treats it:
//  - Config::parse throws PreconditionError (a malformed line), or
//  - validate_case_study_config reports errors (exit 3), or
//  - case_study_from_config builds the study without throwing.
// A config that validates and then fails to build is a validation gap.
// architecture_from_config is not validated first: it may build or throw a
// std::exception, which the CLI maps to exit 3.  Nothing may crash, hang
// or trip the sanitizers.  The sweep is deterministic: every prefix of each
// config, then seeded byte flips, embedded NULs, duplicated, deleted and
// reordered lines, and values replaced by huge, tiny, non-finite and
// malformed numbers, alone and combined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "uld3d/io/config.hpp"
#include "uld3d/io/study_config.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/rng.hpp"

namespace uld3d::io {
namespace {

std::vector<std::filesystem::path> shipped_configs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(ULD3D_CONFIG_DIR)) {
    if (entry.path().extension() == ".ini") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text.append(line).push_back('\n');
  return text;
}

/// Values that stress the number parsers and the range checks.
const char* const kValues[] = {
    "1e308", "-1e308", "1e309", "-1e309", "1e-320", "4.9e-324", "0", "-0",
    "-1", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809", "99999999999999999999999999", "1e30", "1e6",
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "0x1p4", "0.5", "1.5",
    "",
    " ", "1 2", "12abc", "--1", "+", "."};

/// One random edit of `text`.
std::string mutate_once(const std::string& text, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.below(std::max<std::size_t>(n, 1)));
  };
  std::string out = text;
  std::vector<std::string> lines = split_lines(text);
  switch (rng.below(7)) {
    case 0:  // flip one bit
      if (!out.empty()) {
        out[pick(out.size())] ^= static_cast<char>(1U << rng.below(8));
      }
      return out;
    case 1: {  // overwrite a byte, often with a structural one
      constexpr char kBytes[] = {'\0', '\n', '\r', '=', '[', ']', '#', ';',
                                 ' ', '\t', '\x7f', '\xff'};
      if (!out.empty()) {
        out[pick(out.size())] = rng.below(2) == 0
                                    ? kBytes[pick(std::size(kBytes))]
                                    : static_cast<char>(rng.below(256));
      }
      return out;
    }
    case 2:  // embed a NUL
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(
                                   pick(out.size() + 1)),
                 '\0');
      return out;
    case 3:  // duplicate a line somewhere
      if (!lines.empty()) {
        const std::string line = lines[pick(lines.size())];
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         pick(lines.size() + 1)),
                     line);
      }
      return join_lines(lines);
    case 4:  // swap two lines, or move one
      if (lines.size() >= 2) {
        std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
        if (rng.below(2) == 0) {
          std::rotate(lines.begin(),
                      lines.begin() + static_cast<std::ptrdiff_t>(
                                          pick(lines.size())),
                      lines.end());
        }
      }
      return join_lines(lines);
    case 5:  // delete a line
      if (!lines.empty()) {
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(pick(lines.size())));
      }
      return join_lines(lines);
    default: {  // replace a value
      std::vector<std::size_t> pairs;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].find('=') != std::string::npos) pairs.push_back(i);
      }
      if (pairs.empty()) return out;
      std::string& line = lines[pairs[pick(pairs.size())]];
      line = line.substr(0, line.find('=') + 1) + " " +
             kValues[pick(std::size(kValues))];
      return join_lines(lines);
    }
  }
}

struct Tally {
  int parse_rejected = 0;
  int invalid = 0;
  int built = 0;
  int arch_built = 0;
  int arch_refused = 0;
};

/// Drive one text through the CLI's two config paths and record how each
/// ends; a validated config that does not build fails the test.
void check_text(const std::string& text, Tally& tally,
                const std::string& what) {
  Config config;
  try {
    config = Config::parse(text);
  } catch (const PreconditionError&) {
    ++tally.parse_rejected;
    return;
  }
  if (!validate_case_study_config(config).ok()) {
    ++tally.invalid;
  } else {
    try {
      (void)case_study_from_config(config);
      ++tally.built;
    } catch (const std::exception& error) {
      ADD_FAILURE() << what << ": validated but did not build: "
                    << error.what();
    }
  }
  try {
    (void)architecture_from_config(config);
    ++tally.arch_built;
  } catch (const std::exception&) {
    ++tally.arch_refused;
  }
}

TEST(ConfigMutation, ShippedConfigsRefuseOrBuildUnderTenThousandMutations) {
  const std::vector<std::filesystem::path> paths = shipped_configs();
  ASSERT_GE(paths.size(), 3u);
  Rng rng(0x1f1);
  Tally total;
  for (const std::filesystem::path& path : paths) {
    const std::string text = read_file(path);
    ASSERT_FALSE(text.empty()) << path;
    const std::string name = path.filename().string();
    int mutations = 0;
    for (std::size_t n = 0; n <= text.size(); ++n, ++mutations) {
      check_text(text.substr(0, n), total,
                 name + " prefix " + std::to_string(n));
    }
    // Every value replaced by every stress value, one key at a time.
    const std::vector<std::string> lines = split_lines(text);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::size_t eq = lines[i].find('=');
      if (eq == std::string::npos || lines[i].front() == '#') continue;
      for (const char* value : kValues) {
        std::vector<std::string> edited = lines;
        edited[i] = lines[i].substr(0, eq + 1) + " " + value;
        check_text(join_lines(edited), total,
                   name + " line " + std::to_string(i + 1) + " = '" + value +
                       "'");
        ++mutations;
      }
    }
    for (; mutations < 10000; ++mutations) {
      std::string mutated = text;
      for (auto edits = 1 + rng.below(3); edits > 0; --edits) {
        mutated = mutate_once(mutated, rng);
      }
      check_text(mutated, total, name + " mutation " + std::to_string(mutations));
    }
    if (::testing::Test::HasFailure()) return;
  }
  // Every outcome is reached.
  EXPECT_GT(total.parse_rejected, 1000);
  EXPECT_GT(total.invalid, 1000);
  EXPECT_GT(total.built, 1000);
  EXPECT_GT(total.arch_built, 1000);
  EXPECT_GT(total.arch_refused, 1000);
}

}  // namespace
}  // namespace uld3d::io
