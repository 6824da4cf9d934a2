// Deterministic mutation sweep of uld3d-report's event-stream loader
// (tools/report_common): every prefix of a stream that holds every event
// type, byte flips and embedded NULs at every offset, duplicated, deleted
// and reordered lines, and each numeric member set to -1, 0.5, 1e300, 1e400
// and 2^64.  Each mutation goes through read_events, summarize and
// summary_to_json, and must end either in a refusal (a uld3d::Error, which
// the tool reports as exit 3) or in a loaded stream with at most one torn
// line whose JSON summary parses.  Anything else — another exception type,
// a crash, a sanitizer report — fails the test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <vector>

#include "report_common.hpp"

namespace uld3d::report {
namespace {

// Two runs of one sweep (an interrupted run and its resume, which
// re-evaluates point 2), written the way util/telemetry writes them, plus
// the progress event, shard label, shard_info event and domain_size of
// older streams.
const char* const kSeedLines[] = {
    R"({"schema": 1, "ev": "run_start", "run": "r1", "ts_ms": 1792494063280, "command": "uld3d_cli sweep --keep-going", "provenance": {"git_sha": "d2132cd", "compiler": "GNU 12.2.0", "build_type": "Release", "hostname": "vm", "timestamp_utc": "2026-10-20T11:01:03Z", "jobs": 2, "hardware_concurrency": 4}})",
    R"({"schema": 1, "ev": "sweep_start", "run": "r1", "ts_ms": 1792494063280, "fingerprint": "cb19a0598828e42f", "grid_size": 20, "params": ["capacity_mb", "n_cs"], "metrics": ["edp_benefit", "speedup"], "jobs": 2})",
    R"({"schema": 1, "ev": "point_done", "run": "r1", "ts_ms": 1792494063280, "index": 0, "params": [16, 1], "status": "ok", "metrics": [1.0026739254743031, 1], "failure": null, "dur_us": 14.334})",
    R"({"schema": 1, "ev": "progress", "run": "r1", "ts_ms": 1792494063280, "done": 1, "total": 20, "ok": 1, "failed": 0, "points_per_sec": 40614.084964665744, "eta_s": 0.000467818, "queue_depth": 0})",
    R"({"schema": 1, "ev": "point_done", "run": "r1", "ts_ms": 1792494063280, "index": 2, "params": [16, 4], "status": "failed", "failure": {"code": "kInfeasiblePoint", "message": "requested CS count does not fit the freed Si area", "context": [["n_cs", "4"], ["n_geom", "2"]]}, "dur_us": 48.223999999999997})",
    R"({"schema": 1, "ev": "checkpoint_flush", "run": "r1", "ts_ms": 1792494063280, "completed": 5, "total": 20, "checkpoint": "ck.json"})",
    R"({"schema": 1, "ev": "stage", "run": "r1", "ts_ms": 1792494063284, "name": "dse.sweep", "dur_us": 3754.395, "cpu_us": 1489.0440000000001, "alloc_bytes": 0, "rss_kb": 2808})",
    R"({"schema": 1, "ev": "run_end", "run": "r1", "ts_ms": 1792494063284, "status": "interrupted", "exit_code": 5, "events_emitted": 7})",
    R"({"schema": 1, "ev": "run_start", "run": "r2", "shard": "0/1", "ts_ms": 1792494063290, "command": "uld3d_cli sweep --keep-going --resume", "provenance": {"git_sha": "d2132cd", "compiler": "GNU 12.2.0", "build_type": "Release", "hostname": "vm", "timestamp_utc": "2026-10-20T11:01:04Z", "jobs": 1, "hardware_concurrency": 4, "simd_isa": "avx2"}})",
    R"({"schema": 1, "ev": "sweep_start", "run": "r2", "shard": "0/1", "ts_ms": 1792494063290, "fingerprint": "cb19a0598828e42f", "grid_size": 20, "params": ["capacity_mb", "n_cs"], "metrics": ["edp_benefit", "speedup"], "domain_size": 20, "jobs": 1})",
    R"({"schema": 1, "ev": "shard_info", "run": "r2", "shard": "0/1", "ts_ms": 1792494063290, "shard_index": 0, "shard_count": 1, "domain_size": 20, "sentinels": [0, 5, 10, 15]})",
    R"({"schema": 1, "ev": "point_done", "run": "r2", "shard": "0/1", "ts_ms": 1792494063291, "index": 2, "params": [16, 4], "status": "failed", "failure": {"code": "kInfeasiblePoint", "message": "requested CS count does not fit the freed Si area", "context": [["n_cs", "4"], ["n_geom", "2"]]}, "dur_us": 8.5069999999999997})",
    R"({"schema": 1, "ev": "point_done", "run": "r2", "shard": "0/1", "ts_ms": 1792494063291, "index": 7, "params": [32, 4], "status": "ok", "metrics": [3.7470423478024357, "inf"], "failure": null, "dur_us": 3.2320000000000002})",
    R"({"schema": 1, "ev": "stage", "run": "r2", "shard": "0/1", "ts_ms": 1792494063292, "name": "dse.sweep", "dur_us": 1200.5, "cpu_us": 1100.25, "alloc_bytes": 4096, "rss_kb": 2900})",
    R"({"schema": 1, "ev": "run_end", "run": "r2", "shard": "0/1", "ts_ms": 1792494063292, "status": "ok", "exit_code": 0, "events_emitted": 7})",
};

std::vector<std::string> seed_lines() {
  return {std::begin(kSeedLines), std::end(kSeedLines)};
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

// The values each numeric member is set to: out of every integer type's
// range or not integral, except -1 for a signed member.
const char* const kNumericEdits[] = {"-1", "0.5", "1e300", "1e400",
                                     "18446744073709551616"};

/// What the loader made of one input.
struct Outcome {
  bool refused = false;
  EventStream stream;
  StreamSummary summary;
};

class ReportMutation : public ::testing::Test {
 protected:
  // One scratch file per test: ctest runs the tests as parallel processes.
  void SetUp() override {
    path_ = testing::TempDir() + "report_mutation_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ndjson";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Write `text` to the scratch file and load it the way the tool does.
  Outcome load(const std::string& text) {
    {
      std::ofstream file(path_, std::ios::binary | std::ios::trunc);
      file.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    Outcome outcome;
    try {
      outcome.stream = read_events(path_);
      outcome.summary = summarize(outcome.stream);
      const std::string json =
          summary_to_json(outcome.summary, outcome.stream, path_, 5);
      EXPECT_NO_THROW(static_cast<void>(json_parse(json))) << json;
      EXPECT_LE(outcome.stream.torn_lines, 1u);
    } catch (const Error&) {
      outcome.refused = true;
    }
    return outcome;
  }

  std::string path_;
};

TEST_F(ReportMutation, SeedStreamLoadsWhole) {
  const Outcome outcome = load(join(seed_lines()));
  ASSERT_FALSE(outcome.refused);
  EXPECT_EQ(outcome.stream.events.size(), std::size(kSeedLines));
  EXPECT_EQ(outcome.stream.torn_lines, 0u);
  const StreamSummary& s = outcome.summary;
  ASSERT_EQ(s.runs.size(), 2u);
  EXPECT_EQ(s.runs[0].exit_code, "5");
  EXPECT_EQ(s.runs[1].status, "ok");
  EXPECT_EQ(s.grid_size, 20u);
  EXPECT_EQ(s.jobs, 1);
  EXPECT_EQ(s.ok, 2u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.points_by_index.size(), 3u);
  EXPECT_EQ(s.stages.at("dse.sweep").count, 2u);
}

// A writer killed mid-line leaves a prefix: every one loads, and exactly
// the prefixes that end inside a line count one torn line.
TEST_F(ReportMutation, EveryPrefixLoads) {
  const std::string seed = join(seed_lines());
  for (std::size_t n = 0; n <= seed.size(); ++n) {
    const Outcome outcome = load(seed.substr(0, n));
    ASSERT_FALSE(outcome.refused) << "prefix of " << n << " bytes";
    const bool mid_line = n > 0 && n < seed.size() && seed[n - 1] != '\n' &&
                          seed[n] != '\n';
    EXPECT_EQ(outcome.stream.torn_lines, mid_line ? 1u : 0u)
        << "prefix of " << n << " bytes";
  }
}

TEST_F(ReportMutation, ByteFlipsAndNulsAreRefusedOrLoad) {
  const std::string seed = join(seed_lines());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    const char original = seed[i];
    for (const char replacement :
         {static_cast<char>(original ^ (1 << (i % 8))),
          static_cast<char>(original ^ 0x20), '\0'}) {
      std::string mutated = seed;
      mutated[i] = replacement;
      load(mutated);  // the checks live in load()
    }
  }
}

// Whole-line edits keep every line well formed, so each must load.
TEST_F(ReportMutation, DuplicatedDeletedAndReorderedLinesLoad) {
  const std::vector<std::string> lines = seed_lines();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> duplicated = lines;
    duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(i),
                      lines[i]);
    std::vector<std::string> deleted = lines;
    deleted.erase(deleted.begin() + static_cast<std::ptrdiff_t>(i));
    std::vector<std::string> moved_last = lines;
    moved_last.erase(moved_last.begin() + static_cast<std::ptrdiff_t>(i));
    moved_last.push_back(lines[i]);
    for (const auto& edited : {duplicated, deleted, moved_last}) {
      EXPECT_FALSE(load(join(edited)).refused) << "line " << i;
    }
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      std::vector<std::string> swapped = lines;
      std::swap(swapped[i], swapped[j]);
      EXPECT_FALSE(load(join(swapped)).refused) << "lines " << i << ", " << j;
    }
  }
}

// The integral members the reader casts must refuse what their integer
// type cannot hold; every other member (a duration, a field the reader
// skips) may take any of the values.
TEST_F(ReportMutation, OutOfRangeIntegersAreRefused) {
  const std::string seed = join(seed_lines());
  const std::regex member(R"re("([a-z_]+)": (-?[0-9][-+.eE0-9]*))re");
  std::size_t refusals_expected = 0;
  for (auto it = std::sregex_iterator(seed.begin(), seed.end(), member);
       it != std::sregex_iterator(); ++it) {
    const std::string key = (*it)[1].str();
    const auto value_at = static_cast<std::size_t>(it->position(2));
    const auto value_len = static_cast<std::size_t>(it->length(2));
    const std::string sweep_start_head = R"({"schema": 1, "ev": "sweep_start")";
    const std::size_t line_at = seed.rfind('\n', value_at) + 1;  // npos + 1 = 0
    const bool sweep_start = seed.compare(line_at, sweep_start_head.size(),
                                          sweep_start_head) == 0;
    // The provenance of run_start carries a "jobs" the reader skips.
    const bool is_signed = key == "exit_code" || (key == "jobs" && sweep_start);
    const bool is_unsigned = key == "index" || key == "grid_size";
    for (const std::string edit : kNumericEdits) {
      std::string mutated = seed;
      mutated.replace(value_at, value_len, edit);
      const Outcome outcome = load(mutated);
      if (key == "schema" || is_unsigned || (is_signed && edit != "-1")) {
        ++refusals_expected;
        EXPECT_TRUE(outcome.refused) << key << " = " << edit;
      }
    }
  }
  // 15 schema, 4 index and 2 grid_size members refuse all five values; 2
  // sweep_start jobs and 2 exit_code members refuse all but -1.
  EXPECT_EQ(refusals_expected, (15u + 4u + 2u) * 5u + (2u + 2u) * 4u);
}

// The named defects: each once loaded as a wrong value (point
// 18446744073709551615, point 0, jobs -2147483648).
TEST_F(ReportMutation, NamedOutOfRangeValuesAreRefused) {
  const std::string seed = join(seed_lines());
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string text = seed;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  EXPECT_TRUE(load(with("\"index\": 0", "\"index\": -1")).refused);
  EXPECT_TRUE(load(with("\"index\": 0", "\"index\": 1e300")).refused);
  EXPECT_TRUE(load(with("\"jobs\": 2}", "\"jobs\": 1e20}")).refused);
  EXPECT_TRUE(load(with("\"index\": 0", "\"index\": \"0\"")).refused);
  EXPECT_FALSE(load(with("\"jobs\": 2}", "\"jobs\": -1}")).refused);
}

// The byte-level sweeps above make four mutations per seed byte (a prefix,
// two flips and a NUL); the line and member edits come on top.
TEST_F(ReportMutation, SweepsHoldAtLeastTenThousandMutations) {
  EXPECT_GE(4 * join(seed_lines()).size(), 10000u);
}

}  // namespace
}  // namespace uld3d::report
