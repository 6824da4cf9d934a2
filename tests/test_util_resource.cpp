#include "uld3d/util/resource.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/provenance.hpp"
#include "uld3d/util/telemetry.hpp"
#include "uld3d/util/trace.hpp"

namespace uld3d {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream file(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Burn thread CPU time (not just wall time) until the thread clock moves.
void burn_cpu() {
  volatile double acc = 0.0;
  for (int i = 0; i < 2'000'000; ++i) acc = acc + static_cast<double>(i) * 1e-9;
}

TEST(ResourceTest, ThreadCpuTimeAdvancesUnderWork) {
  const double before = thread_cpu_time_us();
  EXPECT_GE(before, 0.0);
  burn_cpu();
  EXPECT_GT(thread_cpu_time_us(), before);
}

TEST(ResourceTest, AllocCountingFollowsTheGate) {
  set_alloc_stats_enabled(true);
  const std::uint64_t before = thread_alloc_bytes();
  {
    std::vector<char> block(1 << 21);  // 2 MiB
    block[0] = 1;
  }
  const std::uint64_t counted = thread_alloc_bytes() - before;
  // Frees are deliberately not subtracted: this is an allocation-pressure
  // meter, so the vector's 2 MiB stays counted after its destructor runs.
  EXPECT_GE(counted, std::uint64_t{1} << 21);

  set_alloc_stats_enabled(false);
  const std::uint64_t frozen = thread_alloc_bytes();
  {
    std::vector<char> block(1 << 21);
    block[0] = 1;
  }
  EXPECT_EQ(thread_alloc_bytes(), frozen);
  set_alloc_stats_enabled(true);
}

TEST(ResourceTest, SampleCarriesAllThreeAxes) {
  EXPECT_GE(thread_cpu_time_us(), 0.0);
  // A running gtest process has touched well over a page of memory.
  EXPECT_GT(peak_rss_kb(), 0);
}

TEST(ResourceTest, StageEventsCarryResourceAttribution) {
  EventSink::instance().close();
  RunContext ctx;
  ctx.run_id = "resource-test";
  set_current_run_context(ctx);
  const std::string path = temp_path("resource_stage.ndjson");
  std::remove(path.c_str());
  ASSERT_TRUE(EventSink::instance().open(path));
  set_alloc_stats_enabled(true);
  {
    TraceSpan stage("test.resource.stage", "test", TraceSpan::kStage);
    burn_cpu();
    std::vector<char> block(1 << 21);
    block[0] = 1;
  }
  EventSink::instance().close();

  bool saw_stage = false;
  for (const std::string& line : read_lines(path)) {
    const JsonValue event = json_parse(line);
    if (event.string_or("ev", "") != "stage") continue;
    if (event.string_or("name", "") != "test.resource.stage") continue;
    saw_stage = true;
    EXPECT_GT(event.number_or("dur_us", -1.0), 0.0);
    EXPECT_GT(event.number_or("cpu_us", -1.0), 0.0);
    EXPECT_GE(event.number_or("alloc_bytes", -1.0),
              static_cast<double>(std::uint64_t{1} << 21));
    EXPECT_GT(event.number_or("rss_kb", -1.0), 0.0);
  }
  EXPECT_TRUE(saw_stage);
  std::remove(path.c_str());
}

TEST(ResourceTest, StageMetricsAggregateWallCpuAlloc) {
  MetricsRegistry::set_enabled(true);
  MetricsRegistry::instance().reset_values();
  set_alloc_stats_enabled(true);
  {
    TraceSpan stage("test.resource.metrics", "test", TraceSpan::kStage);
    burn_cpu();
    std::vector<char> block(1 << 21);
    block[0] = 1;
  }
  MetricsRegistry& reg = MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("stage.test.resource.metrics.calls").value(), 1u);
  EXPECT_GT(reg.counter("stage.test.resource.metrics.wall_us").value(), 0u);
  EXPECT_GT(reg.counter("stage.test.resource.metrics.cpu_us").value(), 0u);
  EXPECT_GE(reg.counter("stage.test.resource.metrics.alloc_bytes").value(),
            std::uint64_t{1} << 21);
  MetricsRegistry::instance().reset_values();
  MetricsRegistry::set_enabled(false);
}

}  // namespace
}  // namespace uld3d
