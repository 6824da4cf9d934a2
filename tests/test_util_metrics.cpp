#include "uld3d/util/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "uld3d/util/check.hpp"

namespace uld3d {
namespace {

// The registry is process-global; tests isolate themselves by zeroing all
// values and restoring the disabled default.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::set_enabled(true);
    MetricsRegistry::instance().reset_values();
  }
  void TearDown() override {
    MetricsRegistry::instance().reset_values();
    MetricsRegistry::set_enabled(false);
  }
};

TEST_F(MetricsTest, CounterAccumulates) {
  Counter& c = MetricsRegistry::instance().counter("test.metrics.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, LookupReturnsTheSameSeries) {
  Counter& a = MetricsRegistry::instance().counter("test.metrics.same");
  Counter& b = MetricsRegistry::instance().counter("test.metrics.same");
  EXPECT_EQ(&a, &b);
}

TEST_F(MetricsTest, KindCollisionThrows) {
  MetricsRegistry::instance().counter("test.metrics.kind_clash");
  EXPECT_THROW(MetricsRegistry::instance().gauge("test.metrics.kind_clash"),
               PreconditionError);
}

TEST_F(MetricsTest, DisabledUpdatesRecordNothing) {
  Counter& c = MetricsRegistry::instance().counter("test.metrics.disabled_c");
  Gauge& g = MetricsRegistry::instance().gauge("test.metrics.disabled_g");
  MetricsRegistry::set_enabled(false);
  c.add(7);
  g.set(3.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, GaugeKeepsLastValue) {
  Gauge& g = MetricsRegistry::instance().gauge("test.metrics.gauge");
  g.set(1.25);
  g.set(-7.5);
  EXPECT_EQ(g.value(), -7.5);
}

TEST_F(MetricsTest, ResetValuesKeepsRegistration) {
  Counter& c = MetricsRegistry::instance().counter("test.metrics.reset_c");
  Gauge& g = MetricsRegistry::instance().gauge("test.metrics.reset_g");
  c.add(5);
  g.set(3.0);
  MetricsRegistry::instance().reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  // Same handle still registered under the same name.
  EXPECT_EQ(&MetricsRegistry::instance().counter("test.metrics.reset_c"), &c);
}

TEST_F(MetricsTest, ConcurrentIncrementsAreLossless) {
  Counter& c = MetricsRegistry::instance().counter("test.metrics.threads_c");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, SnapshotIsSortedAndTyped) {
  MetricsRegistry::instance().counter("test.metrics.snap_b").add(2);
  MetricsRegistry::instance().gauge("test.metrics.snap_a").set(1.5);
  const auto samples = MetricsRegistry::instance().snapshot();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end(),
                             [](const MetricSample& x, const MetricSample& y) {
                               return x.name < y.name;
                             }));
  bool saw_counter = false;
  bool saw_gauge = false;
  for (const auto& s : samples) {
    if (s.name == "test.metrics.snap_b") {
      EXPECT_EQ(s.kind, MetricKind::kCounter);
      EXPECT_EQ(s.value, 2.0);
      saw_counter = true;
    }
    if (s.name == "test.metrics.snap_a") {
      EXPECT_EQ(s.kind, MetricKind::kGauge);
      EXPECT_EQ(s.value, 1.5);
      saw_gauge = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST_F(MetricsTest, JsonExportContainsSeries) {
  MetricsRegistry::instance().counter("test.metrics.json_c").add(3);
  MetricsRegistry::instance().gauge("test.metrics.json_g").set(0.5);
  const std::string json = MetricsRegistry::instance().to_json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"test.metrics.json_c\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.metrics.json_g\", \"kind\": \"gauge\", "
                      "\"value\": 0.5}"),
            std::string::npos);
  // Balanced braces/brackets — the cheap structural sanity check; the CLI
  // smoke test runs a real JSON parser over the exported file.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(MetricsTest, CsvExportHasHeaderAndRows) {
  MetricsRegistry::instance().counter("test.metrics.csv_c").add(1);
  const std::string csv = MetricsRegistry::instance().to_csv();
  EXPECT_EQ(csv.rfind("name,kind,value\n", 0), 0u);
  EXPECT_NE(csv.find("test.metrics.csv_c,counter,1"), std::string::npos);
}

}  // namespace
}  // namespace uld3d
