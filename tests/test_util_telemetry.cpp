#include "uld3d/util/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/provenance.hpp"
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

// The sink is process-global; each test starts closed (disabled) with a
// known run context and leaves it that way.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventSink::instance().close();
    RunContext ctx;
    ctx.run_id = "testrun";
    set_current_run_context(ctx);
  }
  void TearDown() override {
    EventSink::instance().close();
    std::remove(path_.c_str());
  }

  /// Open the sink on a fresh temp file and return its path.
  const std::string& open_sink(const std::string& name) {
    path_ = temp_path(name);
    std::remove(path_.c_str());
    EXPECT_TRUE(EventSink::instance().open(path_));
    return path_;
  }

  std::string path_;
};

TEST_F(TelemetryTest, DisabledByDefaultAndEmitsNothing) {
  EXPECT_FALSE(EventSink::enabled());
  // No sink open: every emit is a cheap no-op, not a crash.
  EventSink::instance().emit_stage("test.stage", 1.0);
  EXPECT_FALSE(EventSink::enabled());
}

TEST_F(TelemetryTest, MakeRunContextIsUniquePerCall) {
  const RunContext a = make_run_context();
  const RunContext b = make_run_context();
  EXPECT_FALSE(a.run_id.empty());
  EXPECT_NE(a.run_id, b.run_id);
  // Same process identity: the ids differ only by the trailing counter.
  EXPECT_EQ(a.run_id.substr(0, a.run_id.find('-')),
            b.run_id.substr(0, b.run_id.find('-')));
}

TEST_F(TelemetryTest, EveryEventLineIsSchemaStampedJson) {
  const std::string& path = open_sink("telemetry_schema.ndjson");
  EventSink& sink = EventSink::instance();
  EXPECT_TRUE(EventSink::enabled());
  sink.emit_run_start(capture_provenance(), "unit test command");
  sink.emit_sweep_start("fp", 10, {"a", "b"}, {"m"}, 4);
  sink.emit_point_done(3, {1.0, 2.0}, {3.0}, nullptr, 12.5);
  sink.emit_checkpoint_flush(5, 10, "ckpt.json");
  sink.emit_stage("test.stage", 99.0);
  sink.emit_run_end("ok", 0);
  sink.close();

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 6u);
  const std::vector<std::string> expected = {
      "run_start",        "sweep_start", "point_done",
      "checkpoint_flush", "stage",       "run_end"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue event = json_parse(lines[i]);  // throws on bad JSON
    EXPECT_EQ(event.number_or("schema", -1.0),
              static_cast<double>(kTelemetrySchemaVersion));
    EXPECT_EQ(event.at("ev").as_string(), expected[i]) << lines[i];
    EXPECT_EQ(event.at("run").as_string(), "testrun");
    EXPECT_EQ(event.find("shard"), nullptr);
    EXPECT_TRUE(event.at("ts_ms").is_number());
  }
}

TEST_F(TelemetryTest, PointDoneRoundTripsDoublesBitExactly) {
  const std::string& path = open_sink("telemetry_exact.ndjson");
  // Values that expose sloppy rendering: a non-representable decimal, a
  // huge magnitude, a subnormal, and a negative zero.
  const std::vector<double> params = {0.1, 1e300, -3.5};
  const std::vector<double> metrics = {1.0026739254743031,
                                       std::numeric_limits<double>::denorm_min(),
                                       -0.0};
  EventSink::instance().emit_point_done(7, params, metrics, nullptr, 1.0);
  EventSink::instance().close();

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue event = json_parse(lines[0]);
  EXPECT_EQ(static_cast<std::size_t>(event.at("index").as_number()), 7u);
  EXPECT_EQ(event.at("status").as_string(), "ok");
  EXPECT_TRUE(event.at("failure").is_null());
  const JsonValue::Array& p = event.at("params").as_array();
  const JsonValue::Array& m = event.at("metrics").as_array();
  ASSERT_EQ(p.size(), params.size());
  ASSERT_EQ(m.size(), metrics.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(p[i].as_number(), params[i]) << "param " << i;
  }
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(m[i].as_number(), metrics[i]) << "metric " << i;
  }
}

TEST_F(TelemetryTest, FailedPointCarriesStructuredFailure) {
  const std::string& path = open_sink("telemetry_failure.ndjson");
  EventFailure failure;
  failure.code = "kInfeasiblePoint";
  failure.message = "chip does not close \"timing\"";
  failure.context = {{"n_cs", "4"}, {"capacity_mb", "16"}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EventSink::instance().emit_point_done(2, {16.0, 4.0}, {nan}, &failure, 5.0);
  EventSink::instance().close();

  const JsonValue event = json_parse(read_lines(path).at(0));
  EXPECT_EQ(event.at("status").as_string(), "failed");
  const JsonValue& f = event.at("failure");
  EXPECT_EQ(f.at("code").as_string(), "kInfeasiblePoint");
  // The quote in the message survives JSON escaping + parsing.
  EXPECT_EQ(f.at("message").as_string(), "chip does not close \"timing\"");
  const JsonValue::Array& context = f.at("context").as_array();
  ASSERT_EQ(context.size(), 2u);
  EXPECT_EQ(context[0].as_array().at(0).as_string(), "n_cs");
  EXPECT_EQ(context[0].as_array().at(1).as_string(), "4");
  // Failed rows never publish their (all-NaN) metrics.
  EXPECT_EQ(event.find("metrics"), nullptr);
}

TEST_F(TelemetryTest, NonFiniteDursRenderAsStrings) {
  const std::string& path = open_sink("telemetry_nonfinite.ndjson");
  EventSink::instance().emit_stage(
      "test.inf", std::numeric_limits<double>::infinity());
  EventSink::instance().close();
  const JsonValue event = json_parse(read_lines(path).at(0));
  // Non-finite numbers are not JSON; the writer spells them as strings.
  EXPECT_EQ(event.at("dur_us").as_string(), "inf");
}

TEST_F(TelemetryTest, RunEndReportsEmittedCountAndCloseDisables) {
  const std::string& path = open_sink("telemetry_runend.ndjson");
  EventSink& sink = EventSink::instance();
  sink.emit_stage("s1", 1.0);
  sink.emit_stage("s2", 1.0);
  sink.emit_run_end("interrupted", 5);
  sink.close();
  EXPECT_FALSE(EventSink::enabled());

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  const JsonValue end = json_parse(lines.back());
  EXPECT_EQ(end.at("ev").as_string(), "run_end");
  EXPECT_EQ(end.at("status").as_string(), "interrupted");
  EXPECT_EQ(end.number_or("exit_code", -1.0), 5.0);
  // The two stage events preceded run_end.
  EXPECT_EQ(end.number_or("events_emitted", -1.0), 2.0);
}

TEST_F(TelemetryTest, StageSpanEmitsOnlyWhenEnabled) {
  // Disabled: constructing and destroying a stage span is a no-op.
  { TraceSpan stage("test.stage.disabled", "test", TraceSpan::kStage); }
  const std::string& path = open_sink("telemetry_stage.ndjson");
  { TraceSpan stage("test.stage.enabled", "test", TraceSpan::kStage); }
  EventSink::instance().close();
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue event = json_parse(lines[0]);
  EXPECT_EQ(event.at("ev").as_string(), "stage");
  EXPECT_EQ(event.at("name").as_string(), "test.stage.enabled");
  EXPECT_GE(event.number_or("dur_us", -1.0), 0.0);
}

/// Registered metric series whose names start with `prefix`.
std::vector<std::string> series_named(const std::string& prefix) {
  std::vector<std::string> names;
  for (const MetricSample& s : MetricsRegistry::instance().snapshot()) {
    if (s.name.rfind(prefix, 0) == 0) names.push_back(s.name);
  }
  return names;
}

TEST_F(TelemetryTest, OnlyStageSpansFeedTheStageSinks) {
  // Events and metrics armed: a plain span emits no stage event and no
  // stage.* metric; a stage span emits both.
  const std::string& path = open_sink("telemetry_routing.ndjson");
  MetricsRegistry::set_enabled(true);
  { TraceSpan plain("test.routing.plain", "test"); }
  { TraceSpan stage("test.routing.stage", "test", TraceSpan::kStage); }
  MetricsRegistry::set_enabled(false);
  EventSink::instance().close();
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(json_parse(lines[0]).at("name").as_string(), "test.routing.stage");
  EXPECT_TRUE(series_named("stage.test.routing.plain").empty());
  EXPECT_FALSE(series_named("stage.test.routing.stage").empty());

  // Only the trace armed: a stage span emits its trace event and nothing
  // else.
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  { TraceSpan stage("test.routing.traced", "test", TraceSpan::kStage); }
  recorder.set_enabled(false);
  const std::vector<TraceEvent> events = recorder.events();
  recorder.clear();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.routing.traced");
  EXPECT_TRUE(series_named("stage.test.routing.traced").empty());
}

TEST_F(TelemetryTest, AppendReopenUnionsRuns) {
  // A resumed run reopens the same file: both runs' events survive.
  const std::string& path = open_sink("telemetry_append.ndjson");
  EventSink::instance().emit_stage("run.one", 1.0);
  EventSink::instance().close();
  EXPECT_TRUE(EventSink::instance().open(path));
  EventSink::instance().emit_stage("run.two", 1.0);
  EventSink::instance().close();
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(json_parse(lines[0]).at("name").as_string(), "run.one");
  EXPECT_EQ(json_parse(lines[1]).at("name").as_string(), "run.two");
}

}  // namespace
}  // namespace uld3d
