#include "uld3d/util/flightrec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/telemetry.hpp"
#include "uld3d/util/trace.hpp"

namespace uld3d {
namespace {

// The flight recorder is process-global and records only once
// install_postmortem() has armed it, which no test can undo: rings
// accumulate records across every later test in this binary.  Tests
// therefore arm it before recording and assert on *relative* state (depth
// deltas, "contains a record named X") rather than absolute ring contents,
// using unique record names as markers.  A test of the disarmed state runs
// in a freshly started copy of this binary (see in_fresh_process).

std::string temp_postmortem_path(const char* tag) {
  return testing::TempDir() + "flightrec_" + tag + ".postmortem.json";
}

/// The thread entry for this test's own thread in a parsed postmortem.
const JsonValue* own_thread(const JsonValue& doc) {
  const std::uint32_t id = flightrec::thread_id();
  for (const JsonValue& t : doc.at("threads").as_array()) {
    if (static_cast<std::uint32_t>(t.at("id").as_number()) == id) return &t;
  }
  return nullptr;
}

/// Arm the recorder; re-arming an armed one only refreshes the dump path.
void arm() {
  ASSERT_TRUE(flightrec::install_postmortem(temp_postmortem_path("armed")));
}

/// Run `record` in a freshly started copy of this test binary, whose
/// recorder has never been armed, and expect it to exit 0.  gtest's
/// threadsafe death-test style re-executes the binary up to this call, so
/// the caller computes inputs before it and checks the child's dump after.
template <typename Record>
void in_fresh_process(Record record) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        record();
        std::exit(0);
      },
      testing::ExitedWithCode(0), "");
}

/// The thread that wrote a parsed postmortem.
const JsonValue* dumping_thread(const JsonValue& doc) {
  for (const JsonValue& t : doc.at("threads").as_array()) {
    if (t.at("dumping").as_bool()) return &t;
  }
  return nullptr;
}

/// Names of `thread`'s ring records of the given type.
std::vector<std::string> record_names(const JsonValue& thread,
                                      const std::string& type) {
  std::vector<std::string> names;
  for (const JsonValue& r : thread.at("records").as_array()) {
    if (r.string_or("type", "") == type) {
      names.push_back(r.string_or("name", ""));
    }
  }
  return names;
}

/// Dump to a fresh temp file and parse it back.
JsonValue dump_and_parse(const char* tag) {
  const std::string path = temp_postmortem_path(tag);
  EXPECT_TRUE(flightrec::install_postmortem(path));
  EXPECT_TRUE(flightrec::write_postmortem("test"));
  JsonValue doc = json_parse_file(path);
  std::remove(path.c_str());
  return doc;
}

TEST(FlightRecTest, ThreadIdIsStableAndNameRoundTrips) {
  const std::uint32_t id = flightrec::thread_id();
  EXPECT_EQ(flightrec::thread_id(), id);
  EXPECT_LT(id, flightrec::kMaxThreads);
  EXPECT_GE(flightrec::thread_count(), 1u);

  flightrec::set_thread_name("flightrec-test");
  EXPECT_STREQ(flightrec::thread_name(id), "flightrec-test");
  // Ring names share pthread_setname_np's 15-character cap.
  flightrec::set_thread_name("a-very-long-thread-name");
  EXPECT_STREQ(flightrec::thread_name(id), "a-very-long-thr");
  flightrec::set_thread_name("flightrec-test");
  EXPECT_STREQ(flightrec::thread_name(flightrec::kMaxThreads + 7), "");
}

TEST(FlightRecTest, InstallArmsAndRefreshesThePath) {
  const std::string a = temp_postmortem_path("path_a");
  const std::string b = temp_postmortem_path("path_b");
  ASSERT_TRUE(flightrec::install_postmortem(a));
  EXPECT_TRUE(flightrec::postmortem_installed());
  EXPECT_EQ(std::string(flightrec::postmortem_path()), a);
  ASSERT_TRUE(flightrec::install_postmortem(b));
  EXPECT_EQ(std::string(flightrec::postmortem_path()), b);
  // An over-long path must be refused, leaving the previous arm in place.
  EXPECT_FALSE(flightrec::install_postmortem(std::string(4096, 'x')));
  EXPECT_EQ(std::string(flightrec::postmortem_path()), b);
}

TEST(FlightRecTest, PostmortemNamesActiveSpansInNestingOrder) {
  arm();
  flightrec::span_begin("flightrec.outer");
  flightrec::span_begin("flightrec.inner");
  flightrec::event("flightrec.probe", 42);

  const JsonValue doc = dump_and_parse("spans");
  EXPECT_EQ(doc.string_or("kind", ""), "postmortem");
  EXPECT_EQ(doc.string_or("reason", ""), "test");
  EXPECT_EQ(doc.number_or("signal", -1.0), 0.0);
  ASSERT_NE(doc.find("provenance"), nullptr);
  ASSERT_NE(doc.find("metrics"), nullptr);

  const JsonValue* self = own_thread(doc);
  ASSERT_NE(self, nullptr);
  EXPECT_TRUE(self->at("dumping").as_bool());
  const auto& spans = self->at("active_spans").as_array();
  ASSERT_GE(spans.size(), 2u);
  // Innermost frames sit at the top of the stack, whatever the tests before
  // this one left below them.
  EXPECT_EQ(spans[spans.size() - 2].as_string(), "flightrec.outer");
  EXPECT_EQ(spans[spans.size() - 1].as_string(), "flightrec.inner");

  bool saw_probe = false;
  for (const JsonValue& r : self->at("records").as_array()) {
    if (r.string_or("name", "") == "flightrec.probe") {
      saw_probe = true;
      EXPECT_EQ(r.string_or("type", ""), "event");
      EXPECT_EQ(r.number_or("arg", -1.0), 42.0);
    }
  }
  EXPECT_TRUE(saw_probe);

  flightrec::span_end();
  flightrec::span_end();
  const JsonValue after = dump_and_parse("spans_popped");
  const JsonValue* self_after = own_thread(after);
  ASSERT_NE(self_after, nullptr);
  EXPECT_EQ(self_after->at("active_spans").as_array().size(),
            spans.size() - 2);
}

TEST(FlightRecTest, RingRetainsExactlyTheLastRecords) {
  arm();
  for (std::uint64_t i = 0; i < flightrec::kRingCapacity + 32; ++i) {
    flightrec::event("flightrec.ring", i);
  }
  const JsonValue doc = dump_and_parse("ring");
  const JsonValue* self = own_thread(doc);
  ASSERT_NE(self, nullptr);
  const auto& records = self->at("records").as_array();
  ASSERT_EQ(records.size(), flightrec::kRingCapacity);
  // Everything older was evicted: the window is [32, capacity+32), oldest
  // first, and the sequence numbers are strictly increasing.
  EXPECT_EQ(records.front().number_or("arg", -1.0), 32.0);
  EXPECT_EQ(records.back().number_or("arg", -1.0),
            static_cast<double>(flightrec::kRingCapacity + 31));
  double prev_seq = -1.0;
  for (const JsonValue& r : records) {
    EXPECT_GT(r.number_or("seq", -1.0), prev_seq);
    prev_seq = r.number_or("seq", -1.0);
  }
}

TEST(FlightRecTest, RecordsOnlyWhileArmed) {
  const std::string path = temp_postmortem_path("only_armed");
  in_fresh_process([&] {
    TraceRecorder::instance().set_enabled(false);
    { TraceSpan span("flightrec.unarmed", "test"); }
    flightrec::event("flightrec.unarmed");
    if (!flightrec::install_postmortem(path)) std::exit(1);
    { TraceSpan span("flightrec.armed", "test"); }
    flightrec::event("flightrec.armed");
    if (!flightrec::write_postmortem("test")) std::exit(1);
  });
  const JsonValue doc = json_parse_file(path);
  std::remove(path.c_str());
  const JsonValue* self = dumping_thread(doc);
  ASSERT_NE(self, nullptr);
  // Nothing before arming; after it, a span with tracing off leaves its
  // begin/end pair.
  const std::vector<std::string> armed_only = {"flightrec.armed"};
  EXPECT_EQ(record_names(*self, "span_begin"), armed_only);
  EXPECT_EQ(record_names(*self, "span_end"), armed_only);
  EXPECT_EQ(record_names(*self, "event"), armed_only);
}

TEST(FlightRecTest, SpanOpenedBeforeArmingWritesNoUnmatchedEnd) {
  const std::string path = temp_postmortem_path("straddling");
  in_fresh_process([&] {
    {
      TraceSpan straddling("flightrec.straddling", "test");
      if (!flightrec::install_postmortem(path)) std::exit(1);
    }
    if (!flightrec::write_postmortem("test")) std::exit(1);
  });
  const JsonValue doc = json_parse_file(path);
  std::remove(path.c_str());
  const JsonValue* self = dumping_thread(doc);
  ASSERT_NE(self, nullptr);
  EXPECT_EQ(self->number_or("span_depth", -1.0), 0.0);
  EXPECT_TRUE(self->at("active_spans").as_array().empty());
  EXPECT_TRUE(self->at("records").as_array().empty());
}

TEST(FlightRecTest, PoolWorkersAreNamed) {
  // A worker names itself (ring + OS) before it runs any index, and region
  // completion synchronizes with the caller, so once a foreign thread id
  // shows up in the body its name is safely readable here.  The calling
  // thread participates too, so retry until a pool thread claims an index.
  const std::uint32_t self = flightrec::thread_id();
  std::atomic<std::uint32_t> worker{flightrec::kOverflowThreadId};
  for (int attempt = 0;
       attempt < 10 && worker.load() == flightrec::kOverflowThreadId;
       ++attempt) {
    parallel::parallel_for_indexed(
        64,
        [&](std::size_t) {
          // Give the pool threads time to wake and claim indices — with an
          // empty body the caller drains the whole region before the
          // condition-variable wakeup lands.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          const std::uint32_t id = flightrec::thread_id();
          if (id != self && id != flightrec::kOverflowThreadId) {
            worker.store(id, std::memory_order_relaxed);
          }
        },
        4);
  }
  const std::uint32_t id = worker.load();
  ASSERT_NE(id, flightrec::kOverflowThreadId) << "no pool thread ran an index";
  EXPECT_EQ(std::string(flightrec::thread_name(id)).rfind("uld3d-wk", 0), 0u);
}

TEST(FlightRecTest, PostmortemJoinsTheRunId) {
  RunContext ctx;
  ctx.run_id = "flightrec-test-run";
  set_current_run_context(ctx);
  const JsonValue doc = dump_and_parse("runid");
  EXPECT_EQ(doc.string_or("run", ""), "flightrec-test-run");
  set_current_run_context(RunContext{});
}

}  // namespace
}  // namespace uld3d
