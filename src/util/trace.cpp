#include "uld3d/util/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "uld3d/util/check.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/log.hpp"
#include "uld3d/util/provenance.hpp"  // peak_rss_kb
#include "uld3d/util/resource.hpp"

namespace uld3d {

namespace trace_detail {
std::atomic<bool> g_enabled{false};
}  // namespace trace_detail

namespace {

std::string format_us(double us) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << us;
  return os.str();
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::set_enabled(bool enabled) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (enabled && events_.empty()) {
      epoch_ = std::chrono::steady_clock::now();
    }
  }
  trace_detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

void TraceRecorder::configure_from_env() {
  const char* path = std::getenv("ULD3D_TRACE");
  if (path == nullptr || *path == '\0') return;
  env_path_ = path;
  set_enabled(true);
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  expects(capacity >= 1, "trace capacity must be >= 1");
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
}

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceRecorder::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    // Surface the drop in the metrics export too — a truncated trace that
    // only said so in a private counter was effectively silent.
    MetricsRegistry::instance().counter("trace.dropped_events").add();
    return;
  }
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

std::string TraceRecorder::to_chrome_json() const {
  const std::vector<TraceEvent> events = this->events();
  const std::uint64_t dropped = this->dropped();
  const RunContext run = current_run_context();
  std::ostringstream os;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {"
     << "\"run_id\": \"" << json_escape(run.run_id)
     << "\", \"dropped_events\": " << dropped
     << "},\n  \"traceEvents\": [";
  bool first = true;
  // Metadata events first: a process name plus one thread_name per flight-
  // recorder slot that has one, so Perfetto shows "uld3d-wk3" instead of a
  // raw tid.  Trace tids ARE flight-recorder thread ids (see TraceSpan).
  os << "\n    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
     << "\"args\": {\"name\": \"uld3d\"}}";
  first = false;
  for (std::uint32_t tid = 0; tid < flightrec::thread_count(); ++tid) {
    const char* tname = flightrec::thread_name(tid);
    if (*tname == '\0') continue;
    os << ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
       << "\"tid\": " << tid << ", \"args\": {\"name\": \""
       << json_escape(tname) << "\"}}";
  }
  for (const auto& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
       << json_escape(e.category) << "\", \"ph\": \"X\", \"ts\": "
       << format_us(e.ts_us) << ", \"dur\": " << format_us(e.dur_us)
       << ", \"pid\": 1, \"tid\": " << e.tid << ", \"args\": {\"cpu_us\": "
       << format_us(e.cpu_us) << ", \"alloc_bytes\": " << e.alloc_bytes
       << "}}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  expects(!path.empty(), "trace output path required");
  const std::uint64_t dropped = this->dropped();
  if (dropped > 0) {
    log_warning("trace buffer overflowed: " + std::to_string(dropped) +
                " event(s) dropped — the written trace is truncated "
                "(raise TraceRecorder::set_capacity)");
  }
  return write_file_atomic(path, to_chrome_json());
}

Table TraceRecorder::summary_table() const {
  const std::vector<TraceEvent> events = this->events();

  struct Agg {
    std::uint64_t calls = 0;
    double total_us = 0.0;
    double max_us = 0.0;
    double cpu_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  double window_begin = std::numeric_limits<double>::infinity();
  double window_end = -std::numeric_limits<double>::infinity();
  for (const auto& e : events) {
    Agg& a = by_name[e.name];
    a.calls += 1;
    a.total_us += e.dur_us;
    a.max_us = std::max(a.max_us, e.dur_us);
    a.cpu_us += e.cpu_us;
    window_begin = std::min(window_begin, e.ts_us);
    window_end = std::max(window_end, e.ts_us + e.dur_us);
  }
  const double window_us = events.empty() ? 0.0 : window_end - window_begin;

  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });

  Table table(
      {"Span", "Calls", "Total ms", "Mean ms", "Max ms", "CPU ms", "% wall"});
  for (const auto& [name, a] : rows) {
    const double total_ms = a.total_us / 1000.0;
    const double mean_ms = total_ms / static_cast<double>(a.calls);
    const double share =
        window_us > 0.0 ? 100.0 * a.total_us / window_us : 0.0;
    table.add_row({name, std::to_string(a.calls), format_double(total_ms, 3),
                   format_double(mean_ms, 3), format_double(a.max_us / 1000.0, 3),
                   format_double(a.cpu_us / 1000.0, 3), format_double(share, 1)});
  }
  return table;
}

void TraceSpan::begin(std::string_view name, std::string_view category) {
  if ((sinks_ & kToRing) != 0) flightrec::span_begin(name);
  if ((sinks_ & (kToTrace | kToStage)) == 0) return;
  Start& start = start_.emplace();
  start.name.assign(name);
  if ((sinks_ & kToTrace) != 0) start.category.assign(category);
  start.us = TraceRecorder::instance().now_us();
  start.cpu_us = thread_cpu_time_us();
  start.alloc_bytes = thread_alloc_bytes();
}

void TraceSpan::finish() {
  if (start_.has_value()) {
    // One end sample feeds every sink.  A span that was open when its sink
    // was switched off still reports: its timestamps are valid, and
    // dropping it would truncate the outermost scopes.
    Start& start = *start_;
    TraceRecorder& recorder = TraceRecorder::instance();
    const double dur_us = recorder.now_us() - start.us;
    const double cpu_us = thread_cpu_time_us() - start.cpu_us;
    const std::uint64_t alloc_bytes = thread_alloc_bytes() - start.alloc_bytes;
    if ((sinks_ & kToStage) != 0) {
      // RSS high-water is a process-wide monotone; the stage reports where
      // it stood at stage end, not a delta (deltas of a high-water mislead).
      const ResourceSample resources{cpu_us, alloc_bytes, peak_rss_kb()};
      EventSink::instance().emit_stage(start.name, dur_us, resources);
      record_stage_metrics(start.name, dur_us, resources);
    }
    if ((sinks_ & kToTrace) != 0) {
      TraceEvent event;
      event.name = std::move(start.name);
      event.category = std::move(start.category);
      event.ts_us = start.us;
      event.dur_us = dur_us;
      // Trace tids are flight-recorder thread ids, so the Chrome trace, the
      // thread_name metadata, and the postmortem dump agree on identity.
      event.tid = flightrec::thread_id();
      event.cpu_us = cpu_us;
      event.alloc_bytes = alloc_bytes;
      recorder.record(std::move(event));
    }
  }
  if ((sinks_ & kToRing) != 0) flightrec::span_end();
}

}  // namespace uld3d
