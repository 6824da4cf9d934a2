// Timed intervals: `TraceSpan`, the one RAII span the library times a scope
// with, and the Chrome trace_event recorder it feeds.
//
// A span feeds each observability sink that is armed when it opens:
//  - the trace recorder (`--trace`, `ULD3D_TRACE`, `--profile`): one
//    complete event into a bounded buffer, exported as Chrome `trace_event`
//    JSON (chrome://tracing, https://ui.perfetto.dev) or aggregated per name
//    by `summary_table()`;
//  - the flight-recorder ring (util/flightrec.hpp), once install_postmortem
//    has run: a begin/end record pair;
//  - a *stage* span alone — one of the coarse pipeline stages — also feeds
//    the `stage` event (util/telemetry.hpp, when an events file is open) and
//    the `stage.<name>.*` metrics (when metrics are enabled).
// Spans nest naturally because inner scopes close first.
//
//   TraceSpan sweep("dse.sweep", "dse", TraceSpan::kStage);
//   for (...) { TraceSpan point("dse.sweep.point", "dse"); evaluate(...); }
//   TraceRecorder::instance().write_chrome_trace("trace.json");
//
// With no sink armed a span costs a few relaxed atomic-bool loads and a
// branch — no ring write, no clock read, no string copy (bench_perf_kernels
// pins trace_span_disabled_ns_per_op).  The trace buffer is bounded
// (`set_capacity`), dropping and counting further events rather than
// growing without limit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "uld3d/util/flightrec.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/table.hpp"
#include "uld3d/util/telemetry.hpp"

namespace uld3d {

namespace trace_detail {
extern std::atomic<bool> g_enabled;
}  // namespace trace_detail

/// One completed span ("ph":"X" in the Chrome trace event format).
struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;   ///< start, microseconds since the recorder epoch
  double dur_us = 0.0;  ///< wall-clock duration in microseconds
  std::uint32_t tid = 0;
  double cpu_us = 0.0;  ///< executing thread's CPU time inside the span
  std::uint64_t alloc_bytes = 0;  ///< bytes requested via operator new
                                  ///< inside the span (0 unless
                                  ///< ULD3D_ALLOC_STATS is on)
};

/// Process-wide bounded buffer of completed spans.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  static bool enabled() {
    return trace_detail::g_enabled.load(std::memory_order_relaxed);
  }
  /// Enabling (re)anchors the epoch when the buffer is empty.
  void set_enabled(bool enabled);

  /// Reads ULD3D_TRACE; a non-empty value enables recording and is
  /// remembered as `env_path()` so the CLI can write the file at exit.
  void configure_from_env();
  [[nodiscard]] const std::string& env_path() const { return env_path_; }

  /// Maximum buffered events; further events are dropped (and counted).
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the recorder epoch (steady clock).
  [[nodiscard]] double now_us() const;

  void record(TraceEvent event);

  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t event_count() const;
  void clear();  ///< drop all events and re-anchor the epoch

  /// Chrome trace_event JSON ("traceEvents" array of complete events).
  [[nodiscard]] std::string to_chrome_json() const;
  /// Returns false (and logs a warning) when the file cannot be opened.
  bool write_chrome_trace(const std::string& path) const;

  /// Aggregate by span name: calls, total/mean wall time, share of the
  /// traced wall window.  Sorted by descending total time.
  [[nodiscard]] Table summary_table() const;

 private:
  TraceRecorder();

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 1u << 20;
  std::atomic<std::uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_;
  std::string env_path_;
};

/// RAII span.  Which sinks it feeds is fixed when it opens; the name and
/// category are copied only for the trace and stage sinks, so passing
/// `layer.name()` in a hot loop is free while they are off.
class TraceSpan {
 public:
  /// A stage span is one of the pipeline stages the `stage` events and
  /// `stage.<name>.*` metrics report (DESIGN.md §14).  Each call site fixes
  /// its kind.
  enum Kind { kPlain, kStage };

  explicit TraceSpan(std::string_view name, std::string_view category = "uld3d",
                     Kind kind = kPlain)
      : sinks_((flightrec::postmortem_installed() ? kToRing : 0u) |
               (TraceRecorder::enabled() ? kToTrace : 0u) |
               (kind == kStage && (telemetry_enabled() || metrics_enabled())
                    ? kToStage
                    : 0u)) {
    if (sinks_ != 0) begin(name, category);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (sinks_ != 0) finish();
  }

 private:
  enum Sink : unsigned { kToRing = 1, kToTrace = 2, kToStage = 4 };

  /// The opening sample the trace and stage sinks time the span from.
  struct Start {
    std::string name;
    std::string category;
    double us = 0.0;
    double cpu_us = 0.0;
    std::uint64_t alloc_bytes = 0;
  };

  void begin(std::string_view name, std::string_view category);
  void finish();

  const unsigned sinks_;
  std::optional<Start> start_;  ///< engaged only for the trace/stage sinks
};

}  // namespace uld3d
