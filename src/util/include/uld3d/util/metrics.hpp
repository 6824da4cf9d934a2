// Process-wide metrics registry: named counters and gauges, cheap enough
// for inner loops and safe to update from multiple threads.  Timed
// intervals are TraceSpan's job (util/trace.hpp); a stage-kind span folds
// its durations into `stage.<name>.*` counters here.
//
// Instrumentation sites obtain a handle once (a registry lookup under a
// mutex) and then update it lock-free:
//
//   Counter& points = MetricsRegistry::instance().counter("dse.sweep.points");
//   for (...) { points.add(); ... }
//
// The whole subsystem is *disabled by default*: every update first performs
// a single relaxed atomic-bool load (`metrics_enabled()`) and returns, so an
// uninstrumented-feeling hot path costs one predictable branch.
// `MetricsRegistry::set_enabled` (or the CLI's `--metrics`/`--profile`
// flags) turns recording on.
//
// Exporters: `to_table()` renders a util/table summary, `to_json()` a flat
// metrics JSON document, `to_csv()` an RFC-4180-ish CSV; `write_file()`
// picks JSON or CSV from the file extension.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "uld3d/util/export.hpp"  // re-exports json_escape (its home moved there)
#include "uld3d/util/table.hpp"

namespace uld3d {

namespace metrics_detail {
extern std::atomic<bool> g_enabled;
}  // namespace metrics_detail

/// True when metric updates are recorded.  One relaxed load; safe to call
/// from any thread and from inner loops.
inline bool metrics_enabled() {
  return metrics_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonically increasing event count (points evaluated, candidates
/// pruned, points failed, ...).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (best cost so far, points/sec, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

enum class MetricKind { kCounter, kGauge };

[[nodiscard]] const char* metric_kind_name(MetricKind kind);

/// One exported data point of `snapshot()`.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

/// The process-wide registry.  Series are registered on first lookup and
/// live for the process lifetime, so handles stay valid forever.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  static void set_enabled(bool enabled) {
    metrics_detail::g_enabled.store(enabled, std::memory_order_relaxed);
  }

  /// Find-or-create; a name is permanently bound to its first kind
  /// (looking it up as a different kind throws PreconditionError).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Zero every value; registered series survive.
  void reset_values();

  /// Consistent-enough view for exporting (each series is read atomically;
  /// the set of series is read under the registry mutex).  Sorted by name.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  [[nodiscard]] Table to_table() const;
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_csv() const;

  /// Write JSON when `path` ends in ".json", CSV otherwise.  Returns false
  /// (and logs a warning) when the file cannot be opened.
  bool write_file(const std::string& path) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

// json_escape used to be declared here; it now lives in util/export.hpp
// (included above), next to csv_escape, so there is a single escaping home.
// Existing `#include "uld3d/util/metrics.hpp"` users keep compiling.

}  // namespace uld3d
