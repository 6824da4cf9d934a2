#include "uld3d/util/metrics.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "uld3d/util/check.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/log.hpp"
#include "uld3d/util/telemetry.hpp"

namespace uld3d {

namespace metrics_detail {
std::atomic<bool> g_enabled{false};
}  // namespace metrics_detail

namespace {

/// Format a double for JSON/CSV: plain integers stay integral, everything
/// else gets enough digits to round-trip the interesting range.
std::string format_number(double value) {
  std::ostringstream os;
  os << std::setprecision(12) << value;
  return os.str();
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
  }
  return "?";
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  expects(!name.empty(), "metric name required");
  std::lock_guard<std::mutex> lock(mutex_);
  expects(gauges_.count(name) == 0,
          "metric already registered with a different kind: " + name);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  expects(!name.empty(), "metric name required");
  std::lock_guard<std::mutex> lock(mutex_);
  expects(counters_.count(name) == 0,
          "metric already registered with a different kind: " + name);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricKind::kCounter;
    s.value = static_cast<double>(c->value());
    samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricKind::kGauge;
    s.value = g->value();
    samples.push_back(std::move(s));
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

Table MetricsRegistry::to_table() const {
  Table table({"Metric", "Kind", "Value"});
  for (const auto& s : snapshot()) {
    table.add_row({s.name, metric_kind_name(s.kind), format_number(s.value)});
  }
  return table;
}

std::string MetricsRegistry::to_json() const {
  // The run label joins this document with the matching telemetry events
  // and trace file (an empty string when no run context was set).
  const RunContext run = current_run_context();
  std::ostringstream os;
  os << "{\n  \"run_id\": \"" << json_escape(run.run_id)
     << "\",\n  \"metrics\": [";
  bool first = true;
  for (const auto& s : snapshot()) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\": \"" << json_escape(s.name) << "\", \"kind\": \""
       << metric_kind_name(s.kind)
       << "\", \"value\": " << format_number(s.value) << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string MetricsRegistry::to_csv() const {
  Table table({"name", "kind", "value"});
  for (const auto& s : snapshot()) {
    table.add_row({s.name, metric_kind_name(s.kind), format_number(s.value)});
  }
  return table.to_csv();
}

bool MetricsRegistry::write_file(const std::string& path) const {
  expects(!path.empty(), "metrics output path required");
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return write_file_atomic(path, json ? to_json() : to_csv());
}

}  // namespace uld3d
