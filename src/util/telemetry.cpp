#include "uld3d/util/telemetry.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <sstream>
#include <unistd.h>

#include "uld3d/util/export.hpp"
#include "uld3d/util/log.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/provenance.hpp"

namespace uld3d {

namespace telemetry_detail {
std::atomic<bool> g_enabled{false};
}  // namespace telemetry_detail

namespace {

/// Flush threshold: large enough to amortize the write(2), small enough
/// that a SIGKILL loses at most a few dozen point_done lines (the
/// checkpoint flush path syncs explicitly anyway).
constexpr std::size_t kFlushBytes = 64 * 1024;

/// Exact, round-trippable double rendering — same contract as the sweep
/// checkpoint writer, so event payloads from different jobs counts (or a
/// resumed run) compare byte-identical after canonicalization.
std::string json_number_exact(double value) {
  if (std::isnan(value)) return "\"nan\"";
  if (std::isinf(value)) return value > 0 ? "\"inf\"" : "\"-inf\"";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

struct CurrentContext {
  std::mutex mutex;
  RunContext context;
};

CurrentContext& current_context_storage() {
  static CurrentContext storage;
  return storage;
}

/// Begin one event line: the fixed header every event type shares.
std::ostringstream event_head(const char* type, const RunContext& ctx) {
  std::ostringstream os;
  os << "{\"schema\": " << kTelemetrySchemaVersion << ", \"ev\": \"" << type
     << "\", \"run\": \"" << json_escape(ctx.run_id)
     << "\", \"ts_ms\": " << wall_clock_ms();
  return os;
}

void append_string_array(std::ostringstream& os, const char* member,
                         const std::vector<std::string>& values) {
  os << ", \"" << member << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << json_escape(values[i]) << "\"";
  }
  os << "]";
}

void append_number_array(std::ostringstream& os, const char* member,
                         const std::vector<double>& values) {
  os << ", \"" << member << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ", ";
    os << json_number_exact(values[i]);
  }
  os << "]";
}

}  // namespace

RunContext make_run_context() {
  // The identity folds in everything that distinguishes two runs without
  // randomness: machine + binary provenance + wall clock + pid, plus a
  // process-local counter so two contexts made in one process differ.
  static std::atomic<std::uint64_t> next{0};
  const Provenance p = capture_provenance();
  std::ostringstream identity;
  identity << p.git_sha << "\n" << p.hostname << "\n" << p.timestamp_utc
           << "\n" << p.unix_time_s << "\n" << ::getpid();
  RunContext ctx;
  ctx.run_id = fnv1a_hex(identity.str()) + "-" +
               std::to_string(next.fetch_add(1, std::memory_order_relaxed));
  return ctx;
}

void set_current_run_context(const RunContext& context) {
  CurrentContext& storage = current_context_storage();
  const std::lock_guard<std::mutex> lock(storage.mutex);
  storage.context = context;
}

RunContext current_run_context() {
  CurrentContext& storage = current_context_storage();
  const std::lock_guard<std::mutex> lock(storage.mutex);
  return storage.context;
}

EventSink& EventSink::instance() {
  static EventSink sink;
  return sink;
}

bool EventSink::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Append mode: a resumed run reopens the same file and the analyzer
  // unions the runs' events (re-evaluated points dedupe because their rows
  // are bit-identical).
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    log_warning("cannot open events file for append: " + path);
    return false;
  }
  fd_ = fd;
  path_ = path;
  buffer_.clear();
  // Per-run counter: run_end's events_emitted counts THIS run's events even
  // when a resumed process reopens the same file.
  emitted_.store(0, std::memory_order_relaxed);
  telemetry_detail::g_enabled.store(true, std::memory_order_relaxed);
  return true;
}

void EventSink::configure_from_env() {
  const char* path = std::getenv("ULD3D_EVENTS");
  if (path == nullptr || *path == '\0') return;
  open(path);
}

void EventSink::flush(bool sync) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  // Whole-buffer write: the buffer only ever holds complete lines, so a
  // reader of the file never sees a torn line from a *flushed* prefix (the
  // OS may still tear the final write on power loss; uld3d-report tolerates
  // one trailing partial line).
  const char* data = buffer_.data();
  std::size_t remaining = buffer_.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, data, remaining);
    if (n <= 0) {
      log_warning("short write to events file: " + path_);
      break;
    }
    data += n;
    remaining -= static_cast<std::size_t>(n);
  }
  buffer_.clear();
  if (sync) ::fsync(fd_);
}

void EventSink::close() {
  flush(true);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  telemetry_detail::g_enabled.store(false, std::memory_order_relaxed);
}

void EventSink::append_line(std::string line) {
  line.push_back('\n');
  bool needs_flush = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0) return;
    buffer_ += line;
    needs_flush = buffer_.size() >= kFlushBytes;
  }
  emitted_.fetch_add(1, std::memory_order_relaxed);
  if (needs_flush) flush(false);
}

void EventSink::run_start_impl(const Provenance& provenance,
                               const std::string& command) {
  std::ostringstream os = event_head("run_start", current_run_context());
  os << ", \"command\": \"" << json_escape(command)
     << "\", \"provenance\": {\"git_sha\": \""
     << json_escape(provenance.git_sha) << "\", \"compiler\": \""
     << json_escape(provenance.compiler) << "\", \"build_type\": \""
     << json_escape(provenance.build_type) << "\", \"hostname\": \""
     << json_escape(provenance.hostname) << "\", \"timestamp_utc\": \""
     << json_escape(provenance.timestamp_utc)
     << "\", \"jobs\": " << provenance.jobs
     << ", \"hardware_concurrency\": " << provenance.hardware_concurrency
     << "}}";
  append_line(os.str());
  // Make the stream's identity line durable immediately: if the process
  // later dies on a fatal signal, the postmortem's RunId must still join
  // against this file even though the buffered tail is lost.
  flush(false);
}

void EventSink::run_end_impl(const std::string& status, int exit_code) {
  std::ostringstream os = event_head("run_end", current_run_context());
  os << ", \"status\": \"" << json_escape(status)
     << "\", \"exit_code\": " << exit_code
     << ", \"events_emitted\": " << emitted() << "}";
  append_line(os.str());
  flush(true);
}

void EventSink::sweep_start_impl(const std::string& fingerprint,
                                 std::size_t grid_size,
                                 const std::vector<std::string>& param_names,
                                 const std::vector<std::string>& metric_names,
                                 int jobs) {
  std::ostringstream os = event_head("sweep_start", current_run_context());
  os << ", \"fingerprint\": \"" << json_escape(fingerprint)
     << "\", \"grid_size\": " << grid_size;
  append_string_array(os, "params", param_names);
  append_string_array(os, "metrics", metric_names);
  os << ", \"jobs\": " << jobs << "}";
  append_line(os.str());
}

void EventSink::point_done_impl(std::size_t grid_index,
                                const std::vector<double>& params,
                                const std::vector<double>& metrics,
                                const EventFailure* failure, double dur_us) {
  std::ostringstream os = event_head("point_done", current_run_context());
  os << ", \"index\": " << grid_index;
  append_number_array(os, "params", params);
  if (failure == nullptr) {
    os << ", \"status\": \"ok\"";
    append_number_array(os, "metrics", metrics);
    os << ", \"failure\": null";
  } else {
    // Failed rows carry all-NaN metrics by the sweep contract; only the
    // structured failure is informative (same shape as the checkpoint).
    os << ", \"status\": \"failed\", \"failure\": {\"code\": \""
       << json_escape(failure->code) << "\", \"message\": \""
       << json_escape(failure->message) << "\", \"context\": [";
    for (std::size_t c = 0; c < failure->context.size(); ++c) {
      if (c > 0) os << ", ";
      os << "[\"" << json_escape(failure->context[c].first) << "\", \""
         << json_escape(failure->context[c].second) << "\"]";
    }
    os << "]}";
  }
  os << ", \"dur_us\": " << json_number_exact(dur_us) << "}";
  append_line(os.str());
}

void EventSink::checkpoint_flush_impl(std::size_t completed,
                                      std::size_t total,
                                      const std::string& path) {
  std::ostringstream os =
      event_head("checkpoint_flush", current_run_context());
  os << ", \"completed\": " << completed << ", \"total\": " << total
     << ", \"checkpoint\": \"" << json_escape(path) << "\"}";
  append_line(os.str());
  // The sweep runner emits this BEFORE saving the checkpoint: syncing here
  // guarantees every row in the checkpoint has its point_done on disk.
  flush(true);
}

void EventSink::stage_impl(std::string_view name, double dur_us,
                           const ResourceSample* resources) {
  std::ostringstream os = event_head("stage", current_run_context());
  os << ", \"name\": \"" << json_escape(std::string(name))
     << "\", \"dur_us\": " << json_number_exact(dur_us);
  if (resources != nullptr) {
    os << ", \"cpu_us\": " << json_number_exact(resources->cpu_us)
       << ", \"alloc_bytes\": " << resources->alloc_bytes
       << ", \"rss_kb\": " << resources->rss_hwm_kb;
  }
  os << "}";
  append_line(os.str());
}

void record_stage_metrics(std::string_view name, double dur_us,
                          const ResourceSample& resources) {
  if (!metrics_enabled()) return;
  MetricsRegistry& reg = MetricsRegistry::instance();
  const std::string prefix = "stage." + std::string(name);
  reg.counter(prefix + ".calls").add();
  reg.counter(prefix + ".wall_us").add(static_cast<std::uint64_t>(dur_us));
  reg.counter(prefix + ".cpu_us")
      .add(static_cast<std::uint64_t>(resources.cpu_us > 0.0 ? resources.cpu_us
                                                             : 0.0));
  reg.counter(prefix + ".alloc_bytes").add(resources.alloc_bytes);
  reg.gauge(prefix + ".rss_hwm_kb")
      .set(static_cast<double>(resources.rss_hwm_kb));
}

}  // namespace uld3d
