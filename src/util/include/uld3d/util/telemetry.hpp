// Streaming run telemetry: an NDJSON event bus plus the run identity that
// labels every artifact a run produces.
//
// Two pieces:
//
//  * `RunContext` — the run's identity: a RunId (provenance hash + a
//    process-local counter, no randomness).  Set once near main() via
//    `set_current_run_context`; the metrics JSON exporter, the Chrome trace
//    exporter, the sweep checkpoint writer, the postmortem dump and every
//    telemetry event read it back so artifacts from one run join on the
//    same label.
//
//  * `EventSink` — a process-wide, thread-safe appender of schema-versioned
//    NDJSON events (`run_start`, `sweep_start`, `point_done`,
//    `checkpoint_flush`, `stage`, `run_end`) to a file.  Disabled by
//    default with the same single-relaxed-atomic-bool gate as util/metrics:
//    every emit site pays one predictable branch when telemetry is off.
//    Writes are buffered and flushed on checkpoint boundaries, on
//    `close()`, and whenever the buffer grows large; a killed process
//    therefore leaves a *parseable prefix* (whole lines only) behind — the
//    stream is append-only, never rewritten, so crash semantics are
//    "everything up to the last flush".  `ULD3D_EVENTS=FILE` mirrors the
//    CLI's `--events FILE`.
//
// Event schema (DESIGN.md §14): every line is one JSON object
//   {"schema": 1, "ev": "<type>", "run": "<run_id>",
//    "ts_ms": <unix milliseconds>, ...type-specific fields...}
// Streams written before sharding was retired also carry a "shard": "i/N"
// label on every line and `shard_info` events, and streams written before
// the live progress display was retired carry `progress` events; readers
// ignore all three.
// Doubles are rendered with 17 significant digits so payloads (sweep params
// and metrics) round-trip bit-exactly — `uld3d-report --canon` relies on
// this to compare event streams from different jobs counts byte-for-byte.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "uld3d/util/resource.hpp"  // ResourceSample (stage attribution)

namespace uld3d {

struct Provenance;  // uld3d/util/provenance.hpp

/// Bumped when the event line layout changes; uld3d-report refuses newer.
inline constexpr int kTelemetrySchemaVersion = 1;

namespace telemetry_detail {
extern std::atomic<bool> g_enabled;
}  // namespace telemetry_detail

/// True when an events file is open and emitting.  One relaxed load — the
/// whole cost of a disabled emit site is this branch.
inline bool telemetry_enabled() {
  return telemetry_detail::g_enabled.load(std::memory_order_relaxed);
}

/// The identity of one run (one process invocation).
struct RunContext {
  /// fnv1a hex of the run's provenance identity plus a process-local
  /// counter ("<hash>-<n>"): unique across machines and across runs on one
  /// machine without any randomness.  Empty = no context set.
  std::string run_id;
};

/// Build a RunContext from the process provenance (git SHA, hostname,
/// timestamp, pid) and a monotonically increasing counter.  Random-free by
/// construction so repeated calls are distinct but reproducible in tests.
[[nodiscard]] RunContext make_run_context();

/// The process-wide current run context (empty run_id until set).  Set it
/// once near main(), before spawning sweep workers; reads are cheap copies
/// under a mutex and safe from any thread.
void set_current_run_context(const RunContext& context);
[[nodiscard]] RunContext current_run_context();

/// One failed point's structured failure, flattened for the event payload.
struct EventFailure {
  std::string code;     ///< error_code_name(), e.g. "kInfeasiblePoint"
  std::string message;
  std::vector<std::pair<std::string, std::string>> context;
};

/// Process-wide NDJSON event appender.  All emitters are safe to call from
/// any thread; line assembly happens off-lock and the append is one
/// mutex-guarded buffer write.
class EventSink {
 public:
  static EventSink& instance();

  static bool enabled() { return telemetry_enabled(); }

  /// Open `path` for appending (the resume flow re-opens the same file and
  /// the canon analyzer unions the runs) and enable emission.  Returns
  /// false and logs a warning when the file cannot be opened.
  bool open(const std::string& path);

  /// Reads ULD3D_EVENTS; a non-empty value opens that file.  Mirrors
  /// TraceRecorder::configure_from_env for script-launched runs.
  void configure_from_env();
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Flush buffered lines to the file; `sync` additionally fsyncs so the
  /// lines survive a SIGKILL (used on checkpoint boundaries: a point that
  /// made it into a checkpoint always has its point_done event on disk).
  void flush(bool sync = false);

  /// Flush + fsync + close + disable.  Idempotent.
  void close();

  /// Events emitted (accepted) since open.
  [[nodiscard]] std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

  // --- typed emitters -----------------------------------------------------
  // Each is one predicted branch when the sink is disabled; argument
  // construction at call sites must be guarded by the caller when it is not
  // free (same discipline as TraceSpan's string copies).

  void emit_run_start(const Provenance& provenance,
                      const std::string& command) {
    if (!enabled()) return;
    run_start_impl(provenance, command);
  }

  void emit_run_end(const std::string& status, int exit_code) {
    if (!enabled()) return;
    run_end_impl(status, exit_code);
  }

  void emit_sweep_start(const std::string& fingerprint, std::size_t grid_size,
                        const std::vector<std::string>& param_names,
                        const std::vector<std::string>& metric_names,
                        int jobs) {
    if (!enabled()) return;
    sweep_start_impl(fingerprint, grid_size, param_names, metric_names, jobs);
  }

  /// `failure == nullptr` means the point succeeded; failed points carry
  /// the full structured Failure (the complete SweepRow payload).
  void emit_point_done(std::size_t grid_index,
                       const std::vector<double>& params,
                       const std::vector<double>& metrics,
                       const EventFailure* failure, double dur_us) {
    if (!enabled()) return;
    point_done_impl(grid_index, params, metrics, failure, dur_us);
  }

  void emit_checkpoint_flush(std::size_t completed, std::size_t total,
                             const std::string& path) {
    if (!enabled()) return;
    checkpoint_flush_impl(completed, total, path);
  }

  /// A named pipeline stage completed (mapper search, phys flow stages,
  /// sensitivity analysis) — the coarse time breakdown uld3d-report shows.
  /// Takes a string_view so a disabled emit never constructs a std::string
  /// from a literal at the call site (bench_perf_kernels gates this cost).
  void emit_stage(std::string_view name, double dur_us) {
    if (!enabled()) return;
    stage_impl(name, dur_us, nullptr);
  }

  /// Stage completion with resource attribution: `resources` carries the
  /// executing thread's CPU/alloc deltas and the process RSS high-water at
  /// stage end (util/resource.hpp), adding cpu_us/alloc_bytes/rss_kb fields
  /// to the stage event.  Additive — schema stays 1, and stage events are
  /// outside the canonical projection, so determinism checks are unaffected.
  void emit_stage(std::string_view name, double dur_us,
                  const ResourceSample& resources) {
    if (!enabled()) return;
    stage_impl(name, dur_us, &resources);
  }

 private:
  EventSink() = default;

  void run_start_impl(const Provenance& provenance,
                      const std::string& command);
  void run_end_impl(const std::string& status, int exit_code);
  void sweep_start_impl(const std::string& fingerprint, std::size_t grid_size,
                        const std::vector<std::string>& param_names,
                        const std::vector<std::string>& metric_names,
                        int jobs);
  void point_done_impl(std::size_t grid_index,
                       const std::vector<double>& params,
                       const std::vector<double>& metrics,
                       const EventFailure* failure, double dur_us);
  void checkpoint_flush_impl(std::size_t completed, std::size_t total,
                             const std::string& path);
  void stage_impl(std::string_view name, double dur_us,
                  const ResourceSample* resources);

  /// Append one complete, newline-terminated line to the buffer.
  void append_line(std::string line);

  std::mutex mutex_;
  int fd_ = -1;
  std::string path_;
  std::string buffer_;
  std::atomic<std::uint64_t> emitted_{0};
};

/// Fold one completed stage into the metrics registry as
/// `stage.<name>.calls/.wall_us/.cpu_us/.alloc_bytes` counters plus a
/// `stage.<name>.rss_hwm_kb` gauge.  No-op when metrics are disabled.
/// A stage-kind TraceSpan (util/trace.hpp) calls it at scope end.
void record_stage_metrics(std::string_view name, double dur_us,
                          const ResourceSample& resources);

}  // namespace uld3d
