// Checkpoint/restart for design-space sweeps — the state that lets
// `run_sweep` (SweepOptions::checkpoint_path, resume) continue an
// interrupted sweep instead of starting over.
//
// `SweepCheckpoint` is the versioned on-disk sweep state: a
// completed-point bitmap over the flattened grid index space, the
// serialized `SweepRow`s (including FAILED rows, so
// ErrorPolicy::kSkipAndRecord / failure_summary() semantics survive a
// resume boundary), and an FNV-1a provenance fingerprint of the grid spec +
// metric names + caller config.  Saved atomically (write-temp-then-rename,
// util/checkpoint.hpp) so a kill mid-write never corrupts state;
// `load_checkpoint` re-validates the bitmap against the row list so a torn
// or hand-edited file is refused, and `validate_checkpoint` refuses a
// checkpoint whose fingerprint does not match the grid it is being resumed
// against.  `run_sweep` loads it on resume (completed points are NOT
// re-evaluated) and flushes it every `checkpoint_interval` completed
// points, on any exception, and on the interrupt flag (SIGINT/SIGTERM via
// util/checkpoint.hpp), in which case it throws `SweepInterrupted` — the
// CLI maps that to the distinct "interrupted, resumable" exit code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "uld3d/dse/sweep.hpp"

namespace uld3d::dse {

/// Bumped when the on-disk layout changes; older files are refused.
inline constexpr int kCheckpointSchemaVersion = 2;

/// FNV-1a provenance fingerprint of the sweep identity: axis names +
/// values (exact, 17-significant-digit rendering), metric names, and the
/// caller's `config_hash` (e.g. fnv1a_hex of the study config file +
/// network name).  A checkpoint records this and is refused against any
/// grid/config whose fingerprint differs.
[[nodiscard]] std::string sweep_fingerprint(
    const Grid& grid, const std::vector<std::string>& metric_names,
    const std::string& config_hash);

/// In-memory image of the on-disk sweep state.
struct SweepCheckpoint {
  int schema_version = kCheckpointSchemaVersion;
  std::string fingerprint;  ///< sweep_fingerprint() of the producing run
  /// RunId of the most recent writer (util/telemetry); joins the checkpoint
  /// with that run's events/metrics/trace.  Informational only — resume
  /// accepts any run_id (a resumed sweep is a new run by design).
  std::string run_id;
  std::size_t grid_size = 0;
  std::vector<std::string> param_names;
  std::vector<std::string> metric_names;
  /// Bit g set iff grid point g has been evaluated.
  std::vector<bool> completed;
  /// One row per set bit, ascending grid_index.  Doubles round-trip
  /// bit-exactly through the file, so resumed rows equal recomputed ones.
  std::vector<SweepRow> rows;

  [[nodiscard]] std::size_t completed_count() const;

  /// Render as the versioned JSON document (schema in DESIGN.md §13).
  [[nodiscard]] std::string to_json() const;
};

/// Serialize + atomically write `checkpoint` to `path`.  Throws
/// StatusError(kInternal) when the file cannot be written.
void save_checkpoint(const SweepCheckpoint& checkpoint,
                     const std::string& path);

/// Parse `path` and enforce internal consistency: schema version, bitmap
/// length, bitmap popcount == row count, every row's bit set, rows
/// ascending and inside the grid, row widths matching the names.
/// Throws JsonParseError on unreadable/malformed JSON and
/// StatusError(kInvalidConfig) on a structurally inconsistent document (a
/// torn or tampered file).
[[nodiscard]] SweepCheckpoint load_checkpoint(const std::string& path);

/// Refuse `checkpoint` unless it matches the sweep about to run: same
/// fingerprint (grid spec + metrics + config) and same grid size.  Throws
/// StatusError(kInvalidConfig) naming the mismatch.
void validate_checkpoint(const SweepCheckpoint& checkpoint,
                         std::size_t grid_size,
                         const std::string& fingerprint);

}  // namespace uld3d::dse
