// Design-space sweep engine: Cartesian parameter grids, metric evaluation,
// Pareto-front extraction, and tabular export.  Used by the benchmark
// harnesses and the design_space_explorer example; model-agnostic (the
// evaluation callback closes over whatever chip/workload objects it needs).
//
// Fault tolerance: under the default ErrorPolicy::kSkipAndRecord a design
// point whose evaluation throws (or returns a non-finite metric) becomes a
// *failed* SweepRow carrying a structured Failure instead of aborting the
// whole sweep; `pareto_front`/`best` ignore failed rows and
// `failure_summary()` reports them.  ErrorPolicy::kFailFast rethrows at the
// first bad point (the pre-diagnostics behaviour).
//
// `run_sweep` is the one sweep runner and always covers the whole grid:
// checkpoint/resume (uld3d/dse/checkpoint.hpp holds the file format) is an
// option of the same code path, not a second loop.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "uld3d/util/status.hpp"
#include "uld3d/util/table.hpp"

namespace uld3d::dse {

/// One swept parameter and its values.
struct Axis {
  std::string name;
  std::vector<double> values;
};

/// A Cartesian grid over named axes.
class Grid {
 public:
  /// Append an axis; returns *this for chaining.
  Grid& axis(std::string name, std::vector<double> values);

  [[nodiscard]] std::size_t axis_count() const { return axes_.size(); }
  /// Product of axis lengths; throws StatusError(kInvalidArgument) naming
  /// the offending axis when the product overflows std::size_t.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::vector<Axis>& axes() const { return axes_; }

  /// The `index`-th grid point (row-major over axes in insertion order).
  [[nodiscard]] std::vector<double> point(std::size_t index) const;

 private:
  std::vector<Axis> axes_;
};

/// What a sweep does when evaluating one design point fails.
enum class ErrorPolicy {
  kFailFast,       ///< rethrow: one bad point aborts the sweep
  kSkipAndRecord,  ///< record a failed row and continue (default)
};

struct SweepOptions {
  ErrorPolicy policy = ErrorPolicy::kSkipAndRecord;
  /// Worker threads evaluating points (0 = the global parallel::jobs()).
  /// Any jobs count yields bit-identical rows; kFailFast still rethrows
  /// the first failure in INDEX order (later points may have been
  /// speculatively evaluated before cancellation).
  int jobs = 0;
  /// Caller config fingerprint folded into sweep_fingerprint(): labels the
  /// sweep_start telemetry event and the checkpoint, so a checkpoint from a
  /// different study config is refused on resume.
  std::string config_hash = {};
  /// Canonical EVALUATION key of one grid point — sweep-point deduplication.
  /// Points with equal keys are certified by the caller to evaluate
  /// identically (e.g. an axis like a thermal budget that the evaluator
  /// never reads), so the runner evaluates only the lowest-grid-index
  /// representative of each key class still to do this run, and fills its
  /// aliases (own params and grid_index, the representative's
  /// metrics/failure) in the same work item.  The key must cover EVERY
  /// input the evaluator reads; rows are then bit-identical to a run
  /// without a key, across any interrupt/resume schedule.  nullptr (the
  /// default) evaluates every point.  Counters: "dse.sweep.dedup_unique" /
  /// "dse.sweep.dedup_aliased".
  std::function<std::string(const std::vector<double>&)> point_key = {};
  /// Checkpoint file; "" (the default) never flushes.
  std::string checkpoint_path = {};
  /// Load an existing checkpoint_path instead of starting fresh.  When
  /// false and the file exists, the runner refuses to overwrite it
  /// (StatusError(kInvalidConfig)) — silently clobbering completed work is
  /// never the right default.
  bool resume = false;
  /// Flush the checkpoint after this many newly completed points (and
  /// always at the end, and on interrupt/exception).
  std::size_t checkpoint_interval = 64;
};

/// Thrown when the interrupt flag (util/checkpoint.hpp) stops a sweep.  A
/// checkpointed sweep has already flushed its partial state; re-running
/// with resume enabled continues where this run stopped.
class SweepInterrupted : public Error {
 public:
  SweepInterrupted(std::size_t completed, std::size_t total);

  [[nodiscard]] std::size_t completed() const { return completed_; }
  [[nodiscard]] std::size_t total() const { return total_; }

 private:
  std::size_t completed_ = 0;
  std::size_t total_ = 0;
};

/// One evaluated design point.  Failed rows keep their params, carry NaN
/// metrics, and record why they failed.
struct SweepRow {
  std::vector<double> params;   ///< one value per axis
  std::vector<double> metrics;  ///< one value per metric (NaN when failed)
  std::optional<Failure> failure;  ///< set iff evaluation failed
  /// Position in the flattened grid index space; reports
  /// (failure_summary) label points by it, so labels stay stable across a
  /// resume boundary.
  std::size_t grid_index = 0;

  [[nodiscard]] bool ok() const { return !failure.has_value(); }
};

/// All evaluated points of a sweep.
class SweepResult {
 public:
  SweepResult(std::vector<std::string> param_names,
              std::vector<std::string> metric_names,
              std::vector<SweepRow> rows);

  [[nodiscard]] const std::vector<SweepRow>& rows() const { return rows_; }
  [[nodiscard]] const std::vector<std::string>& param_names() const {
    return param_names_;
  }
  [[nodiscard]] const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }

  /// Column index of a metric; throws for unknown names.
  [[nodiscard]] std::size_t metric_index(const std::string& name) const;

  [[nodiscard]] std::size_t ok_count() const;
  [[nodiscard]] std::size_t failed_count() const;
  [[nodiscard]] std::vector<std::size_t> failed_rows() const;

  /// Indices of *feasible* rows on the Pareto front that MAXIMIZES
  /// `benefit_metric` while MINIMIZING `cost_metric`, sorted by ascending
  /// cost.  Failed rows never appear on the front.
  [[nodiscard]] std::vector<std::size_t> pareto_front(
      const std::string& benefit_metric, const std::string& cost_metric) const;

  /// Row index with the best (largest) value of `metric` among feasible
  /// rows; throws StatusError(kInfeasiblePoint) when every row failed.
  [[nodiscard]] std::size_t best(const std::string& metric) const;

  /// Render as a uld3d::Table (params, metrics, then a status column;
  /// failed rows show "-" metrics and their error code).
  [[nodiscard]] Table to_table(int digits = 2) const;

  /// Human-readable report of the failed points: a header with counts and
  /// one line per failed row with its parameters and reason.  Empty string
  /// when every point succeeded.
  [[nodiscard]] std::string failure_summary() const;

 private:
  std::vector<std::string> param_names_;
  std::vector<std::string> metric_names_;
  std::vector<SweepRow> rows_;
  /// Precomputed in the constructor (rows_ is immutable afterwards) so the
  /// report/export paths over million-row sweeps are not accidentally
  /// quadratic: metric_index was a linear name scan per call and
  /// pareto_front/failed_rows re-filtered every row per call.
  std::unordered_map<std::string, std::size_t> metric_index_;
  std::vector<std::size_t> ok_rows_;      ///< indices of ok rows, ascending
  std::vector<std::size_t> failed_rows_;  ///< indices of failed rows, ascending
};

/// Evaluate `metrics(point)` at every grid point.
/// The callback returns one value per metric name (checked; a mismatch is
/// an evaluator bug and always throws regardless of policy).  An empty
/// grid yields an empty SweepResult with the metric names intact.
/// Per-point behaviour on failure follows `options.policy`.
///
/// The result holds one row per grid point, ascending by grid_index, and is
/// bit-identical — rows, failure_summary(), table output — to an
/// uncheckpointed run at any jobs count, whether or not the run was
/// interrupted and resumed in between.  With a checkpoint_path, completed points are
/// loaded from the file and not re-evaluated.  Throws SweepInterrupted
/// when stopped by the interrupt flag.
[[nodiscard]] SweepResult run_sweep(
    const Grid& grid, const std::vector<std::string>& metric_names,
    const std::function<std::vector<double>(const std::vector<double>&)>&
        evaluate,
    const SweepOptions& options = {});

}  // namespace uld3d::dse
