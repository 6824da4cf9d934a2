#include "uld3d/dse/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>

#include "uld3d/dse/checkpoint.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/flightrec.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/telemetry.hpp"
#include "uld3d/util/trace.hpp"

namespace uld3d::dse {

Grid& Grid::axis(std::string name, std::vector<double> values) {
  expects(!values.empty(), "axis needs at least one value: " + name);
  for (const auto& existing : axes_) {
    expects(existing.name != name, "duplicate axis name: " + name);
  }
  axes_.push_back({std::move(name), std::move(values)});
  return *this;
}

std::size_t Grid::size() const {
  if (axes_.empty()) return 0;
  std::size_t n = 1;
  for (const auto& a : axes_) {
    const std::size_t len = a.values.size();
    if (n > std::numeric_limits<std::size_t>::max() / len) {
      throw StatusError(
          Failure(ErrorCode::kInvalidArgument,
                  "grid size overflows std::size_t")
              .with("axis", a.name));
    }
    n *= len;
  }
  return n;
}

std::vector<double> Grid::point(std::size_t index) const {
  expects(index < size(), "grid index out of range");
  std::vector<double> values(axes_.size());
  // Row-major: the LAST axis varies fastest.
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const auto& axis = axes_[a];
    values[a] = axis.values[index % axis.values.size()];
    index /= axis.values.size();
  }
  return values;
}

SweepResult::SweepResult(std::vector<std::string> param_names,
                         std::vector<std::string> metric_names,
                         std::vector<SweepRow> rows)
    : param_names_(std::move(param_names)),
      metric_names_(std::move(metric_names)),
      rows_(std::move(rows)) {
  metric_index_.reserve(metric_names_.size());
  for (std::size_t m = 0; m < metric_names_.size(); ++m) {
    metric_index_.emplace(metric_names_[m], m);
  }
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& row = rows_[i];
    expects(row.params.size() == param_names_.size(),
            "row parameter width mismatch");
    expects(row.metrics.size() == metric_names_.size(),
            "row metric width mismatch");
    (row.ok() ? ok_rows_ : failed_rows_).push_back(i);
  }
}

std::size_t SweepResult::metric_index(const std::string& name) const {
  const auto it = metric_index_.find(name);
  expects(it != metric_index_.end(), "unknown metric: " + name);
  return it->second;
}

std::size_t SweepResult::failed_count() const { return failed_rows_.size(); }

std::size_t SweepResult::ok_count() const { return ok_rows_.size(); }

std::vector<std::size_t> SweepResult::failed_rows() const {
  return failed_rows_;
}

std::vector<std::size_t> SweepResult::pareto_front(
    const std::string& benefit_metric, const std::string& cost_metric) const {
  const std::size_t bi = metric_index(benefit_metric);
  const std::size_t ci = metric_index(cost_metric);
  std::vector<std::size_t> order = ok_rows_;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rows_[a].metrics[ci] != rows_[b].metrics[ci]) {
      return rows_[a].metrics[ci] < rows_[b].metrics[ci];
    }
    return rows_[a].metrics[bi] > rows_[b].metrics[bi];
  });
  std::vector<std::size_t> front;
  double best_benefit = -1.0e300;
  for (const std::size_t i : order) {
    if (rows_[i].metrics[bi] > best_benefit) {
      best_benefit = rows_[i].metrics[bi];
      front.push_back(i);
    }
  }
  return front;
}

std::size_t SweepResult::best(const std::string& metric) const {
  expects(!rows_.empty(), "empty sweep has no best row");
  const std::size_t mi = metric_index(metric);
  std::size_t best_row = rows_.size();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (!rows_[i].ok()) continue;
    if (best_row == rows_.size() ||
        rows_[i].metrics[mi] > rows_[best_row].metrics[mi]) {
      best_row = i;
    }
  }
  if (best_row == rows_.size()) {
    throw StatusError(
        Failure(ErrorCode::kInfeasiblePoint,
                "every design point in the sweep failed; no best row")
            .with("failed", static_cast<std::int64_t>(failed_count())));
  }
  return best_row;
}

Table SweepResult::to_table(int digits) const {
  std::vector<std::string> headers = param_names_;
  headers.insert(headers.end(), metric_names_.begin(), metric_names_.end());
  headers.push_back("status");
  Table table(std::move(headers));
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.params.size() + row.metrics.size() + 1);
    for (const double v : row.params) cells.push_back(format_double(v, digits));
    for (const double v : row.metrics) {
      cells.push_back(row.ok() ? format_double(v, digits) : "-");
    }
    cells.push_back(row.ok() ? "ok" : error_code_name(row.failure->code));
    table.add_row(std::move(cells));
  }
  return table;
}

std::string SweepResult::failure_summary() const {
  const std::size_t failed = failed_count();
  if (failed == 0) return {};
  // A mostly-failed 10k-point sweep would otherwise build a multi-megabyte
  // string; the first few points carry all the diagnostic signal.
  constexpr std::size_t kMaxReported = 20;
  // Itemize in GRID-INDEX order, not row-storage order: a summary must not
  // depend on the order in which the rows were assembled.
  std::vector<std::size_t> order;
  order.reserve(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (!rows_[i].ok()) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rows_[a].grid_index < rows_[b].grid_index;
                   });
  std::ostringstream os;
  os << failed << " of " << rows_.size() << " design points failed:\n";
  std::size_t reported = 0;
  for (const std::size_t i : order) {
    const auto& row = rows_[i];
    if (reported == kMaxReported) {
      os << "  ... and " << (failed - kMaxReported)
         << " more failing point(s)\n";
      break;
    }
    os << "  point " << row.grid_index << " (";
    for (std::size_t p = 0; p < row.params.size(); ++p) {
      if (p > 0) os << ", ";
      os << param_names_[p] << "=" << format_double(row.params[p], 4);
    }
    os << "): " << row.failure->to_string() << "\n";
    ++reported;
  }
  return os.str();
}

SweepInterrupted::SweepInterrupted(std::size_t completed, std::size_t total)
    : Error("sweep interrupted after " + std::to_string(completed) + " of " +
            std::to_string(total) +
            " points; state checkpointed, re-run with resume to continue"),
      completed_(completed),
      total_(total) {}

namespace {

using Clock = std::chrono::steady_clock;

/// Per-point registry handles.  They are stable for the process lifetime,
/// so look them up once; Counter::add is one branch when metrics are off.
struct PointMetrics {
  Counter& points;
  Counter& ok;
  Counter& failed;
};

PointMetrics& point_metrics() {
  MetricsRegistry& r = MetricsRegistry::instance();
  static PointMetrics m{r.counter("dse.sweep.points"),
                        r.counter("dse.sweep.ok"),
                        r.counter("dse.sweep.failed")};
  return m;
}

/// Start of the point_done event's duration.  The clock is read only when
/// the sink is live, so the disabled cost is the telemetry_enabled() branch.
std::optional<Clock::time_point> event_start() {
  if (!EventSink::enabled()) return std::nullopt;
  return Clock::now();
}

/// Bookkeeping shared by evaluated and aliased points — outcome counters
/// and the point_done event — so a run report has the same shape whether
/// or not a point was deduplicated.
void record_point(const SweepRow& row,
                  const std::optional<Clock::time_point>& started) {
  PointMetrics& m = point_metrics();
  (row.ok() ? m.ok : m.failed).add();
  if (!started.has_value()) return;
  const double dur_us =
      std::chrono::duration<double, std::micro>(Clock::now() - *started)
          .count();
  EventFailure failure;
  if (!row.ok()) {
    failure.code = error_code_name(row.failure->code);
    failure.message = row.failure->message;
    failure.context = row.failure->context;
  }
  EventSink::instance().emit_point_done(row.grid_index, row.params,
                                        row.metrics,
                                        row.ok() ? nullptr : &failure, dur_us);
}

/// Classify an evaluation failure into a structured Failure.
Failure classify(const std::exception& error) {
  if (const auto* status = dynamic_cast<const StatusError*>(&error)) {
    return status->failure();
  }
  if (dynamic_cast<const PreconditionError*>(&error) != nullptr) {
    return Failure(ErrorCode::kInfeasiblePoint, error.what());
  }
  return Failure(ErrorCode::kInternal, error.what());
}

/// Evaluate ONE grid point into a SweepRow following `policy`: failure
/// classification, metric-count checking, and NaN handling.  Throws under
/// ErrorPolicy::kFailFast.
SweepRow evaluate_sweep_point(
    const Grid& grid, std::size_t grid_index,
    const std::vector<std::string>& metric_names,
    const std::function<std::vector<double>(const std::vector<double>&)>&
        evaluate,
    ErrorPolicy policy) {
  PointMetrics& m = point_metrics();
  const auto started = event_start();
  SweepRow row;
  row.grid_index = grid_index;
  row.params = grid.point(grid_index);
  std::optional<std::vector<double>> metrics;
  try {
    TraceSpan point_span("dse.sweep.point", "dse");
    // Breadcrumb for an armed postmortem dump: it pins which grid index
    // was in flight on each worker.
    flightrec::event("dse.point", grid_index);
    m.points.add();
    metrics = evaluate(row.params);
  } catch (const InvariantError&) {
    throw;  // library bug: never downgrade to a per-point failure
  } catch (const std::exception& error) {
    if (policy == ErrorPolicy::kFailFast) throw;
    row.failure = classify(error);
  }
  if (metrics.has_value()) {
    // A wrong metric count is an evaluator contract bug, not a bad design
    // point — it aborts the sweep under every policy.
    expects(metrics->size() == metric_names.size(),
            "evaluator returned wrong metric count");
    for (std::size_t i = 0; i < metrics->size(); ++i) {
      if (std::isfinite((*metrics)[i])) continue;
      Failure failure =
          Failure(ErrorCode::kNumericalError, "metric is not finite")
              .with("metric", metric_names[i])
              .with("value", std::isnan((*metrics)[i]) ? "nan" : "inf");
      if (policy == ErrorPolicy::kFailFast) {
        throw StatusError(std::move(failure));
      }
      row.failure = std::move(failure);
      break;
    }
    if (row.ok()) row.metrics = std::move(*metrics);
  }
  if (!row.ok()) {
    row.metrics.assign(metric_names.size(),
                       std::numeric_limits<double>::quiet_NaN());
  }
  record_point(row, started);
  return row;
}

/// Row for an ALIASED grid point (sweep-point dedup fan-out): its own
/// params and grid_index, the representative's metrics and failure.
SweepRow alias_sweep_point(const Grid& grid, std::size_t grid_index,
                           const SweepRow& representative) {
  PointMetrics& m = point_metrics();
  const auto started = event_start();
  SweepRow row;
  row.grid_index = grid_index;
  row.params = grid.point(grid_index);
  // Same breadcrumb and counters as a real evaluation; the point_done
  // duration is just the fan-out copy, which is what the point cost.
  flightrec::event("dse.point", grid_index);
  m.points.add();
  row.metrics = representative.metrics;
  row.failure = representative.failure;
  record_point(row, started);
  return row;
}

}  // namespace

SweepResult run_sweep(
    const Grid& grid, const std::vector<std::string>& metric_names,
    const std::function<std::vector<double>(const std::vector<double>&)>&
        evaluate,
    const SweepOptions& options) {
  expects(!metric_names.empty(), "sweep needs at least one metric");
  expects(options.checkpoint_interval >= 1,
          "checkpoint interval must be at least 1");
  const std::size_t grid_size = grid.size();
  const bool checkpointing = !options.checkpoint_path.empty();
  std::vector<std::string> param_names;
  param_names.reserve(grid.axis_count());
  for (const auto& axis : grid.axes()) param_names.push_back(axis.name);

  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.counter("dse.sweep.runs").add();
  registry.gauge("dse.sweep.grid_size").set(static_cast<double>(grid_size));
  // A stage span: besides the trace and the ring, it feeds the stage event
  // and the stage.dse.sweep.* metrics (wall + thread CPU + alloc/RSS).
  TraceSpan sweep_span("dse.sweep", "dse", TraceSpan::kStage);
  const bool timed = metrics_enabled();
  const auto sweep_start = timed ? Clock::now() : Clock::time_point{};

  // The fingerprint hashes every axis value — only pay for it when the
  // checkpoint or the sweep_start event will actually record it.
  const std::string fingerprint =
      checkpointing || EventSink::enabled()
          ? sweep_fingerprint(grid, metric_names, options.config_hash)
          : std::string();

  // Row slots indexed by grid index, so the result is bit-identical to the
  // serial loop at any jobs count; `done[g]` is the in-memory bitmap.  A
  // worker fills rows[g] completely, then release-stores done[g]; the
  // flusher acquire-loads done[g] before reading rows[g], so a snapshot
  // taken mid-sweep only ever contains fully-written rows.
  std::vector<SweepRow> rows(grid_size);
  std::vector<std::atomic<bool>> done(grid_size);
  std::size_t resumed = 0;
  if (checkpointing && std::ifstream(options.checkpoint_path).good()) {
    if (!options.resume) {
      throw StatusError(
          Failure(ErrorCode::kInvalidConfig,
                  "checkpoint file already exists; enable resume to continue "
                  "it or remove the file to start over")
              .with("checkpoint", options.checkpoint_path));
    }
    SweepCheckpoint ckpt = load_checkpoint(options.checkpoint_path);
    validate_checkpoint(ckpt, grid_size, fingerprint);
    for (SweepRow& row : ckpt.rows) {
      const std::size_t g = row.grid_index;
      rows[g] = std::move(row);
      done[g].store(true, std::memory_order_relaxed);
    }
    resumed = ckpt.rows.size();
    registry.counter("dse.sweep.resumed_points").add(resumed);
  }

  std::vector<std::size_t> todo;
  todo.reserve(grid_size - resumed);
  for (std::size_t g = 0; g < grid_size; ++g) {
    if (!done[g].load(std::memory_order_relaxed)) todo.push_back(g);
  }

  const int jobs = parallel::resolve_jobs(options.jobs);
  registry.gauge("dse.sweep.jobs").set(static_cast<double>(jobs));

  EventSink::instance().emit_sweep_start(fingerprint, grid_size, param_names,
                                         metric_names, jobs);

  std::mutex flush_mutex;
  std::atomic<std::size_t> completed{resumed};
  const auto flush = [&] {  // caller holds flush_mutex
    if (!checkpointing) return;
    SweepCheckpoint snapshot;
    snapshot.fingerprint = fingerprint;
    snapshot.run_id = current_run_context().run_id;
    snapshot.grid_size = grid_size;
    snapshot.param_names = param_names;
    snapshot.metric_names = metric_names;
    snapshot.completed.assign(grid_size, false);
    for (std::size_t g = 0; g < grid_size; ++g) {
      if (!done[g].load(std::memory_order_acquire)) continue;
      snapshot.completed[g] = true;
      snapshot.rows.push_back(rows[g]);
    }
    // Durability order: the checkpoint_flush event syncs the sink BEFORE the
    // checkpoint lands on disk, so every row in the saved checkpoint has its
    // point_done event durable — resume never leaves a row without an event.
    EventSink::instance().emit_checkpoint_flush(
        snapshot.rows.size(), grid_size, options.checkpoint_path);
    save_checkpoint(snapshot, options.checkpoint_path);
    registry.counter("dse.sweep.checkpoint_flushes").add();
  };

  // Sweep-point deduplication over the points still TO DO this run (resumed
  // rows are already final, and a representative must be freshly evaluated
  // so its aliases copy a row that exists).  `work` holds one grid index per
  // work item — all of `todo` without a key, each key class's lowest-index
  // remaining point with one.  Aliases are filled in the SAME work item as
  // their representative: rows are fully written before their done[] bit is
  // release-stored, so checkpoint snapshots stay consistent and an
  // interrupt loses at most the in-flight batch, which deterministically
  // re-evaluates on resume.  kFailFast is preserved: the first failing
  // point is its class's representative (lowest index, fails iff the point
  // does), so parallel_for rethrows the exception the dense loop would.
  std::vector<std::size_t> work = todo;
  std::unordered_map<std::size_t, std::vector<std::size_t>> aliases_by_rep;
  if (options.point_key != nullptr && !todo.empty()) {
    std::unordered_map<std::string, std::size_t> first_by_key;
    first_by_key.reserve(todo.size());
    work.clear();
    for (const std::size_t g : todo) {  // ascending, so reps stay ascending
      const auto [it, inserted] =
          first_by_key.try_emplace(options.point_key(grid.point(g)), g);
      if (inserted) {
        work.push_back(g);
      } else {
        aliases_by_rep[it->second].push_back(g);
      }
    }
    registry.counter("dse.sweep.dedup_unique")
        .add(static_cast<std::uint64_t>(work.size()));
    registry.counter("dse.sweep.dedup_aliased")
        .add(static_cast<std::uint64_t>(todo.size() - work.size()));
  }

  // `completed` counts finished POINTS, not work items (a work item also
  // finishes its representative's aliases), so checkpoint intervals and an
  // interrupt's count are in grid points.
  const auto finish_point = [&](std::size_t g) {
    done[g].store(true, std::memory_order_release);
    const std::size_t now =
        completed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (checkpointing && (now - resumed) % options.checkpoint_interval == 0) {
      const std::lock_guard<std::mutex> lock(flush_mutex);
      flush();
    }
  };

  const auto body = [&](std::size_t k) {
    if (interrupt_requested()) {
      throw SweepInterrupted(completed.load(std::memory_order_relaxed),
                             grid_size);
    }
    const std::size_t g = work[k];
    rows[g] =
        evaluate_sweep_point(grid, g, metric_names, evaluate, options.policy);
    finish_point(g);
    const auto aliases = aliases_by_rep.find(g);  // read-only map: safe
    if (aliases != aliases_by_rep.end()) {
      for (const std::size_t a : aliases->second) {
        rows[a] = alias_sweep_point(grid, a, rows[g]);
        finish_point(a);
      }
    }
  };

  try {
    parallel::parallel_for_indexed(work.size(), body, jobs);
  } catch (...) {
    // Keep whatever finished: an interrupt, a kFailFast failure, or a
    // library bug all leave a resumable checkpoint behind.  A flush
    // failure must not mask the original exception.
    const std::lock_guard<std::mutex> lock(flush_mutex);
    try {
      flush();
    } catch (...) {
    }
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(flush_mutex);
    flush();  // final, complete state
  }
  if (timed) {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - sweep_start).count();
    if (seconds > 0.0 && !todo.empty()) {
      registry.gauge("dse.sweep.points_per_sec")
          .set(static_cast<double>(todo.size()) / seconds);
    }
  }

  return SweepResult(std::move(param_names),
                     std::vector<std::string>(metric_names), std::move(rows));
}

}  // namespace uld3d::dse
