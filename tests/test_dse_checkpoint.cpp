// dse/checkpoint: sweep checkpoint round-trips, refusal rules, and
// interrupt + resume byte-identity.
//
// The load-bearing guarantees (ROADMAP item 2):
//  * a checkpoint round-trips SweepRows BIT-exactly (doubles through %.17g),
//    including failed rows, so kSkipAndRecord semantics survive resume;
//  * a checkpoint is refused against a different grid/config (fingerprint),
//    and a torn/tampered file is refused by structural validation;
//  * an interrupted-then-resumed sweep produces rows, failure_summary() and
//    table output identical to an uninterrupted run at any jobs count.
#include "uld3d/dse/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "uld3d/dse/sweep.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/status.hpp"

namespace uld3d::dse {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

Grid small_grid() {
  Grid grid;
  grid.axis("x", {1.0, 2.0, 3.0, 4.0}).axis("y", {0.5, 1.5, 2.5});
  return grid;  // 12 points
}

const std::vector<std::string>& metrics2() {
  static const std::vector<std::string> names{"sum", "ratio"};
  return names;
}

/// Deterministic evaluator; design points with x*y > 7 are infeasible so
/// kSkipAndRecord failures flow through checkpoints too.
std::vector<double> eval_point(const std::vector<double>& p) {
  if (p[0] * p[1] > 7.0) {
    throw StatusError(Failure(ErrorCode::kInfeasiblePoint, "x*y too large")
                          .with("x", p[0])
                          .with("y", p[1]));
  }
  return {p[0] + p[1] / 3.0, p[0] / p[1]};
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_rows_identical(const std::vector<SweepRow>& a,
                           const std::vector<SweepRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].grid_index, b[i].grid_index) << "row " << i;
    ASSERT_EQ(a[i].params.size(), b[i].params.size());
    for (std::size_t p = 0; p < a[i].params.size(); ++p) {
      EXPECT_TRUE(bits_equal(a[i].params[p], b[i].params[p]))
          << "row " << i << " param " << p;
    }
    ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
    for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
      EXPECT_TRUE(bits_equal(a[i].metrics[m], b[i].metrics[m]))
          << "row " << i << " metric " << m;
    }
    ASSERT_EQ(a[i].ok(), b[i].ok()) << "row " << i;
    if (!a[i].ok()) {
      EXPECT_EQ(a[i].failure->code, b[i].failure->code);
      EXPECT_EQ(a[i].failure->message, b[i].failure->message);
      EXPECT_EQ(a[i].failure->severity, b[i].failure->severity);
      EXPECT_EQ(a[i].failure->context, b[i].failure->context);
    }
  }
}

TEST(FingerprintTest, SensitiveToGridMetricsAndConfig) {
  const Grid grid = small_grid();
  const std::string base = sweep_fingerprint(grid, metrics2(), "cfg");
  EXPECT_EQ(base, sweep_fingerprint(small_grid(), metrics2(), "cfg"));
  EXPECT_NE(base, sweep_fingerprint(grid, metrics2(), "other-cfg"));
  EXPECT_NE(base, sweep_fingerprint(grid, {"sum"}, "cfg"));
  Grid other;
  other.axis("x", {1.0, 2.0, 3.0, 4.0}).axis("y", {0.5, 1.5, 2.5000001});
  EXPECT_NE(base, sweep_fingerprint(other, metrics2(), "cfg"));
}

TEST(CheckpointRoundTripTest, ExoticDoublesAndFailedRowsAreBitExact) {
  SweepCheckpoint ckpt;
  ckpt.fingerprint = "feedface00000000";
  ckpt.grid_size = 4;
  ckpt.param_names = {"x"};
  ckpt.metric_names = {"m1", "m2"};
  ckpt.completed = {false, true, false, true};

  SweepRow ok_row;
  ok_row.grid_index = 1;
  ok_row.params = {-0.0};
  ok_row.metrics = {5e-324 /* min denormal */,
                    0.1 /* classic non-representable */};
  SweepRow failed_row;
  failed_row.grid_index = 3;
  failed_row.params = {1.0 / 3.0};
  failed_row.metrics.assign(2, std::numeric_limits<double>::quiet_NaN());
  failed_row.failure =
      Failure(ErrorCode::kThermalLimit, "too hot: \"quoted\"\n")
          .with("budget_k", 10.0)
          .with("rise_k", 12.5);
  ckpt.rows = {ok_row, failed_row};

  const std::string path = temp_path("ckpt_roundtrip.json");
  save_checkpoint(ckpt, path);
  const SweepCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.schema_version, kCheckpointSchemaVersion);
  EXPECT_EQ(loaded.fingerprint, ckpt.fingerprint);
  EXPECT_EQ(loaded.grid_size, 4u);
  EXPECT_EQ(loaded.completed, ckpt.completed);
  EXPECT_EQ(loaded.completed_count(), 2u);
  expect_rows_identical(loaded.rows, ckpt.rows);
  // -0.0 specifically: bit pattern, not just value equality.
  EXPECT_TRUE(std::signbit(loaded.rows[0].params[0]));
}

TEST(CheckpointRoundTripTest, ExtremeMagnitudesSurvive) {
  SweepCheckpoint ckpt;
  ckpt.fingerprint = "f";
  ckpt.grid_size = 1;
  ckpt.param_names = {"x"};
  ckpt.metric_names = {"m"};
  ckpt.completed = {true};
  SweepRow row;
  row.grid_index = 0;
  row.params = {std::numeric_limits<double>::max()};
  row.metrics = {-std::numeric_limits<double>::min()};
  ckpt.rows = {row};
  const std::string path = temp_path("ckpt_extreme.json");
  save_checkpoint(ckpt, path);
  expect_rows_identical(load_checkpoint(path).rows, ckpt.rows);
}

TEST(CheckpointRefusalTest, FingerprintMismatchIsRefused) {
  SweepCheckpoint ckpt;
  ckpt.fingerprint = "aaaa";
  ckpt.grid_size = 12;
  try {
    validate_checkpoint(ckpt, 12, "bbbb");
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
  }
}

TEST(CheckpointRefusalTest, GridSizeMismatchIsRefused) {
  SweepCheckpoint ckpt;
  ckpt.fingerprint = "aaaa";
  ckpt.grid_size = 12;
  EXPECT_THROW(validate_checkpoint(ckpt, 13, "aaaa"), StatusError);
  validate_checkpoint(ckpt, 12, "aaaa");  // matching: ok
}

TEST(CheckpointRefusalTest, TamperedFilesAreRefused) {
  // Start from a real, valid file...
  SweepCheckpoint ckpt;
  ckpt.fingerprint = "f";
  ckpt.grid_size = 8;
  ckpt.param_names = {"x"};
  ckpt.metric_names = {"m"};
  ckpt.completed.assign(8, false);
  ckpt.completed[2] = true;
  SweepRow row;
  row.grid_index = 2;
  row.params = {1.0};
  row.metrics = {2.0};
  ckpt.rows = {row};
  const std::string path = temp_path("ckpt_tamper.json");
  save_checkpoint(ckpt, path);
  (void)load_checkpoint(path);  // sanity: valid as written

  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  in.close();

  // Each variant applies its (from, to) edits to the ORIGINAL valid text.
  using Edits = std::vector<std::pair<std::string, std::string>>;
  const auto write_variant = [&](const Edits& edits) {
    std::string mutated = text;
    for (const auto& [from, to] : edits) {
      const std::size_t pos = mutated.find(from);
      ASSERT_NE(pos, std::string::npos) << from;
      mutated.replace(pos, from.size(), to);
    }
    std::ofstream out(path);
    out << mutated;
  };
  const std::string bitmap = "\"completed_bitmap\": ";

  // Nibble 0 encodes bits 0..3: bit 2 set renders as "40".
  // Bitmap says point 3, the row says point 2: torn state, refused.
  write_variant({{bitmap + "\"40\"", bitmap + "\"80\""}});
  EXPECT_THROW((void)load_checkpoint(path), StatusError);
  // Bitmap popcount != row count.
  write_variant({{bitmap + "\"40\"", bitmap + "\"c0\""}});
  EXPECT_THROW((void)load_checkpoint(path), StatusError);
  // Row index escapes the grid.
  write_variant({{"\"index\": 2", "\"index\": 99"}});
  EXPECT_THROW((void)load_checkpoint(path), StatusError);
  // An index no integer type holds.  Cast to std::size_t it would read as
  // point 0 on x86-64, so the bitmap marks point 0: only the range check
  // can refuse this file.
  write_variant({{bitmap + "\"40\"", bitmap + "\"10\""},
                 {"\"index\": 2", "\"index\": 1e300"}});
  EXPECT_THROW((void)load_checkpoint(path), StatusError);
  // A grid size that overflows to inf.
  write_variant({{"\"grid_size\": 8", "\"grid_size\": 1e400"}});
  EXPECT_THROW((void)load_checkpoint(path), StatusError);
  // Wrong kind.
  write_variant({{"uld3d-sweep-checkpoint", "uld3d-bench-suite"}});
  EXPECT_THROW((void)load_checkpoint(path), StatusError);
}

/// A valid empty checkpoint file whose schema_version reads `version`.
std::string checkpoint_with_version(const std::string& name,
                                    const std::string& version) {
  SweepCheckpoint ckpt;
  ckpt.fingerprint = "f";
  ckpt.grid_size = 0;
  ckpt.metric_names = {"m"};
  const std::string path = temp_path(name);
  save_checkpoint(ckpt, path);
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  in.close();
  const std::string current =
      "\"schema_version\": " + std::to_string(kCheckpointSchemaVersion);
  const std::size_t pos = text.find(current);
  EXPECT_NE(pos, std::string::npos);
  if (pos != std::string::npos) {
    text.replace(pos, current.size(), "\"schema_version\": " + version);
  }
  std::ofstream(path) << text;
  return path;
}

TEST(CheckpointRefusalTest, FutureSchemaVersionIsRefused) {
  const std::string path = checkpoint_with_version("ckpt_future.json", "99");
  EXPECT_THROW((void)load_checkpoint(path), StatusError);
  // 2^32 above the current version: narrowed to an int it would wrap to
  // the current version and load.
  const std::string wrapped = checkpoint_with_version(
      "ckpt_wrapped.json",
      std::to_string((std::int64_t{1} << 32) + kCheckpointSchemaVersion));
  EXPECT_THROW((void)load_checkpoint(wrapped), StatusError);
}

TEST(CheckpointRefusalTest, SchemaOneCheckpointIsRefused) {
  // Schema 1 carried shard_index/shard_count; a file written by such a
  // build must be refused, not resumed with those members ignored.
  const std::string path = checkpoint_with_version("ckpt_schema1.json", "1");
  try {
    (void)load_checkpoint(path);
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
  }
}

TEST(ResumableSweepTest, MatchesPlainSweepWithoutInterruption) {
  // Checkpoint on vs off through the one runner, at jobs 1 and 8.
  const Grid grid = small_grid();
  const std::string path = temp_path("ckpt_plain_equiv.json");
  for (const int jobs : {1, 8}) {
    const SweepResult plain = run_sweep(grid, metrics2(), eval_point,
                                        {ErrorPolicy::kSkipAndRecord, jobs});
    std::remove(path.c_str());
    SweepOptions options;
    options.jobs = jobs;
    options.checkpoint_path = path;
    const SweepResult checkpointed =
        run_sweep(grid, metrics2(), eval_point, options);
    expect_rows_identical(checkpointed.rows(), plain.rows());
    EXPECT_EQ(checkpointed.failure_summary(), plain.failure_summary());
    EXPECT_EQ(checkpointed.to_table().to_csv(), plain.to_table().to_csv());
    EXPECT_EQ(load_checkpoint(path).completed_count(), grid.size());
  }
  std::remove(path.c_str());
}

TEST(ResumableSweepTest, InterruptThenResumeIsByteIdentical) {
  const Grid grid = small_grid();
  const SweepResult plain = run_sweep(grid, metrics2(), eval_point,
                                      {ErrorPolicy::kSkipAndRecord, 1});
  const std::string path = temp_path("ckpt_interrupt.json");
  std::remove(path.c_str());

  // First run: trip the interrupt latch after 5 evaluations.  jobs=1 so the
  // count is exact; the runner must flush what finished and throw.
  set_interrupt_requested(false);
  int evaluated = 0;
  const auto interrupting_eval = [&](const std::vector<double>& p) {
    if (++evaluated == 5) set_interrupt_requested(true);
    return eval_point(p);
  };
  SweepOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  options.checkpoint_interval = 2;
  EXPECT_THROW((void)run_sweep(grid, metrics2(), interrupting_eval, options),
               SweepInterrupted);
  set_interrupt_requested(false);

  // The flushed checkpoint holds exactly the completed prefix work...
  const SweepCheckpoint mid = load_checkpoint(path);
  EXPECT_EQ(mid.completed_count(), 5u);
  EXPECT_LT(mid.completed_count(), grid.size());

  // ...and the resumed run completes to a byte-identical result: rows,
  // failure summary (kSkipAndRecord failures recorded before the interrupt
  // included), and rendered table.
  options.resume = true;
  int resumed_evals = 0;
  const auto counting_eval = [&](const std::vector<double>& p) {
    ++resumed_evals;
    return eval_point(p);
  };
  const SweepResult resumed =
      run_sweep(grid, metrics2(), counting_eval, options);
  EXPECT_EQ(resumed_evals, static_cast<int>(grid.size()) - 5);
  expect_rows_identical(resumed.rows(), plain.rows());
  EXPECT_EQ(resumed.failure_summary(), plain.failure_summary());
  EXPECT_EQ(resumed.to_table().to_csv(), plain.to_table().to_csv());
  std::remove(path.c_str());
}

TEST(ResumableSweepTest, RecordedFailuresSurviveTheResumeBoundary) {
  // Force the FAILING points to complete before the interrupt, then resume:
  // their kSkipAndRecord failures must come back from the file, not from
  // re-evaluation.
  const Grid grid = small_grid();
  const SweepResult plain = run_sweep(grid, metrics2(), eval_point,
                                      {ErrorPolicy::kSkipAndRecord, 1});
  ASSERT_GT(plain.failed_count(), 0u);
  const std::string path = temp_path("ckpt_failures.json");
  std::remove(path.c_str());

  // grid_index 8 (x=3, y=2.5) fails; with jobs=1 points evaluate in grid
  // order, so interrupting after the 9th evaluation checkpoints that
  // recorded failure while points 9..11 remain.
  const std::size_t first_failing = 8;
  set_interrupt_requested(false);
  std::size_t evaluated = 0;
  const auto interrupting_eval = [&](const std::vector<double>& p) {
    if (++evaluated == first_failing + 1) set_interrupt_requested(true);
    return eval_point(p);
  };
  SweepOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  EXPECT_THROW((void)run_sweep(grid, metrics2(), interrupting_eval, options),
               SweepInterrupted);
  set_interrupt_requested(false);

  // Resume with an evaluator that never fails and returns garbage: any
  // checkpointed point that got re-evaluated would diverge loudly.
  options.resume = true;
  const auto must_not_reevaluate = [](const std::vector<double>& p) {
    (void)p;
    return std::vector<double>{-1.0, -1.0};
  };
  const SweepResult resumed =
      run_sweep(grid, metrics2(), must_not_reevaluate, options);
  // The recorded failure at point 8 came back from the file...
  ASSERT_EQ(resumed.failed_count(), 1u);
  EXPECT_FALSE(resumed.rows()[first_failing].ok());
  EXPECT_EQ(resumed.rows()[first_failing].failure->code,
            plain.rows()[first_failing].failure->code);
  // ...with its summary line byte-identical to the uninterrupted run's.
  const std::string line = "point 8 (";
  const std::string plain_summary = plain.failure_summary();
  const std::size_t at = plain_summary.find(line);
  ASSERT_NE(at, std::string::npos);
  const std::string plain_line =
      plain_summary.substr(at, plain_summary.find('\n', at) - at);
  EXPECT_NE(resumed.failure_summary().find(plain_line), std::string::npos);
  // Completed ok-points were not re-run either: their metrics match the
  // plain run, not the garbage evaluator.
  expect_rows_identical({resumed.rows()[0]}, {plain.rows()[0]});
  std::remove(path.c_str());
}

TEST(ResumableSweepTest, RefusesToOverwriteWithoutResume) {
  const Grid grid = small_grid();
  const std::string path = temp_path("ckpt_no_clobber.json");
  SweepOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  (void)run_sweep(grid, metrics2(), eval_point, options);
  try {
    (void)run_sweep(grid, metrics2(), eval_point, options);
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
  }
  std::remove(path.c_str());
}

TEST(ResumableSweepTest, ResumingACompleteSweepReEvaluatesNothing) {
  const Grid grid = small_grid();
  const std::string path = temp_path("ckpt_complete.json");
  std::remove(path.c_str());
  SweepOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  const SweepResult first =
      run_sweep(grid, metrics2(), eval_point, options);
  options.resume = true;
  bool evaluated = false;
  const SweepResult second = run_sweep(
      grid, metrics2(),
      [&](const std::vector<double>& p) {
        evaluated = true;
        return eval_point(p);
      },
      options);
  EXPECT_FALSE(evaluated);
  expect_rows_identical(second.rows(), first.rows());
  std::remove(path.c_str());
}

TEST(FailureSummaryTest, ItemizesInGridIndexOrderNotStorageOrder) {
  // A result can hold rows whose storage order differs from grid order;
  // the summary must label and order points by grid_index so it does not
  // depend on how the rows were assembled.
  SweepRow a;
  a.grid_index = 7;
  a.params = {1.0};
  a.metrics = {std::numeric_limits<double>::quiet_NaN()};
  a.failure = Failure(ErrorCode::kThermalLimit, "late point");
  SweepRow b;
  b.grid_index = 2;
  b.params = {2.0};
  b.metrics = {std::numeric_limits<double>::quiet_NaN()};
  b.failure = Failure(ErrorCode::kInfeasiblePoint, "early point");
  const SweepResult shuffled({"x"}, {"m"}, {a, b});
  const SweepResult ordered({"x"}, {"m"}, {b, a});
  const std::string summary = shuffled.failure_summary();
  EXPECT_EQ(summary, ordered.failure_summary());
  const std::size_t early = summary.find("point 2");
  const std::size_t late = summary.find("point 7");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);
}

}  // namespace
}  // namespace uld3d::dse
