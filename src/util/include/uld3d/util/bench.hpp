// Shared benchmark harness for the repo's reproduction binaries.
//
// Every `bench/bench_*.cpp` builds one `bench::Harness`, times its
// computation through it, records the suite's model-fidelity scalars (EDP
// benefits, model-vs-mapper deviations, ...), and finishes:
//
//   int main(int argc, char** argv) {
//     uld3d::bench::Harness h("fig5_models", argc, argv);
//     const auto results = h.time("evaluate", [&] { ...compute... });
//     ...print the human-readable table once, from `results`...
//     h.value("resnet18_edp_benefit", results.edp, "ratio");
//     return h.finish();
//   }
//
// Iteration/repetition policy
// ---------------------------
// `time()` first runs the callable `--warmup` times (default 1) and
// DISCARDS those samples — the first iterations pay one-time costs (page
// faults, lazy statics, cold caches/branch predictors) that are not the
// steady-state cost being measured.  It then runs `--iterations` timed
// repetitions (default 5) and keeps every wall-clock sample.  Statistics
// are robust (median + MAD rather than mean + stddev) so one descheduled
// iteration on a noisy shared machine shifts the reported center little;
// the regression gate in tools/bench_compare.cpp consumes the same numbers
// and uses the CI half-widths to tell drift from noise.
//
// Output
// ------
// `finish()` prints a timing-summary table to stdout and, unless `--no-json`
// was given, writes a schema-versioned `BENCH_<suite>.json` containing the
// provenance block (util/provenance), all timing samples + statistics, the
// named fidelity values ("values", hard-gated by the comparator), and the
// named timing-derived values ("timing_values", tolerance-gated like the
// benchmark medians).  `--json PATH` picks the file, otherwise
// `$ULD3D_BENCH_DIR/BENCH_<suite>.json` (or `./BENCH_<suite>.json`).
#pragma once

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "uld3d/util/provenance.hpp"

namespace uld3d::bench {

/// Force the compiler to materialize `value` (prevents a timed kernel call
/// from being optimized away).  Same idiom as google-benchmark's
/// DoNotOptimize.
template <typename T>
inline void do_not_optimize(const T& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  static volatile const void* sink;
  sink = &value;
  (void)sink;
#endif
}

/// Robust summary of a sample of wall-clock durations (seconds).
struct Stats {
  int iterations = 0;
  double min_s = 0.0;
  double max_s = 0.0;
  double mean_s = 0.0;
  double median_s = 0.0;
  /// Median absolute deviation from the median (robust spread).
  double mad_s = 0.0;
  /// Half-width of an approximate 95% confidence interval for the median:
  /// 1.96 * sqrt(pi/2) * 1.4826 * MAD / sqrt(n).  The normal approximation
  /// with the robust sigma estimate (1.4826 * MAD), inflated by
  /// sqrt(pi/2) ~= 1.2533 because the sample median's asymptotic standard
  /// error is that much wider than the mean's.  Zero for n <= 1.
  double ci95_half_width_s = 0.0;
};

/// Compute Stats over `samples_s`; an empty sample yields all zeros and a
/// single sample yields zero spread.
[[nodiscard]] Stats compute_stats(std::vector<double> samples_s);

/// One timed benchmark within a suite.
struct BenchResult {
  std::string name;
  int warmup = 0;
  std::vector<double> samples_s;
  Stats stats;
};

/// One named scalar result.  Used for both model-fidelity values (emitted
/// under "values", hard-gated by the comparator) and timing-derived values
/// (emitted under "timing_values", noise/tolerance-gated like benchmarks).
struct ValueResult {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< free-form: "ratio", "fraction", "ns", ...
};

/// Command-line options shared by every bench binary.
struct Options {
  int iterations = 5;
  int warmup = 1;
  std::string json_path;   ///< resolved output path; empty disables JSON
  bool write_json = true;
};

/// Parse the standard bench flags (--iterations N, --warmup N, --json PATH,
/// --no-json, --help).  Prints usage and calls std::exit(0) for --help,
/// std::exit(2) for unknown flags or bad operands.  `ULD3D_BENCH_DIR`
/// redirects the default JSON location.
[[nodiscard]] Options parse_bench_args(const std::string& suite, int argc,
                                       char** argv);

/// The JSON document schema version written by Harness::finish.
inline constexpr int kBenchSchemaVersion = 1;

class Harness {
 public:
  /// `suite` names the output document (`BENCH_<suite>.json`); argc/argv
  /// may be omitted for programmatic use (defaults, no JSON path override).
  explicit Harness(std::string suite, int argc = 0, char** argv = nullptr);

  [[nodiscard]] const std::string& suite() const { return suite_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Run `fn` warmup times (discarded), then `iterations` timed times.
  /// Returns the value produced by the *last* timed invocation so callers
  /// can build their report tables from it without recomputing.
  template <typename F>
  auto time(const std::string& name, F&& fn) {
    using R = std::invoke_result_t<F&>;
    for (int i = 0; i < options_.warmup; ++i) {
      if constexpr (std::is_void_v<R>) {
        fn();
      } else {
        do_not_optimize(fn());
      }
    }
    std::vector<double> samples_s;
    samples_s.reserve(static_cast<std::size_t>(options_.iterations));
    for (int i = 0; i + 1 < options_.iterations; ++i) {
      const double t0 = now_s();
      if constexpr (std::is_void_v<R>) {
        fn();
      } else {
        do_not_optimize(fn());
      }
      samples_s.push_back(now_s() - t0);
    }
    if constexpr (std::is_void_v<R>) {
      const double t0 = now_s();
      fn();
      samples_s.push_back(now_s() - t0);
      record_samples(name, std::move(samples_s));
    } else {
      const double t0 = now_s();
      R result = fn();
      samples_s.push_back(now_s() - t0);
      do_not_optimize(result);
      record_samples(name, std::move(samples_s));
      return result;
    }
  }

  /// Record externally measured wall-clock samples (seconds) as one
  /// benchmark entry — used by kernels that time inner loops themselves.
  /// `samples_s` must be non-empty.
  void record_samples(const std::string& name, std::vector<double> samples_s);

  /// Record one named model-fidelity scalar.  These are deterministic model
  /// outputs: the comparator hard-fails when one drifts beyond --value-tol.
  void value(const std::string& name, double v, const std::string& unit = "");

  /// Record one named timing-derived scalar (ns/op, overhead ratio, ...).
  /// These come from the wall clock and can never reproduce exactly, so the
  /// comparator gates them with the timing tolerance (and --time-advisory
  /// demotes their regressions), never with the fidelity gate.  The gate is
  /// one-sided: it fails a value only when it rises, so every timing value
  /// must be lower-is-better.  Record a speedup as its inverse time ratio
  /// (new / reference), never as reference / new.
  void timing_value(const std::string& name, double v,
                    const std::string& unit = "");

  /// Fingerprint a named configuration (file content, parameter string...)
  /// into the provenance block, so config drift is visible across runs.
  void note_config(const std::string& name, const std::string& content);

  /// Statistics of an already-timed benchmark; throws PreconditionError if
  /// `name` has not been recorded.
  [[nodiscard]] const Stats& stats(const std::string& name) const;

  /// Render the suite as a schema-versioned JSON document.
  [[nodiscard]] std::string to_json() const;

  /// Print the timing/value summary tables to stdout and write the JSON
  /// document (unless disabled).  Returns the process exit code: 0 on
  /// success, 1 when the JSON file could not be written.
  [[nodiscard]] int finish();

 private:
  [[nodiscard]] static double now_s();

  std::string suite_;
  Options options_;
  Provenance provenance_;
  std::vector<BenchResult> benchmarks_;
  std::vector<ValueResult> values_;
  std::vector<ValueResult> timing_values_;
};

}  // namespace uld3d::bench
