// The four workloads of the end-to-end benchmark (README.md).  Each op is
// one sample; the loop in bench_e2e.cpp times it, checks its outputs,
// and in the traced run hands the spans it produced to `layer_metrics`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "span_tree.hpp"

namespace uld3d::e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Inputs and expected outputs, made once from `seed` (0 = the canonical
  /// inputs) before the warm-up op.
  virtual void setup(std::uint64_t seed) = 0;
  /// One op.  Returns its CPU seconds: this process's, or for the CLI
  /// workload its children's.
  virtual double run() = 0;
  /// Empty when the last op's outputs are right, else what is wrong.
  [[nodiscard]] virtual std::string check() = 0;
  /// Peak RSS in MB of the process that did the work.
  [[nodiscard]] virtual double peak_rss_mb() const;
  /// Per-layer metrics from the spans of `traced_ops` traced ops and the
  /// MetricsRegistry counters of one more op.  May run more traced work
  /// of its own.
  [[nodiscard]] virtual std::vector<Metric> layer_metrics(
      const SpanForest& spans, double traced_ops) = 0;
};

/// nullptr for an unknown name.  `jobs` bounds the threads it may use.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      int jobs);

/// Rewrite golden/ (CLI stdout, the dse_search row hash and the datasheet
/// values) from this build's outputs at seed 0.
void regenerate_golden(int jobs);

/// CPU seconds used by this process so far (all threads).
[[nodiscard]] double process_cpu_s();

/// The `q` quantile of `values`, interpolated linearly between ranks.
[[nodiscard]] double percentile(std::vector<double> values, double q);

}  // namespace uld3d::e2e
