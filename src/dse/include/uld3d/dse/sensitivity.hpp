// One-at-a-time sensitivity analysis: how much a scalar objective moves per
// relative perturbation of each input parameter.  Used to rank which
// technology/architecture knobs (bandwidth, gamma_cells, access energy,
// via pitch, ...) dominate the M3D EDP benefit.
//
// Fault tolerance mirrors dse::run_sweep: under the default
// ErrorPolicy::kSkipAndRecord a parameter whose perturbed evaluation throws
// (or yields a non-finite objective) is reported as a failed Sensitivity
// entry instead of aborting the whole analysis.  The *baseline* evaluation
// is always fail-fast — without it no elasticity is defined.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "uld3d/dse/sweep.hpp"
#include "uld3d/util/status.hpp"
#include "uld3d/util/table.hpp"

namespace uld3d::dse {

/// Result for one parameter.
struct Sensitivity {
  std::string parameter;
  double baseline_value = 0.0;
  double objective_minus = 0.0;  ///< objective at (1 - step) * value
  double objective_plus = 0.0;   ///< objective at (1 + step) * value
  /// Normalized elasticity: d(objective)/objective per d(param)/param,
  /// central-differenced.  |1.0| means proportional response.
  double elasticity = 0.0;
  std::optional<Failure> failure;  ///< set iff a perturbed evaluation failed

  [[nodiscard]] bool ok() const { return !failure.has_value(); }
};

/// Compute elasticities of `objective(params)` around `baseline`, one
/// parameter at a time, with a relative `step` (default 5%).  Per-parameter
/// failures follow `policy`; failed entries carry NaN elasticities.
/// Parameters are evaluated on `jobs` threads (0 = global parallel::jobs())
/// into pre-sized slots, so the result is bit-identical at any jobs count.
[[nodiscard]] std::vector<Sensitivity> analyze_sensitivity(
    const std::vector<std::string>& names, const std::vector<double>& baseline,
    const std::function<double(const std::vector<double>&)>& objective,
    double step = 0.05, ErrorPolicy policy = ErrorPolicy::kSkipAndRecord,
    int jobs = 0);

/// Render sensitivities as a table, largest |elasticity| first; failed
/// entries sink to the bottom with their error code in place of numbers.
[[nodiscard]] Table sensitivity_table(std::vector<Sensitivity> results);

}  // namespace uld3d::dse
