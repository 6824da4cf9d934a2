#include "uld3d/dse/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "uld3d/util/check.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/trace.hpp"

namespace uld3d::dse {

namespace {

/// Evaluate one perturbed point; non-finite objectives become
/// StatusError(kNumericalError) so both failure shapes take the same path.
double evaluate_checked(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::vector<double>& params, const std::string& parameter,
    const char* side) {
  const double value = objective(params);
  if (!std::isfinite(value)) {
    throw StatusError(Failure(ErrorCode::kNumericalError,
                              "objective is not finite")
                          .with("parameter", parameter)
                          .with("side", side));
  }
  return value;
}

}  // namespace

std::vector<Sensitivity> analyze_sensitivity(
    const std::vector<std::string>& names, const std::vector<double>& baseline,
    const std::function<double(const std::vector<double>&)>& objective,
    double step, ErrorPolicy policy, int jobs) {
  expects(names.size() == baseline.size(),
          "one name per baseline parameter required");
  expects(step > 0.0 && step < 1.0, "relative step must be in (0, 1)");
  MetricsRegistry& registry = MetricsRegistry::instance();
  Counter& m_params = registry.counter("dse.sensitivity.params");
  Counter& m_failed = registry.counter("dse.sensitivity.failed");
  TraceSpan analysis_span("dse.sensitivity", "dse", TraceSpan::kStage);
  // The baseline evaluation is always serial and fail-fast — without it no
  // elasticity is defined.
  const double base_objective = objective(baseline);
  expects(std::abs(base_objective) > 0.0,
          "objective must be non-zero at the baseline");
  expects(std::isfinite(base_objective),
          "objective must be finite at the baseline");

  std::vector<Sensitivity> results(names.size());
  const auto evaluate_parameter = [&](std::size_t i) {
    Sensitivity& s = results[i];
    s.parameter = names[i];
    s.baseline_value = baseline[i];
    TraceSpan param_span(names[i], "dse");
    m_params.add();
    try {
      std::vector<double> params = baseline;
      params[i] = baseline[i] * (1.0 - step);
      s.objective_minus = evaluate_checked(objective, params, names[i], "-");
      params[i] = baseline[i] * (1.0 + step);
      s.objective_plus = evaluate_checked(objective, params, names[i], "+");
      s.elasticity = (s.objective_plus - s.objective_minus) /
                     (2.0 * step * base_objective);
    } catch (const InvariantError&) {
      throw;  // library bug: never downgrade to a per-parameter failure
    } catch (const std::exception& error) {
      if (policy == ErrorPolicy::kFailFast) throw;
      if (const auto* status = dynamic_cast<const StatusError*>(&error)) {
        s.failure = status->failure();
      } else {
        s.failure = Failure(ErrorCode::kInfeasiblePoint, error.what())
                        .with("parameter", names[i]);
      }
      s.objective_minus = std::numeric_limits<double>::quiet_NaN();
      s.objective_plus = std::numeric_limits<double>::quiet_NaN();
      s.elasticity = std::numeric_limits<double>::quiet_NaN();
      m_failed.add();
    }
  };
  parallel::parallel_for_indexed(names.size(), evaluate_parameter, jobs);
  return results;
}

Table sensitivity_table(std::vector<Sensitivity> results) {
  std::sort(results.begin(), results.end(),
            [](const Sensitivity& a, const Sensitivity& b) {
              if (a.ok() != b.ok()) return a.ok();  // failed rows sink
              if (!a.ok()) return false;
              return std::abs(a.elasticity) > std::abs(b.elasticity);
            });
  Table table({"Parameter", "Baseline", "Obj @ -5%", "Obj @ +5%",
               "Elasticity"});
  for (const auto& s : results) {
    if (s.ok()) {
      table.add_row({s.parameter, format_double(s.baseline_value, 3),
                     format_double(s.objective_minus, 3),
                     format_double(s.objective_plus, 3),
                     format_double(s.elasticity, 3)});
    } else {
      table.add_row({s.parameter, format_double(s.baseline_value, 3), "-", "-",
                     error_code_name(s.failure->code)});
    }
  }
  return table;
}

}  // namespace uld3d::dse
