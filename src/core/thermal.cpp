#include "uld3d/core/thermal.hpp"

#include <cmath>

#include "uld3d/util/check.hpp"
#include "uld3d/util/status.hpp"

namespace uld3d::core {

ThermalStack::ThermalStack(double sink_resistance_k_per_w)
    : r0_(sink_resistance_k_per_w) {
  expects(std::isfinite(r0_), "sink resistance must be finite");
  expects(r0_ >= 0.0, "sink resistance must be non-negative");
}

void ThermalStack::add_tier(ThermalTier tier) {
  expects(std::isfinite(tier.resistance_k_per_w) && std::isfinite(tier.power_w),
          "tier resistance and power must be finite");
  expects(tier.resistance_k_per_w >= 0.0, "tier resistance must be non-negative");
  expects(tier.power_w >= 0.0, "tier power must be non-negative");
  tiers_.push_back(tier);
}

double ThermalStack::temperature_rise_k() const {
  // Eq. (17): each tier's power flows down through all tiers beneath it and
  // the sink.  Accumulate the prefix resistance while walking up the stack.
  double rise = 0.0;
  double prefix_r = 0.0;
  for (const auto& tier : tiers_) {
    prefix_r += tier.resistance_k_per_w;
    rise += (prefix_r + r0_) * tier.power_w;
  }
  return rise;
}

double ThermalStack::require_within_budget(double max_rise_k) const {
  expects(max_rise_k > 0.0, "thermal budget must be positive");
  const double rise = require_finite(temperature_rise_k(), "temperature rise");
  if (rise > max_rise_k) {
    throw StatusError(
        Failure(ErrorCode::kThermalLimit,
                "stack temperature rise exceeds the thermal budget")
            .with("rise_k", rise)
            .with("budget_k", max_rise_k)
            .with("tiers", static_cast<std::int64_t>(tiers_.size())));
  }
  return rise;
}

std::int64_t ThermalStack::max_tier_pairs(double sink_resistance_k_per_w,
                                          const ThermalTier& per_tier,
                                          double max_rise_k) {
  expects(max_rise_k > 0.0, "thermal budget must be positive");
  expects(per_tier.power_w > 0.0,
          "per-tier power must be positive for a meaningful bound");
  ThermalStack stack(sink_resistance_k_per_w);
  std::int64_t y = 0;
  // The rise grows quadratically in Y, so this loop terminates quickly.
  while (true) {
    stack.add_tier(per_tier);
    if (stack.temperature_rise_k() > max_rise_k) return y;
    ++y;
    ensures(y < 100000, "thermal bound failed to converge");
  }
}

}  // namespace uld3d::core
