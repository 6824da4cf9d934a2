#include "uld3d/core/edp_model.hpp"

#include <algorithm>
#include <cmath>

#include "uld3d/util/check.hpp"
#include "uld3d/util/status.hpp"

namespace uld3d::core {

namespace {

void validate(const WorkloadPoint& w) {
  expects(std::isfinite(w.f0_ops) && std::isfinite(w.d0_bits),
          "workload must be finite");
  expects(w.f0_ops >= 0.0 && w.d0_bits >= 0.0, "workload must be non-negative");
  expects(w.f0_ops > 0.0 || w.d0_bits > 0.0, "workload must be non-trivial");
  expects(w.max_partitions >= 1, "N# >= 1");
}

void validate(const Chip2d& c) {
  expects(c.bandwidth_bits_per_cycle > 0.0, "B_2D must be positive");
  expects(c.peak_ops_per_cycle > 0.0, "P_peak must be positive");
  expects(c.alpha_pj_per_bit >= 0.0 && c.compute_pj_per_op >= 0.0 &&
              c.cs_idle_pj_per_cycle >= 0.0 && c.mem_idle_pj_per_cycle >= 0.0,
          "energies must be non-negative");
}

void validate(const Chip3d& c) {
  expects(c.parallel_cs >= 1, "N >= 1");
  expects(c.bandwidth_bits_per_cycle > 0.0, "B_3D must be positive");
  expects(c.alpha_pj_per_bit >= 0.0 && c.mem_idle_pj_per_cycle >= 0.0,
          "energies must be non-negative");
}

std::int64_t n_max(const WorkloadPoint& w, const Chip3d& c3) {
  return std::min<std::int64_t>(w.max_partitions, c3.parallel_cs);
}

}  // namespace

double execution_time_2d(const WorkloadPoint& w, const Chip2d& c) {
  validate(w);
  validate(c);
  return std::max(w.d0_bits / c.bandwidth_bits_per_cycle,
                  w.f0_ops / c.peak_ops_per_cycle);
}

/// Memory term of Eq. (4): each of the N_max active partitions reads the
/// shared traffic in full plus its 1/N_max slice of the private traffic,
/// through its B_3D/N share of the bandwidth.  With everything shared (the
/// default WorkloadPoint) this is exactly the paper's D0*N/B_3D.
namespace {
double memory_time_3d(const WorkloadPoint& w, const Chip3d& c3) {
  const double n = static_cast<double>(c3.parallel_cs);
  const double nm = static_cast<double>(
      std::min<std::int64_t>(w.max_partitions, c3.parallel_cs));
  const double shared = w.shared_bits();
  const double per_partition = shared + (w.d0_bits - shared) / nm;
  return per_partition * n / c3.bandwidth_bits_per_cycle;
}
}  // namespace

double execution_time_3d(const WorkloadPoint& w, const Chip2d& c2,
                         const Chip3d& c3) {
  validate(w);
  validate(c2);
  validate(c3);
  const double nm = static_cast<double>(n_max(w, c3));
  const double compute = w.f0_ops / (nm * c2.peak_ops_per_cycle);
  return std::max(memory_time_3d(w, c3), compute);
}

double energy_2d(const WorkloadPoint& w, const Chip2d& c) {
  const double t = execution_time_2d(w, c);
  const double mem_busy = w.d0_bits / c.bandwidth_bits_per_cycle;
  const double compute_busy = w.f0_ops / c.peak_ops_per_cycle;
  return c.alpha_pj_per_bit * w.d0_bits +
         c.mem_idle_pj_per_cycle * (t - mem_busy) +
         c.cs_idle_pj_per_cycle * (t - compute_busy) +
         c.compute_pj_per_op * w.f0_ops;
}

double energy_3d(const WorkloadPoint& w, const Chip2d& c2, const Chip3d& c3) {
  const double t = execution_time_3d(w, c2, c3);
  const double n = static_cast<double>(c3.parallel_cs);
  const double nm = static_cast<double>(n_max(w, c3));
  const double mem_busy = memory_time_3d(w, c3);
  const double compute_busy = w.f0_ops / (nm * c2.peak_ops_per_cycle);
  return c3.alpha_pj_per_bit * w.d0_bits +
         c3.mem_idle_pj_per_cycle * (t - mem_busy) +
         (n - nm) * c2.cs_idle_pj_per_cycle * t +
         n * c2.cs_idle_pj_per_cycle * (t - compute_busy) +
         c2.compute_pj_per_op * w.f0_ops;
}

EdpResult evaluate_edp(const WorkloadPoint& w, const Chip2d& c2,
                       const Chip3d& c3) {
  EdpResult r;
  r.t2d_cycles = require_finite(execution_time_2d(w, c2), "T_2D");
  r.t3d_cycles = require_finite(execution_time_3d(w, c2, c3), "T_3D");
  r.speedup = require_finite(r.t2d_cycles / r.t3d_cycles, "speedup");
  r.e2d_pj = require_finite(energy_2d(w, c2), "E_2D");
  r.e3d_pj = require_finite(energy_3d(w, c2, c3), "E_3D");
  r.energy_ratio = require_finite(r.e2d_pj / r.e3d_pj, "energy ratio");
  r.edp_benefit = require_finite(r.speedup * r.energy_ratio, "EDP benefit");
  r.n_max = n_max(w, c3);
  return r;
}

EdpResult combine_results(const std::vector<EdpResult>& results) {
  expects(!results.empty(), "cannot combine zero results");
  EdpResult total;
  total.n_max = 1;
  for (const auto& r : results) {
    total.t2d_cycles += r.t2d_cycles;
    total.t3d_cycles += r.t3d_cycles;
    total.e2d_pj += r.e2d_pj;
    total.e3d_pj += r.e3d_pj;
    total.n_max = std::max(total.n_max, r.n_max);
  }
  ensures(total.t3d_cycles > 0.0 && total.e3d_pj > 0.0,
          "combined M3D time/energy must be positive");
  total.speedup = total.t2d_cycles / total.t3d_cycles;
  total.energy_ratio = total.e2d_pj / total.e3d_pj;
  total.edp_benefit = total.speedup * total.energy_ratio;
  return total;
}

}  // namespace uld3d::core
