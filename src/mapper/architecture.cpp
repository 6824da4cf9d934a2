#include "uld3d/mapper/architecture.hpp"

#include <algorithm>

#include "uld3d/util/check.hpp"

namespace uld3d::mapper {

namespace {

// Storage densities at 130 nm: dense register files vs. 6T SRAM arrays.
constexpr double kRegFileBitAreaUm2 = 1.2;
constexpr double kSramBitAreaUm2 = 2.0;
// Logic complexity of one PE (8-bit MAC + pipeline) in gate equivalents.
constexpr std::int64_t kGatesPerPe = 600;
// Control, DMA engines, vector unit, and the NoC of a 1024-PE CS.
constexpr std::int64_t kControlGates = 500000;
// Placement utilization.
constexpr double kPlacementUtilization = 0.75;

double operand_reg_bits(const OperandBuffers& b, std::int64_t pes) {
  return b.reg.capacity_bits * static_cast<double>(pes);
}

}  // namespace

double Architecture::buffer_bits() const {
  const std::int64_t pes = spatial.total_pes();
  return operand_reg_bits(weights, pes) + operand_reg_bits(inputs, pes) +
         operand_reg_bits(outputs, pes) + weights.local.capacity_bits +
         inputs.local.capacity_bits + outputs.local.capacity_bits;
}

double Architecture::global_sram_bits() const {
  return std::max({weights.global.capacity_bits, inputs.global.capacity_bits,
                   outputs.global.capacity_bits});
}

double Architecture::cs_area_um2(const tech::StdCellLibrary& lib) const {
  validate();
  const std::int64_t pes = spatial.total_pes();
  const double logic =
      static_cast<double>(pes * kGatesPerPe + kControlGates) *
      lib.gate_area_um2();
  const double regs = (operand_reg_bits(weights, pes) +
                       operand_reg_bits(inputs, pes) +
                       operand_reg_bits(outputs, pes)) *
                      kRegFileBitAreaUm2;
  const double srams = (weights.local.capacity_bits +
                        inputs.local.capacity_bits +
                        outputs.local.capacity_bits) *
                       kSramBitAreaUm2;
  return (logic + regs + srams) / kPlacementUtilization;
}

void Architecture::validate() const {
  // Runs on every temporal mapping: the messages name the architecture, so
  // they are only built on failure.
  if (!(spatial.k >= 1 && spatial.c >= 1 && spatial.ox >= 1 &&
        spatial.oy >= 1)) {
    expects(false, "spatial unrolling factors must be >= 1: " + name);
  }
  // total_pes() and cs_area_um2's gate count must fit in 64 bits.
  std::int64_t pes = 0;
  std::int64_t gates = 0;
  if (__builtin_mul_overflow(spatial.k, spatial.c, &pes) ||
      __builtin_mul_overflow(pes, spatial.ox, &pes) ||
      __builtin_mul_overflow(pes, spatial.oy, &pes) ||
      __builtin_mul_overflow(pes, kGatesPerPe, &gates) ||
      __builtin_add_overflow(gates, kControlGates, &gates)) {
    expects(false, "PE count overflows 64-bit gate arithmetic: " + name);
  }
  if (!(rram_capacity_bits > 0.0)) {
    expects(false, "RRAM capacity must be positive: " + name);
  }
  if (!(rram_bandwidth_bits_per_cycle > 0.0)) {
    expects(false, "RRAM bandwidth must be positive: " + name);
  }
  if (!(weight_bits > 0 && activation_bits > 0 && psum_bits > 0)) {
    expects(false, "precisions must be positive: " + name);
  }
}

}  // namespace uld3d::mapper
