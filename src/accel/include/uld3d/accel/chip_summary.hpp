// Chip-level datasheet glue: derive the physical-design flow's inputs
// (component areas AND average power) from the case study plus a simulated
// workload, then produce a Fig.-2-style datasheet for both designs.  This
// closes the loop between the architectural simulator (energy/cycles) and
// the physical-design substrate (power density, thermal) — the same
// coupling the paper's Fig. 4b flow performs with Tempus power numbers.
#pragma once

#include <string>

#include "uld3d/accel/case_study.hpp"
#include "uld3d/phys/m3d_flow.hpp"
#include "uld3d/sim/network_sim.hpp"

namespace uld3d::accel {

/// Build a phys::FlowInput for ONE of the study's designs, with power at
/// the default activation factors of the paper's Tempus runs (no workload
/// is simulated): CS power from gate energy and leakage, peripheral power
/// at the CS logic's areal density, and the in-array access and
/// CNFET-selector shares at the default read duty.
[[nodiscard]] phys::FlowInput derive_flow_input(const CaseStudy& study,
                                                bool m3d_design);

/// The full coupled run: simulate, derive power, run the physical flow.
struct ChipSummary {
  sim::DesignComparison workload;     ///< architectural comparison
  phys::FlowComparison physical;      ///< placed/routed comparison
  double power_2d_mw = 0.0;
  double power_3d_mw = 0.0;
  double inference_ms_2d = 0.0;       ///< at the PDK target frequency
  double inference_ms_3d = 0.0;
};

[[nodiscard]] ChipSummary summarize_chip(const CaseStudy& study,
                                         const nn::Network& net);

/// Render a datasheet string for humans.
[[nodiscard]] std::string datasheet(const ChipSummary& summary);

}  // namespace uld3d::accel
