#include "uld3d/accel/chip_summary.hpp"

#include <sstream>

#include "uld3d/util/check.hpp"
#include "uld3d/util/table.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::accel {

phys::FlowInput derive_flow_input(const CaseStudy& study, bool m3d_design) {
  phys::FlowInput input;
  input.pdk = study.pdk;
  input.rram_capacity_bits = study.capacity_bits();
  const double sram_area = units::kb_to_bits(study.cs.sram_buffer_kb) *
                           study.cs.sram_bit_area_um2;
  input.cs_sram_area_um2 = sram_area;
  input.cs_logic_area_um2 =
      study.cs.area_um2(study.pdk.si_library()) - sram_area;
  input.cs_logic_gates = study.cs.total_gates();
  input.target_frequency_mhz = study.pdk.node().target_frequency_mhz;

  // The paper runs Cadence Tempus with DEFAULT ACTIVATION FACTORS: every
  // circuit toggles at a fixed rate regardless of the workload, so power is
  // proportional to placed area.  Identical circuits then have identical
  // areal density in both designs, and the M3D peak-density delta comes
  // only from the thin upper tiers stacked above the Si logic — exactly
  // Observation 2's +~1%.
  const auto cfg = m3d_design ? study.config_3d() : study.config_2d();
  const double period = study.pdk.clock_period_ns();
  constexpr double kDefaultActivation = 0.2;  // toggles per cycle per gate
  const auto& lib = study.pdk.si_library();
  input.cs_dynamic_mw_each =
      static_cast<double>(study.cs.total_gates()) * lib.gate_energy_pj() *
          kDefaultActivation / period +
      study.cs.leakage_mw(lib);
  // Peripheral logic at the same areal density as the CS logic.
  const double logic_density_mw_per_um2 =
      input.cs_dynamic_mw_each /
      (input.cs_logic_area_um2 + input.cs_sram_area_um2);
  const auto macro = study.pdk.rram_macro(
      input.rram_capacity_bits, static_cast<int>(cfg.n_banks), m3d_design);
  input.mem_periph_dynamic_mw = macro.periph_area_um2 * logic_density_mw_per_um2;
  // In-array access power at default read duty; the access FETs (the CNFET
  // tier in M3D) gate a fraction of it.
  const double banks = static_cast<double>(cfg.n_banks);
  const double array_mw = banks * cfg.memory.bank_read_bits_per_cycle *
                          cfg.memory.read_energy_pj_per_bit *
                          kDefaultActivation / period;
  input.mem_cell_access_mw = array_mw * 0.07;  // bitline/cell slice
  input.cnfet_selector_mw = array_mw * 0.02;   // selector gates
  ensures(input.cs_dynamic_mw_each > 0.0, "derived CS power must be positive");
  return input;
}

ChipSummary summarize_chip(const CaseStudy& study, const nn::Network& net) {
  ChipSummary s;
  // Each design is characterized at the default activation factors, then
  // placed; the M3D design is held to the 2D footprint (iso-footprint
  // comparison).
  const phys::FlowInput input_2d = derive_flow_input(study, false);
  const phys::FlowInput input_3d = derive_flow_input(study, true);
  const phys::M3dFlow flow;
  s.workload = study.run(net);
  s.physical.design_2d = flow.run_design(input_2d, false, 1);
  s.physical.design_3d =
      flow.run_design(input_3d, true, study.m3d_cs_count(),
                      s.physical.design_2d.die_width_um,
                      s.physical.design_2d.die_height_um);
  s.physical.iso_footprint = true;
  if (s.physical.design_2d.total_wirelength_um > 0.0 &&
      s.physical.design_3d.cs_placed > 0) {
    s.physical.wirelength_per_cs_ratio =
        (s.physical.design_3d.total_wirelength_um /
         static_cast<double>(s.physical.design_3d.cs_placed)) /
        s.physical.design_2d.total_wirelength_um;
  }
  if (s.physical.design_2d.peak_density_mw_per_mm2 > 0.0) {
    s.physical.peak_density_ratio =
        s.physical.design_3d.peak_density_mw_per_mm2 /
        s.physical.design_2d.peak_density_mw_per_mm2;
  }
  s.power_2d_mw = s.physical.design_2d.total_power_mw;
  s.power_3d_mw = s.physical.design_3d.total_power_mw;
  const double period_ms = study.pdk.clock_period_ns() * 1.0e-6;
  s.inference_ms_2d =
      static_cast<double>(s.workload.run_2d.total_cycles) * period_ms;
  s.inference_ms_3d =
      static_cast<double>(s.workload.run_3d.total_cycles) * period_ms;
  return s;
}

std::string datasheet(const ChipSummary& s) {
  Table table({"Metric", "2D baseline", "M3D (this work)"});
  const auto& p2 = s.physical.design_2d;
  const auto& p3 = s.physical.design_3d;
  table.add_row({"Footprint (mm^2)", format_double(p2.footprint_mm2, 1),
                 format_double(p3.footprint_mm2, 1)});
  table.add_row({"Computing sub-systems", std::to_string(p2.cs_placed),
                 std::to_string(p3.cs_placed)});
  table.add_row({"Si utilization",
                 format_double(p2.si_utilization * 100.0, 1) + "%",
                 format_double(p3.si_utilization * 100.0, 1) + "%"});
  table.add_row({"Clock (MHz)",
                 format_double(p2.timing.achieved_frequency_mhz, 1),
                 format_double(p3.timing.achieved_frequency_mhz, 1)});
  table.add_row({"Inference latency (ms)", format_double(s.inference_ms_2d, 2),
                 format_double(s.inference_ms_3d, 2)});
  table.add_row({"Power, default activation (mW)", format_double(s.power_2d_mw, 1),
                 format_double(s.power_3d_mw, 1)});
  table.add_row({"Peak density (mW/mm^2)",
                 format_double(p2.peak_density_mw_per_mm2, 2),
                 format_double(p3.peak_density_mw_per_mm2, 2)});
  table.add_row({"Upper-tier power", "n/a",
                 format_double(p3.upper_tier_power_fraction * 100.0, 2) + "%"});
  table.add_row({"Speedup / EDP benefit", "1.00x / 1.00x",
                 format_ratio(s.workload.speedup) + " / " +
                     format_ratio(s.workload.edp_benefit)});
  std::ostringstream os;
  table.print(os, s.workload.network + " chip datasheet");
  return os.str();
}

}  // namespace uld3d::accel
