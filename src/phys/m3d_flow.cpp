#include "uld3d/phys/m3d_flow.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "uld3d/util/check.hpp"
#include "uld3d/util/log.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/rng.hpp"
#include "uld3d/util/trace.hpp"

namespace uld3d::phys {

M3dFlow::M3dFlow(PlacerOptions placer_options, std::uint64_t seed)
    : placer_options_(placer_options), seed_(seed) {}

namespace {

struct DesignAreas {
  double cells_um2 = 0.0;
  double periph_um2 = 0.0;
  double cs_um2 = 0.0;     // logic + SRAM of ONE CS
  double bus_um2 = 0.0;
};

DesignAreas compute_areas(const FlowInput& input, bool m3d,
                          std::int64_t cs_count) {
  DesignAreas a;
  const auto macro = input.pdk.rram_macro(
      input.rram_capacity_bits, static_cast<int>(std::max<std::int64_t>(
                                    1, m3d ? cs_count : 1)),
      m3d);
  a.cells_um2 = macro.cell_array_area_um2;
  a.periph_um2 = macro.periph_area_um2;
  a.cs_um2 = input.cs_logic_area_um2 + input.cs_sram_area_um2;
  a.bus_um2 = 0.03 * (a.cells_um2 + a.periph_um2 + a.cs_um2);
  return a;
}

}  // namespace

DesignReport M3dFlow::run_design(const FlowInput& input, bool m3d,
                                 std::int64_t cs_count, double die_width_um,
                                 double die_height_um) const {
  expects(input.rram_capacity_bits > 0.0, "RRAM capacity must be positive");
  expects(input.cs_logic_area_um2 > 0.0 && input.cs_sram_area_um2 > 0.0,
          "CS areas must be positive");
  expects(input.cs_logic_gates > 0, "CS gate count must be positive");
  expects(cs_count >= 1, "at least one CS");

  if (die_width_um <= 0.0 || die_height_um <= 0.0) {
    // Auto-sized die: if placement fails at the initial whitespace, grow the
    // die a few percent and re-floorplan — the iteration loop of a real
    // flow's floorplan step.
    DesignReport report = run_design_once(input, m3d, cs_count, 0.0, 0.0);
    for (int attempt = 0; attempt < 6 && !report.feasible; ++attempt) {
      const double grown = report.die_width_um * 1.05;
      report = run_design_once(input, m3d, cs_count, grown, grown);
    }
    return report;
  }
  return run_design_once(input, m3d, cs_count, die_width_um, die_height_um);
}

DesignReport M3dFlow::run_design_once(const FlowInput& input, bool m3d,
                                      std::int64_t cs_count,
                                      double die_width_um,
                                      double die_height_um) const {
  DesignReport report;
  report.name = m3d ? "M3D" : "2D";
  TraceSpan design_span(m3d ? "phys.flow.design_m3d" : "phys.flow.design_2d",
                        "phys", TraceSpan::kStage);
  MetricsRegistry::instance().counter("phys.flow.designs").add();
  const DesignAreas areas = compute_areas(input, m3d, cs_count);
  const std::int64_t banks = m3d ? cs_count : 1;

  // --- die sizing (floorplan step) ---
  if (die_width_um <= 0.0 || die_height_um <= 0.0) {
    // Everything sits side by side in the Si tier; 12% whitespace, the
    // routability margin a block-level flow typically needs.
    const double total =
        (areas.cells_um2 + areas.periph_um2 +
         areas.cs_um2 * static_cast<double>(m3d ? 1 : cs_count) + areas.bus_um2) *
        1.12;
    die_width_um = std::sqrt(total);
    die_height_um = std::sqrt(total);
  }
  report.die_width_um = die_width_um;
  report.die_height_um = die_height_um;
  report.footprint_mm2 = die_width_um * die_height_um / 1.0e6;

  // The floorplan step includes building the die's occupancy tables.
  std::optional<TraceSpan> floorplan_span(std::in_place, "phys.flow.floorplan",
                                          "phys");
  const auto stack = m3d ? tech::TierStack::make_m3d_130nm()
                         : tech::TierStack::make_2d_baseline_130nm();
  Floorplan fp(die_width_um, die_height_um, stack, /*bin_um=*/50.0);

  // --- macro placement: RRAM arrays as one macro per bank, peripherals as
  //     strips beside their bank ---
  // Hard macros reshape through a small aspect ladder if the first-choice
  // shape does not fit (mirroring a floorplanner's macro legalization).
  const auto place_with_aspects = [&fp](const Macro& proto) {
    constexpr double kAspects[] = {1.0, 2.0, 0.5, 4.0, 0.25, 8.0, 0.125};
    for (const double aspect : kAspects) {
      Macro m = proto;
      const double area = proto.area_um2();
      m.width_um = std::sqrt(area * aspect);
      m.height_um = std::sqrt(area / aspect);
      if (fp.place_macro_anywhere(m)) return true;
    }
    return false;
  };

  // RRAM arrays are physically organized as multiple sub-array macros per
  // bank group (Fig. 2b/2d show several array tiles), which also packs well.
  const std::int64_t subarrays_per_bank = m3d ? 1 : 4;
  const double sub_cells =
      areas.cells_um2 / static_cast<double>(banks * subarrays_per_bank);
  const double sub_periph =
      areas.periph_um2 / static_cast<double>(banks * subarrays_per_bank);
  std::vector<std::size_t> bank_macro_index;
  std::vector<std::size_t> periph_macro_index;
  for (std::int64_t b = 0; b < banks; ++b) {
    const std::string suffix = "_bank" + std::to_string(b);
    for (std::int64_t s = 0; s < subarrays_per_bank; ++s) {
      const std::string name = "rram" + suffix + "_" + std::to_string(s);
      const Macro array = m3d ? Macro::rram_array_m3d(name, sub_cells)
                              : Macro::rram_array_2d(name, sub_cells);
      if (!place_with_aspects(array)) {
        log_warning("flow: RRAM array did not fit: " + name);
        MetricsRegistry::instance().counter("phys.flow.infeasible").add();
        return report;  // infeasible
      }
      if (s == 0) bank_macro_index.push_back(fp.macros().size() - 1);
      // Each sub-array carries its own strip of sense amps/controllers.
      const Macro periph = Macro::rram_periph(
          "periph" + suffix + "_" + std::to_string(s), sub_periph);
      if (!place_with_aspects(periph)) {
        log_warning("flow: peripheral strip did not fit: " + periph.name);
        MetricsRegistry::instance().counter("phys.flow.infeasible").add();
        return report;
      }
      if (s == 0) periph_macro_index.push_back(fp.macros().size() - 1);
    }
  }
  MetricsRegistry::instance()
      .counter("phys.flow.macros_placed")
      .add(fp.macros().size());
  floorplan_span.reset();

  // --- CS placement: logic + SRAM soft blocks, pulled toward their bank ---
  std::vector<SoftBlock> blocks;
  for (std::int64_t c = 0; c < cs_count; ++c) {
    const std::size_t bank =
        bank_macro_index[static_cast<std::size_t>(c % banks)];
    SoftBlock logic;
    logic.name = "cs" + std::to_string(c) + "_logic";
    logic.area_um2 = input.cs_logic_area_um2;
    logic.tier = tech::TierKind::kSiCmosFeol;
    logic.affinities = {{bank, 1.0}};
    blocks.push_back(logic);
    // Buffers split into two SRAM macros (ping/pong halves of the double
    // buffer), which also pack into smaller gaps.
    for (int half = 0; half < 2; ++half) {
      SoftBlock sram;
      sram.name = "cs" + std::to_string(c) + "_sram" + std::to_string(half);
      sram.area_um2 = input.cs_sram_area_um2 / 2.0;
      sram.tier = tech::TierKind::kSiCmosFeol;
      sram.affinities = {{bank, 0.5}};
      blocks.push_back(sram);
    }
  }
  Rng rng(seed_);
  const Placer placer(placer_options_);
  const PlacementResult placement = [&] {
    TraceSpan place_span("phys.flow.place", "phys");
    return placer.place(fp, blocks, rng);
  }();
  if (metrics_enabled()) {
    MetricsRegistry& registry = MetricsRegistry::instance();
    registry.counter("phys.flow.blocks_placed").add(placement.blocks.size());
    if (!placement.success) registry.counter("phys.flow.infeasible").add();
  }
  report.cs_placed = static_cast<std::int64_t>(placement.blocks.size() / 3);
  report.feasible = placement.success;
  report.unplaced = placement.unplaced;
  report.placed_macros = fp.macros();
  report.placed_blocks = placement.blocks;
  report.si_utilization = fp.utilization(tech::TierKind::kSiCmosFeol);

  // --- route estimate ---
  const WirelengthParams wl_params;
  {
    TraceSpan route_span("phys.flow.route", "phys");
    report.intra_cs_wirelength_um =
        donath_total_wirelength_um(input.cs_logic_gates,
                                   input.cs_logic_area_um2, wl_params) *
        static_cast<double>(cs_count);
    report.placement_hpwl_um = placement.total_hpwl_um;
    report.inter_block_wirelength_um = placement.total_hpwl_um * 64.0;  // bus width
    report.total_wirelength_um =
        report.intra_cs_wirelength_um + report.inter_block_wirelength_um;
    report.buffers = estimate_buffers(report.total_wirelength_um, wl_params);
    if (m3d) {
      const double cells =
          input.rram_capacity_bits / input.pdk.rram().bits_per_cell;
      report.ilv_count = static_cast<std::int64_t>(
          cells * input.pdk.ilv().vias_per_rram_cell);
    }

    // --- global-routing congestion: every CS block routes a bus to its
    //     bank group (64-track data for logic, 32-track for buffer halves) ---
    // `placement.blocks` omits unplaced blocks, so the source CS must come
    // from source_index (the soft blocks were pushed [logic, sram0, sram1]
    // per CS) — deriving it from the position `i` would shift every block
    // after an unplaced one onto the wrong bank.
    std::vector<Route> routes;
    for (std::size_t i = 0; i < placement.blocks.size(); ++i) {
      const std::size_t cs = placement.source_index[i] / 3;
      const std::size_t bank =
          bank_macro_index[cs % bank_macro_index.size()];
      const bool is_logic =
          placement.blocks[i].macro.name.find("_logic") != std::string::npos;
      routes.push_back({placement.blocks[i].rect.center(),
                        fp.macros()[bank].rect.center(),
                        is_logic ? 64.0 : 32.0});
    }
    const CongestionMap congestion(die_width_um, die_height_um, routes);
    report.bus_routes = routes;
    report.congestion_peak = congestion.peak_utilization();
    report.congestion_overflow = congestion.overflow_fraction();
  }

  // --- timing ---
  {
    TraceSpan timing_span("phys.flow.timing", "phys");
    double critical_wire = 0.0;
    for (const auto& block : placement.blocks) {
      for (const std::size_t bank : bank_macro_index) {
        // Longest CS-to-its-bank route actually used.
        critical_wire = std::max(
            critical_wire, center_distance(block.rect, fp.macros()[bank].rect));
      }
    }
    report.timing = estimate_timing(input.pdk.si_library(), TimingParams{},
                                    critical_wire, wl_params.buffer_interval_um,
                                    input.target_frequency_mhz);
  }

  // --- power ---
  TraceSpan power_span("phys.flow.power", "phys");
  PowerModel power;
  for (std::size_t i = 0; i < placement.blocks.size(); ++i) {
    const auto& block = placement.blocks[i];
    const bool is_logic = block.macro.name.find("_logic") != std::string::npos;
    power.add({block.macro.name, tech::TierKind::kSiCmosFeol, block.rect,
               is_logic ? input.cs_dynamic_mw_each : 0.1});
  }
  // Memory power spreads over ALL array / peripheral macros by area share
  // (a bank's sense amps are distributed along its sub-array strips).
  double array_area = 0.0;
  double periph_area = 0.0;
  for (const auto& m : fp.macros()) {
    if (m.macro.kind == MacroKind::kRramArray) array_area += m.rect.area();
    if (m.macro.kind == MacroKind::kRramPeriph) periph_area += m.rect.area();
  }
  for (const auto& m : fp.macros()) {
    if (m.macro.kind == MacroKind::kRramArray) {
      const double share = m.rect.area() / array_area;
      // In-array access power lives on the RRAM tier; the selector
      // switching power lives on the CNFET tier in M3D (on Si below in 2D).
      power.add({"cells_" + m.macro.name, tech::TierKind::kRram, m.rect,
                 input.mem_cell_access_mw * share});
      power.add({"sel_" + m.macro.name,
                 m3d ? tech::TierKind::kCnfetFeol : tech::TierKind::kSiCmosFeol,
                 m.rect, input.cnfet_selector_mw * share});
    } else if (m.macro.kind == MacroKind::kRramPeriph) {
      const double share = m.rect.area() / periph_area;
      power.add({"power_" + m.macro.name, tech::TierKind::kSiCmosFeol, m.rect,
                 input.mem_periph_dynamic_mw * share});
    }
  }
  report.total_power_mw = power.total_mw();
  report.tier_power = power.per_tier();
  report.power = power;
  report.upper_tier_power_fraction = power.upper_tier_fraction();
  report.peak_density_mw_per_mm2 =
      power.peak_density_mw_per_mm2(die_width_um, die_height_um);
  return report;
}

FlowComparison M3dFlow::run_comparison(const FlowInput& input,
                                       std::int64_t m3d_cs_count) const {
  FlowComparison cmp;
  cmp.design_2d = run_design(input, /*m3d=*/false, /*cs_count=*/1);
  cmp.design_3d = run_design(input, /*m3d=*/true, m3d_cs_count,
                             cmp.design_2d.die_width_um,
                             cmp.design_2d.die_height_um);
  cmp.iso_footprint =
      std::abs(cmp.design_3d.footprint_mm2 - cmp.design_2d.footprint_mm2) <
      1e-9;
  if (cmp.design_2d.total_wirelength_um > 0.0 && cmp.design_3d.cs_placed > 0) {
    cmp.wirelength_per_cs_ratio =
        (cmp.design_3d.total_wirelength_um /
         static_cast<double>(cmp.design_3d.cs_placed)) /
        cmp.design_2d.total_wirelength_um;
  }
  if (cmp.design_2d.peak_density_mw_per_mm2 > 0.0) {
    cmp.peak_density_ratio = cmp.design_3d.peak_density_mw_per_mm2 /
                             cmp.design_2d.peak_density_mw_per_mm2;
  }
  return cmp;
}

}  // namespace uld3d::phys
