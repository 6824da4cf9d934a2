#include "paper_pass.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "uld3d/accel/chip_summary.hpp"
#include "uld3d/core/folding.hpp"
#include "uld3d/core/multi_tier.hpp"
#include "uld3d/core/relaxed_baseline.hpp"
#include "uld3d/core/thermal.hpp"
#include "uld3d/core/workload.hpp"
#include "uld3d/dse/sensitivity.hpp"
#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/spatial_search.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/tech/beol_device.hpp"
#include "uld3d/tech/node_scaling.hpp"
#include "uld3d/tech/tier_stack.hpp"
#include "uld3d/util/bench.hpp"
#include "uld3d/util/math.hpp"
#include "uld3d/util/table.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::e2e {

namespace {

accel::CaseStudy case_study() {
  return call("accel.case_study", [] { return accel::CaseStudy{}; });
}

nn::Network network(const char* name) {
  return call("nn.make_network", [&] { return nn::make_network(name); });
}

sim::DesignComparison run_study(const accel::CaseStudy& study,
                                const nn::Network& net) {
  return call("accel.case_study.run", [&] { return study.run(net); });
}

std::vector<core::WorkloadPoint> layer_workloads(const nn::Network& net) {
  return call("core.layer_workloads",
              [&] { return core::layer_workloads(net, {}, {}); });
}

/// Sum the per-layer results of a relaxed (Case 1/2) design point.
core::EdpResult relaxed_total(const std::vector<core::WorkloadPoint>& workloads,
                              const core::Chip2d& c2,
                              const core::RelaxedDesignPoint& point,
                              const core::RelaxedBandwidth& bw) {
  return call("core.evaluate_relaxed_edp", [&] {
    std::vector<core::EdpResult> rs;
    for (const auto& w : workloads) {
      rs.push_back(core::evaluate_relaxed_edp(w, c2, point, bw));
    }
    return core::combine_results(rs);
  });
}

std::vector<NamedValue> table1_resnet18() {
  const accel::CaseStudy study = case_study();
  const nn::Network net = network("resnet18");
  sim::DesignComparison cmp = run_study(study, net);
  call("sim.merge_rows",
       [&] { sim::merge_rows(cmp, "CONV1", "POOL1", "CONV1+POOL"); });
  const auto n = call("accel.m3d_cs_count", [&] { return study.m3d_cs_count(); });
  return {{"total_speedup", cmp.speedup},
          {"total_energy_ratio", cmp.energy_ratio},
          {"total_edp_benefit", cmp.edp_benefit},
          {"m3d_cs_count", static_cast<double>(n)}};
}

std::vector<NamedValue> fig1_folding_contrast() {
  const auto fold = [](int tiers) {
    return call("core.evaluate_folding", [&] {
      core::FoldingInputs in;
      in.tiers = tiers;
      return core::evaluate_folding(in);
    });
  };
  const core::FoldingBenefit fold2 = fold(2);
  const core::FoldingBenefit fold3 = fold(3);
  const accel::CaseStudy study = case_study();
  const sim::DesignComparison cmp = run_study(study, network("resnet18"));
  return {{"fold_2tier_edp_benefit", fold2.edp_benefit},
          {"fold_3tier_edp_benefit", fold3.edp_benefit},
          {"arch_point_edp_benefit", cmp.edp_benefit},
          {"arch_point_speedup", cmp.speedup}};
}

std::vector<NamedValue> fig2_physical_design() {
  const accel::CaseStudy study = case_study();
  const phys::FlowInput input = case_study_flow_input(study);
  const auto n = call("accel.m3d_cs_count", [&] { return study.m3d_cs_count(); });
  const phys::FlowComparison cmp = call("phys.run_comparison", [&] {
    return phys::M3dFlow{}.run_comparison(input, n);
  });
  return {{"iso_footprint", cmp.iso_footprint ? 1.0 : 0.0},
          {"peak_density_ratio", cmp.peak_density_ratio},
          {"wirelength_per_cs_ratio", cmp.wirelength_per_cs_ratio},
          {"upper_tier_power_fraction",
           cmp.design_3d.upper_tier_power_fraction}};
}

std::vector<NamedValue> fig5_models() {
  const accel::CaseStudy study = case_study();
  std::vector<NamedValue> out;
  double min_edp = 0.0;
  double max_edp = 0.0;
  for (const char* name : {"AlexNet", "VGG-16", "ResNet-18", "ResNet-152"}) {
    const nn::Network net = network(name);
    const double edp = run_study(study, net).edp_benefit;
    min_edp = out.empty() ? edp : std::min(min_edp, edp);
    max_edp = out.empty() ? edp : std::max(max_edp, edp);
    std::string slug = net.name();
    std::replace(slug.begin(), slug.end(), '-', '_');
    std::transform(slug.begin(), slug.end(), slug.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    out.push_back({slug + "_edp_benefit", edp});
  }
  out.push_back({"min_edp_benefit", min_edp});
  out.push_back({"max_edp_benefit", max_edp});
  return out;
}

/// bench_fig7_architectures' analytical Sec.-III evaluation of one
/// Table-II architecture at the design point the mapper prices.
core::EdpResult analytical_benefit(const nn::Network& net,
                                   const mapper::Architecture& arch,
                                   const mapper::SystemCosts& sys,
                                   std::int64_t n_cs) {
  core::Chip2d c2;
  c2.bandwidth_bits_per_cycle = arch.rram_bandwidth_bits_per_cycle;
  c2.peak_ops_per_cycle = 2.0 * static_cast<double>(arch.spatial.total_pes());
  c2.alpha_pj_per_bit = arch.rram_read_pj_per_bit;
  c2.compute_pj_per_op = arch.mac_energy_pj / 2.0;
  c2.cs_idle_pj_per_cycle = sys.cs_idle_pj_per_cycle;
  c2.mem_idle_pj_per_cycle = sys.mem_idle_pj_per_cycle;

  core::Chip3d c3;
  c3.parallel_cs = n_cs;
  c3.bandwidth_bits_per_cycle =
      c2.bandwidth_bits_per_cycle * static_cast<double>(n_cs);
  c3.alpha_pj_per_bit = c2.alpha_pj_per_bit * sys.m3d_access_energy_scale;
  c3.mem_idle_pj_per_cycle =
      c2.mem_idle_pj_per_cycle *
      (1.0 + sys.extra_bank_idle_fraction * static_cast<double>(n_cs - 1));

  core::PartitionOptions part;
  part.array_cols = arch.spatial.k;
  part.array_rows = arch.spatial.c;
  part.spatial_ox = arch.spatial.ox;
  part.spatial_oy = arch.spatial.oy;
  part.channel_tap_packing = false;
  part.hybrid_pixel_partition = true;

  std::vector<core::EdpResult> per_layer;
  for (const auto& w : core::layer_workloads(net, {}, part)) {
    per_layer.push_back(core::evaluate_edp(w, c2, c3));
  }
  return core::combine_results(per_layer);
}

std::vector<NamedValue> fig7_architectures() {
  const auto pdk = call("tech.make_pdk", [] { return tech::FoundryM3dPdk::make_130nm(); });
  const nn::Network net = network("alexnet");
  const mapper::SystemCosts sys;
  const auto archs = call("mapper.table2_architectures",
                          [] { return mapper::table2_architectures(); });
  std::vector<NamedValue> out;
  double worst_diff = 0.0;
  for (const auto& arch : archs) {
    const mapper::DesignPointBenefit zz = call("mapper.evaluate_benefit", [&] {
      return mapper::evaluate_benefit(net, arch, sys, pdk);
    });
    const core::EdpResult model = call("core.analytical_benefit", [&] {
      return analytical_benefit(net, arch, sys, zz.n_cs);
    });
    worst_diff = std::max(
        worst_diff, relative_difference(model.edp_benefit, zz.edp_benefit));
    std::string slug = arch.name;
    std::transform(slug.begin(), slug.end(), slug.begin(),
                   [](unsigned char c) {
                     return std::isalnum(c) ? std::tolower(c) : '_';
                   });
    out.push_back({slug + "_zz_edp_benefit", zz.edp_benefit});
  }
  out.push_back({"worst_model_vs_mapper_diff", worst_diff});
  return out;
}

std::vector<NamedValue> fig8_bandwidth_cs() {
  core::Chip2d c2;
  c2.bandwidth_bits_per_cycle = 256.0;
  c2.peak_ops_per_cycle = 512.0;
  c2.alpha_pj_per_bit = 1.5;
  c2.compute_pj_per_op = 1.0;
  c2.cs_idle_pj_per_cycle = 2.0;
  c2.mem_idle_pj_per_cycle = 10.0;
  const auto design_point = [](std::int64_t n_cs, double bw_scale) {
    core::Chip3d c3;
    c3.parallel_cs = n_cs;
    c3.bandwidth_bits_per_cycle = 256.0 * bw_scale * static_cast<double>(n_cs);
    c3.alpha_pj_per_bit = 1.5 * 0.97;
    c3.mem_idle_pj_per_cycle =
        10.0 * (1.0 + 0.3 * static_cast<double>(n_cs - 1));
    return c3;
  };
  const double d0 = 64.0 * 1024.0 * 1024.0;
  double grid_sum = call("core.evaluate_edp", [&] {
    double sum = 0.0;
    for (const double ops_per_bit : {16.0, 1.0, 1.0 / 16.0}) {
      const core::WorkloadPoint w = core::synthetic_workload(ops_per_bit, d0, 64);
      for (const std::int64_t n : {1, 2, 4, 8, 16}) {
        for (const double bw : {0.5, 1.0, 2.0, 4.0}) {
          sum += core::evaluate_edp(w, c2, design_point(n, bw)).edp_benefit;
        }
      }
    }
    return sum;
  });
  bench::do_not_optimize(grid_sum);
  return call("core.evaluate_edp", [&]() -> std::vector<NamedValue> {
    const core::WorkloadPoint compute_bound = core::synthetic_workload(16.0, d0, 64);
    const core::WorkloadPoint memory_bound =
        core::synthetic_workload(1.0 / 16.0, d0, 64);
    const double cb =
        core::evaluate_edp(compute_bound, c2, design_point(2, 1.0)).edp_benefit;
    const double mb_fewer =
        core::evaluate_edp(memory_bound, c2, design_point(1, 2.0)).edp_benefit /
        core::evaluate_edp(memory_bound, c2, design_point(2, 1.0)).edp_benefit;
    return {{"obs5a_compute_bound_edp", cb},
            {"obs5b_memory_bound_relative_gain", mb_fewer}};
  });
}

std::vector<NamedValue> fig9_capacity() {
  const nn::Network net = network("resnet18");
  std::vector<NamedValue> out;
  for (const double mb : {12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0}) {
    const accel::CaseStudy study = call("accel.case_study", [&] {
      accel::CaseStudy s;
      s.rram_capacity_mb = mb;
      bench::do_not_optimize(s.area_model().gamma_cells());
      bench::do_not_optimize(s.m3d_cs_count());
      return s;
    });
    out.push_back({"edp_benefit_" + format_double(mb, 0) + "mb",
                   run_study(study, net).edp_benefit});
  }
  return out;
}

/// Shared shape of Fig. 10c (FET width) and Obs. 8 (via pitch): a relaxed
/// PDK per swept value, priced through the Case-1 machinery.
template <typename MakePdk>
std::vector<NamedValue> relaxed_sweep(const std::vector<double>& values,
                                      const std::string& prefix,
                                      const char* pdk_span,
                                      const MakePdk& make_pdk) {
  const accel::CaseStudy study = case_study();
  const nn::Network net = network("resnet18");
  const auto [c2, area] = call("accel.chip_params", [&] {
    return std::make_pair(study.chip2d_params(), study.area_model());
  });
  const core::RelaxedBandwidth bw{c2.bandwidth_bits_per_cycle};
  const auto workloads = layer_workloads(net);
  std::vector<NamedValue> out;
  for (const double v : values) {
    const auto pdk = call(pdk_span, [&] { return make_pdk(study.pdk, v); });
    const double scale =
        pdk.rram_bit_area_m3d_um2() / study.pdk.rram_bit_area_um2();
    const auto point = call("core.relaxed_design_point",
                            [&] { return core::relaxed_design_point(area, scale); });
    out.push_back({prefix + format_double(v, 1),
                   relaxed_total(workloads, c2, point, bw).edp_benefit});
  }
  return out;
}

std::vector<NamedValue> fig10c_fet_width() {
  return relaxed_sweep(
      {1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.5, 3.0}, "edp_benefit_delta_",
      "tech.with_fet_width_relaxation",
      [](const tech::FoundryM3dPdk& pdk, double delta) {
        return pdk.with_fet_width_relaxation(delta);
      });
}

std::vector<NamedValue> obs8_via_pitch() {
  return relaxed_sweep(
      {1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8, 2.0, 2.5}, "edp_benefit_beta_",
      "tech.with_ilv_pitch_scale",
      [](const tech::FoundryM3dPdk& pdk, double beta) {
        return pdk.with_ilv_pitch_scale(beta);
      });
}

std::vector<NamedValue> fig10d_tiers() {
  const accel::CaseStudy study = case_study();
  const nn::Network net = network("resnet18");
  const auto [c2, area] = call("accel.chip_params", [&] {
    return std::make_pair(study.chip2d_params(), study.area_model());
  });
  const auto workloads = layer_workloads(net);
  core::WorkloadPoint l41;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.layer(i).name() == "L4.1 CONV2") l41 = workloads[i];
  }
  return call("core.evaluate_multi_tier_edp", [&] {
    std::vector<NamedValue> out;
    core::EdpResult single;
    for (std::int64_t y = 1; y <= 6; ++y) {
      bench::do_not_optimize(core::multi_tier_parallel_cs(area, y));
      std::vector<core::EdpResult> layer_results;
      for (const auto& w : workloads) {
        layer_results.push_back(core::evaluate_multi_tier_edp(
            w, c2, area, y, c2.bandwidth_bits_per_cycle));
      }
      out.push_back({"resnet18_edp_benefit_y" + std::to_string(y),
                     core::combine_results(layer_results).edp_benefit});
      single = core::evaluate_multi_tier_edp(l41, c2, area, y,
                                             c2.bandwidth_bits_per_cycle);
    }
    out.push_back({"l41_conv_edp_benefit_y6", single.edp_benefit});
    return out;
  });
}

std::vector<NamedValue> obs3_sram_baseline() {
  const nn::Network net = network("resnet18");
  std::vector<NamedValue> out;
  for (const double handicap : {1.0, 1.5, 2.0}) {
    const accel::CaseStudy study = call("accel.case_study", [&] {
      accel::CaseStudy s;
      s.baseline_mem_density_handicap = handicap;
      return s;
    });
    const auto n = call("accel.m3d_cs_count", [&] { return study.m3d_cs_count(); });
    const double edp = run_study(study, net).edp_benefit;
    if (handicap == 1.0) out.push_back({"rram_baseline_edp_benefit", edp});
    if (handicap == 2.0) {
      out.push_back({"sram_2x_edp_benefit", edp});
      out.push_back({"sram_2x_cs_count", static_cast<double>(n)});
    }
  }
  return out;
}

std::vector<NamedValue> obs10_thermal() {
  const accel::CaseStudy study = case_study();
  const core::AreaModel area =
      call("accel.area_model", [&] { return study.area_model(); });
  const double die_mm2 = area.total_area_um2() / 1.0e6;
  const auto stack = call("tech.tier_stack",
                          [] { return tech::TierStack::make_m3d_130nm(); });
  return call("core.thermal", [&]() -> std::vector<NamedValue> {
    double pair_r_mm2 = 0.0;
    for (const auto& tier : stack.tiers()) {
      pair_r_mm2 += tier.thermal_resistance_mm2_k_per_w;
    }
    const double pair_r = pair_r_mm2 / die_mm2;
    const double sink_r = 1200.0 / die_mm2;
    double rise_y1 = 0.0;
    double rise_y12 = 0.0;
    for (std::int64_t y = 1; y <= 12; ++y) {
      const std::int64_t n = core::multi_tier_parallel_cs(area, y);
      const double pair_power_w =
          (static_cast<double>(n) / static_cast<double>(y) * 4.0 + 2.5) *
          1.0e-3 * 20.0;
      core::ThermalStack thermal(sink_r);
      for (std::int64_t j = 0; j < y; ++j) thermal.add_tier({pair_r, pair_power_w});
      (y == 1 ? rise_y1 : rise_y12) = thermal.temperature_rise_k();
    }
    const core::ThermalTier per_tier{pair_r, 8.0 * 4.0 * 20.0 * 1.0e-3 + 0.05};
    const std::int64_t max_pairs =
        core::ThermalStack::max_tier_pairs(sink_r, per_tier, 60.0);
    return {{"temp_rise_y1_k", rise_y1},
            {"temp_rise_y12_k", rise_y12},
            {"max_tier_pairs_60k", static_cast<double>(max_pairs)}};
  });
}

std::vector<NamedValue> datasheet() {
  const accel::CaseStudy study = case_study();
  const nn::Network net = network("resnet18");
  const accel::ChipSummary s = call("accel.summarize_chip",
                                    [&] { return accel::summarize_chip(study, net); });
  return {{"edp_benefit", s.workload.edp_benefit},
          {"power_2d_mw", s.power_2d_mw},
          {"power_3d_mw", s.power_3d_mw},
          {"inference_ms_2d", s.inference_ms_2d},
          {"inference_ms_3d", s.inference_ms_3d},
          {"iso_footprint", s.physical.iso_footprint ? 1.0 : 0.0},
          {"peak_density_ratio", s.physical.peak_density_ratio},
          {"upper_tier_power_fraction",
           s.physical.design_3d.upper_tier_power_fraction}};
}

std::vector<NamedValue> ext_beol_technologies() {
  const accel::CaseStudy study = case_study();
  const nn::Network net = network("resnet18");
  const auto [c2, area] = call("accel.chip_params", [&] {
    return std::make_pair(study.chip2d_params(), study.area_model());
  });
  const core::RelaxedBandwidth bw{c2.bandwidth_bits_per_cycle};
  const auto workloads = layer_workloads(net);
  const auto devices = call("tech.beol_technology_catalogue",
                            [] { return tech::beol_technology_catalogue(); });
  double best_edp = 0.0;
  double worst_edp = 0.0;
  int beol_compatible_count = 0;
  for (const auto& device : devices) {
    const auto pdk = call("tech.pdk_with_beol_device", [&] {
      return tech::pdk_with_beol_device(study.pdk, device);
    });
    const double scale = pdk.rram_bit_area_m3d_um2() / pdk.rram_bit_area_um2();
    const auto point = call("core.relaxed_design_point",
                            [&] { return core::relaxed_design_point(area, scale); });
    const double edp = relaxed_total(workloads, c2, point, bw).edp_benefit;
    if (device.beol_compatible()) ++beol_compatible_count;
    if (best_edp == 0.0) best_edp = worst_edp = edp;
    best_edp = std::max(best_edp, edp);
    worst_edp = std::min(worst_edp, edp);
  }
  return {{"best_edp_benefit", best_edp},
          {"worst_edp_benefit", worst_edp},
          {"beol_compatible_count", static_cast<double>(beol_compatible_count)}};
}

std::vector<NamedValue> ablation_mapping() {
  const accel::CaseStudy study = case_study();
  const nn::Network net = network("resnet18");
  struct Variant {
    bool ds_c_partition;
    bool per_cs_vector;
    std::int64_t extra_sync;
  };
  const Variant variants[] = {{true, false, 0},
                              {false, false, 0},
                              {true, true, 0},
                              {true, false, 48},
                              {false, true, 48}};
  std::vector<double> edp;
  for (const Variant& v : variants) {
    auto [c2, c3] = call("accel.config", [&] {
      return std::make_pair(study.config_2d(), study.config_3d());
    });
    for (auto* cfg : {&c2, &c3}) {
      cfg->array.ds_input_channel_partition = v.ds_c_partition;
      cfg->array.per_cs_vector_units = v.per_cs_vector;
      cfg->array.tile_sync_cycles += v.extra_sync;
    }
    edp.push_back(call("sim.compare_designs", [&] {
                    return sim::compare_designs(net, c2, c3);
                  }).edp_benefit);
  }
  return {{"baseline_edp_benefit", edp.front()},
          {"per_cs_vector_edp_benefit", edp[2]},
          {"all_relaxations_edp_benefit", edp.back()}};
}

std::vector<NamedValue> ext_sensitivity() {
  const accel::CaseStudy study = case_study();
  const nn::Network net = network("resnet18");
  const auto workloads = layer_workloads(net);
  const auto [base2d, base_area] = call("accel.chip_params", [&] {
    return std::make_pair(study.chip2d_params(), study.area_model());
  });
  const std::vector<std::string> names = {
      "gamma_cells",       "per_cs_bandwidth", "alpha_pj_per_bit",
      "peak_ops_per_cycle", "mem_idle_pj",      "cs_idle_pj"};
  const std::vector<double> baseline = {
      base_area.gamma_cells(),      base2d.bandwidth_bits_per_cycle,
      base2d.alpha_pj_per_bit,      base2d.peak_ops_per_cycle,
      base2d.mem_idle_pj_per_cycle, base2d.cs_idle_pj_per_cycle};
  const auto objective = [&](const std::vector<double>& p) {
    return call("core.evaluate_edp", [&] {
      core::AreaModel area = base_area;
      area.mem_cells_area_um2 = p[0] * area.cs_area_um2;
      core::Chip2d c2 = base2d;
      c2.bandwidth_bits_per_cycle = p[1];
      c2.alpha_pj_per_bit = p[2];
      c2.peak_ops_per_cycle = p[3];
      c2.mem_idle_pj_per_cycle = p[4];
      c2.cs_idle_pj_per_cycle = p[5];
      const std::int64_t n = area.m3d_parallel_cs();
      core::Chip3d c3;
      c3.parallel_cs = n;
      c3.bandwidth_bits_per_cycle = p[1] * static_cast<double>(n);
      c3.alpha_pj_per_bit = p[2] * 0.97;
      c3.mem_idle_pj_per_cycle = p[4] * (1.0 + 0.3 * static_cast<double>(n - 1));
      std::vector<core::EdpResult> rs;
      for (const auto& w : workloads) rs.push_back(core::evaluate_edp(w, c2, c3));
      return core::combine_results(rs).edp_benefit;
    });
  };
  const auto results = call("dse.analyze_sensitivity", [&] {
    return dse::analyze_sensitivity(names, baseline, objective);
  });
  std::vector<NamedValue> out;
  double max_abs_elasticity = 0.0;
  for (const auto& s : results) {
    if (!s.ok() || !std::isfinite(s.elasticity)) continue;
    max_abs_elasticity = std::max(max_abs_elasticity, std::abs(s.elasticity));
    out.push_back({"elasticity_" + s.parameter, s.elasticity});
  }
  out.push_back({"max_abs_elasticity", max_abs_elasticity});
  return out;
}

std::vector<NamedValue> ext_node_scaling() {
  const nn::Network net = network("resnet18");
  std::vector<NamedValue> out;
  for (const double node_nm : {130.0, 65.0, 28.0, 14.0, 7.0}) {
    accel::CaseStudy study = case_study();
    study.pdk = call("tech.scale_pdk_to_node",
                     [&] { return tech::scale_pdk_to_node(study.pdk, node_nm); });
    const double area_scale = (node_nm / 130.0) * (node_nm / 130.0);
    study.cs.sram_bit_area_um2 *= area_scale;
    call("accel.area_model", [&] {
      bench::do_not_optimize(study.area_model().total_area_um2());
      bench::do_not_optimize(study.m3d_cs_count());
    });
    out.push_back({"edp_benefit_" + format_double(node_nm, 0) + "nm",
                   run_study(study, net).edp_benefit});
  }
  return out;
}

std::vector<NamedValue> ext_spatial_search() {
  const auto pdk = call("tech.make_pdk", [] { return tech::FoundryM3dPdk::make_130nm(); });
  const nn::Network net = network("alexnet");
  const mapper::SystemCosts sys;
  const auto archs = call("mapper.table2_architectures",
                          [] { return mapper::table2_architectures(); });
  std::vector<NamedValue> out;
  double max_mapping_gain = 0.0;
  for (const auto& arch : archs) {
    const auto n = call("mapper.m3d_parallel_cs",
                        [&] { return mapper::m3d_parallel_cs(arch, pdk); });
    const auto search = [&](std::int64_t n_cs) {
      return call("mapper.evaluate_network_with_search", [&] {
        return mapper::evaluate_network_with_search(net, arch, sys, n_cs);
      });
    };
    const mapper::SearchedNetworkCost searched_2d = search(1);
    const mapper::SearchedNetworkCost searched_3d = search(n);
    max_mapping_gain = std::max(max_mapping_gain, searched_2d.edp_improvement());
    if (out.empty()) {
      out.push_back({"arch1_m3d_benefit_fixed",
                     searched_2d.fixed.edp() / searched_3d.fixed.edp()});
      out.push_back({"arch1_m3d_benefit_searched",
                     searched_2d.searched.edp() / searched_3d.searched.edp()});
    }
  }
  out.push_back({"max_mapping_gain", max_mapping_gain});
  return out;
}

}  // namespace

const std::vector<PaperRow>& paper_rows() {
  static const std::vector<PaperRow> rows = {
      {"table1_resnet18", table1_resnet18},
      {"fig1_folding_contrast", fig1_folding_contrast},
      {"fig2_physical_design", fig2_physical_design},
      {"fig5_models", fig5_models},
      {"fig7_architectures", fig7_architectures},
      {"fig8_bandwidth_cs", fig8_bandwidth_cs},
      {"fig9_capacity", fig9_capacity},
      {"fig10c_fet_width", fig10c_fet_width},
      {"fig10d_tiers", fig10d_tiers},
      {"obs3_sram_baseline", obs3_sram_baseline},
      {"obs8_via_pitch", obs8_via_pitch},
      {"obs10_thermal", obs10_thermal},
      {"datasheet", datasheet},
      {"ext_beol_technologies", ext_beol_technologies},
      {"ablation_mapping", ablation_mapping},
      {"ext_sensitivity", ext_sensitivity},
      {"ext_node_scaling", ext_node_scaling},
      {"ext_spatial_search", ext_spatial_search},
  };
  return rows;
}

phys::FlowInput case_study_flow_input(const accel::CaseStudy& study) {
  return call("accel.flow_input", [&] {
    phys::FlowInput input;
    input.pdk = study.pdk;
    input.rram_capacity_bits = study.capacity_bits();
    const double sram_area = units::kb_to_bits(study.cs.sram_buffer_kb) *
                             study.cs.sram_bit_area_um2;
    input.cs_sram_area_um2 = sram_area;
    input.cs_logic_area_um2 =
        study.cs.area_um2(study.pdk.si_library()) - sram_area;
    input.cs_logic_gates = study.cs.total_gates();
    return input;
  });
}

}  // namespace uld3d::e2e
