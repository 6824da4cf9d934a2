#include "uld3d/io/study_config.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "uld3d/util/check.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::io {

namespace {

/// One schema entry: where the key lives and what range is legal for it.
struct KeyRule {
  const char* section;
  const char* key;
  bool integer = false;
  double min = 0.0;  ///< inclusive lower bound
  bool min_exclusive = true;
  double max = 1.0e30;  ///< inclusive upper bound
};

// The CaseStudy schema from the header comment, with physical ranges.  A
// range is never wider than what FoundryM3dPdk and the CNFET library accept,
// so a validated config always builds.
constexpr KeyRule kStudyRules[] = {
    {"study", "capacity_mb", false, 0.0, true, 1.0e9},
    {"study", "mem_density_handicap", false, 0.0, true, 1.0e6},
    {"node", "feature_nm", false, 0.0, true, 1.0e5},
    {"node", "target_mhz", false, 0.0, true, 1.0e7},
    {"rram", "bits_per_cell", false, 1.0, false, 64.0},
    {"rram", "cell_area_f2", false, 0.0, true, 1.0e6},
    {"rram", "read_pj_per_bit", false, 0.0, false, 1.0e9},
    {"rram", "write_pj_per_bit", false, 0.0, false, 1.0e9},
    {"rram", "read_latency_ns", false, 0.0, false, 1.0e9},
    {"rram", "bank_read_bits", false, 0.0, true, 1.0e12},
    {"rram", "periph_area_fraction", false, 0.0, false, 0.999},
    {"cnfet", "drive_ratio", false, 0.0, true, 1.5},
    {"cnfet", "width_relaxation", false, 1.0, false, 1.0e3},
    {"cnfet", "access_energy_ratio", false, 0.0, true, 1.0e3},
    {"ilv", "pitch_nm", false, 0.0, true, 1.0e6},
    {"ilv", "vias_per_cell", false, 0.0, true, 1.0e6},
    {"cs", "pe_rows", true, 1.0, false, 1.0e6},
    {"cs", "pe_cols", true, 1.0, false, 1.0e6},
    {"cs", "gates_per_pe", true, 1.0, false, 1.0e12},
    {"cs", "control_gates", true, 0.0, false, 1.0e12},
    {"cs", "sram_kb", false, 0.0, false, 1.0e9},
};

}  // namespace

Diagnostics validate_case_study_config(const Config& c) {
  Diagnostics diag;

  // Pass 1: every schema key that is present must parse and sit in range.
  for (const KeyRule& rule : kStudyRules) {
    if (!c.has(rule.section, rule.key)) continue;
    double value = 0.0;
    try {
      value = rule.integer
                  ? static_cast<double>(c.get_int(rule.section, rule.key, 0))
                  : c.get_double(rule.section, rule.key, 0.0);
    } catch (const StatusError& error) {
      diag.add(error.failure());
      continue;
    }
    // NaN compares false with both bounds, so it is refused by name.
    const bool below =
        rule.min_exclusive ? value <= rule.min : value < rule.min;
    if (std::isnan(value) || below || value > rule.max) {
      diag.error(ErrorCode::kInvalidConfig, "value out of range")
          .with("section", rule.section)
          .with("key", rule.key)
          .with("value", value)
          .with("min", rule.min)
          .with("max", rule.max);
    }
  }

  // Pass 2: unknown sections/keys are warnings with a typo suggestion.
  std::vector<std::string> known_sections;
  for (const KeyRule& rule : kStudyRules) {
    if (known_sections.empty() || known_sections.back() != rule.section) {
      known_sections.emplace_back(rule.section);
    }
  }
  for (const std::string& section : c.section_names()) {
    const bool known_section =
        std::find(known_sections.begin(), known_sections.end(), section) !=
        known_sections.end();
    if (!known_section) {
      Failure& f = diag.warn(ErrorCode::kUnknownKey, "unknown section")
                       .with("section", section);
      const std::string suggestion = nearest_match(section, known_sections);
      if (!suggestion.empty()) f.with("did_you_mean", suggestion);
      continue;
    }
    std::vector<std::string> known_keys;
    for (const KeyRule& rule : kStudyRules) {
      if (section == rule.section) known_keys.emplace_back(rule.key);
    }
    for (const std::string& key : c.keys(section)) {
      if (std::find(known_keys.begin(), known_keys.end(), key) !=
          known_keys.end()) {
        continue;
      }
      Failure& f = diag.warn(ErrorCode::kUnknownKey, "unknown key")
                       .with("section", section)
                       .with("key", key);
      const std::string suggestion = nearest_match(key, known_keys);
      if (!suggestion.empty()) f.with("did_you_mean", suggestion);
    }
  }
  return diag;
}

accel::CaseStudy case_study_from_config(const Config& c) {
  accel::CaseStudy study;  // paper defaults
  study.rram_capacity_mb = c.get_double("study", "capacity_mb", 64.0);
  study.baseline_mem_density_handicap =
      c.get_double("study", "mem_density_handicap", 1.0);

  tech::NodeParams node;
  node.feature_nm = c.get_double("node", "feature_nm", node.feature_nm);
  node.target_frequency_mhz =
      c.get_double("node", "target_mhz", node.target_frequency_mhz);

  tech::RramParams rram;
  rram.bits_per_cell = c.get_double("rram", "bits_per_cell", rram.bits_per_cell);
  rram.cell_area_f2 = c.get_double("rram", "cell_area_f2", rram.cell_area_f2);
  rram.read_energy_pj_per_bit =
      c.get_double("rram", "read_pj_per_bit", rram.read_energy_pj_per_bit);
  rram.write_energy_pj_per_bit =
      c.get_double("rram", "write_pj_per_bit", rram.write_energy_pj_per_bit);
  rram.read_latency_ns =
      c.get_double("rram", "read_latency_ns", rram.read_latency_ns);
  rram.bank_read_bits =
      c.get_double("rram", "bank_read_bits", rram.bank_read_bits);
  rram.periph_area_fraction =
      c.get_double("rram", "periph_area_fraction", rram.periph_area_fraction);

  tech::CnfetParams cnfet;
  cnfet.drive_ratio_vs_si =
      c.get_double("cnfet", "drive_ratio", cnfet.drive_ratio_vs_si);
  cnfet.width_relaxation =
      c.get_double("cnfet", "width_relaxation", cnfet.width_relaxation);
  cnfet.access_energy_ratio =
      c.get_double("cnfet", "access_energy_ratio", cnfet.access_energy_ratio);

  tech::IlvParams ilv;
  ilv.pitch_nm = c.get_double("ilv", "pitch_nm", ilv.pitch_nm);
  ilv.vias_per_rram_cell =
      c.get_double("ilv", "vias_per_cell", ilv.vias_per_rram_cell);

  study.pdk = tech::FoundryM3dPdk(node, rram, cnfet, ilv);

  study.cs.pe_rows = c.get_int("cs", "pe_rows", study.cs.pe_rows);
  study.cs.pe_cols = c.get_int("cs", "pe_cols", study.cs.pe_cols);
  study.cs.gates_per_pe = c.get_int("cs", "gates_per_pe", study.cs.gates_per_pe);
  study.cs.control_gates =
      c.get_int("cs", "control_gates", study.cs.control_gates);
  study.cs.sram_buffer_kb = c.get_double("cs", "sram_kb", study.cs.sram_buffer_kb);
  return study;
}

Config case_study_to_config(const accel::CaseStudy& study) {
  Config c;
  const auto set_double = [&c](const char* section, const char* key,
                               double value) {
    std::ostringstream os;
    os << value;
    c.set(section, key, os.str());
  };
  set_double("study", "capacity_mb", study.rram_capacity_mb);
  set_double("study", "mem_density_handicap",
             study.baseline_mem_density_handicap);
  set_double("node", "feature_nm", study.pdk.node().feature_nm);
  set_double("node", "target_mhz", study.pdk.node().target_frequency_mhz);
  set_double("rram", "bits_per_cell", study.pdk.rram().bits_per_cell);
  set_double("rram", "cell_area_f2", study.pdk.rram().cell_area_f2);
  set_double("rram", "read_pj_per_bit", study.pdk.rram().read_energy_pj_per_bit);
  set_double("rram", "write_pj_per_bit",
             study.pdk.rram().write_energy_pj_per_bit);
  set_double("rram", "read_latency_ns", study.pdk.rram().read_latency_ns);
  set_double("rram", "bank_read_bits", study.pdk.rram().bank_read_bits);
  set_double("rram", "periph_area_fraction",
             study.pdk.rram().periph_area_fraction);
  set_double("cnfet", "drive_ratio", study.pdk.cnfet().drive_ratio_vs_si);
  set_double("cnfet", "width_relaxation", study.pdk.cnfet().width_relaxation);
  set_double("cnfet", "access_energy_ratio",
             study.pdk.cnfet().access_energy_ratio);
  set_double("ilv", "pitch_nm", study.pdk.ilv().pitch_nm);
  set_double("ilv", "vias_per_cell", study.pdk.ilv().vias_per_rram_cell);
  set_double("cs", "pe_rows", static_cast<double>(study.cs.pe_rows));
  set_double("cs", "pe_cols", static_cast<double>(study.cs.pe_cols));
  set_double("cs", "gates_per_pe", static_cast<double>(study.cs.gates_per_pe));
  set_double("cs", "control_gates",
             static_cast<double>(study.cs.control_gates));
  set_double("cs", "sram_kb", study.cs.sram_buffer_kb);
  return c;
}

namespace {

mapper::OperandBuffers buffers_from(const Config& c, const char* section) {
  mapper::OperandBuffers buffers;
  buffers.reg = {c.get_double(section, "reg_bytes", 0.0) * 8.0, 0.008, 1.0e9};
  buffers.local = {units::kb_to_bits(c.get_double(section, "local_kb", 0.0)),
                   0.04, 2048.0};
  buffers.global = {units::mb_to_bits(c.get_double(section, "global_mb", 0.0)),
                    0.15, 1024.0};
  return buffers;
}

}  // namespace

mapper::Architecture architecture_from_config(const Config& c) {
  mapper::Architecture arch;
  arch.name = c.get_string("arch", "name", "custom");
  arch.spatial.k = c.get_int("arch", "spatial_k", 16);
  arch.spatial.c = c.get_int("arch", "spatial_c", 16);
  arch.spatial.ox = c.get_int("arch", "spatial_ox", 1);
  arch.spatial.oy = c.get_int("arch", "spatial_oy", 1);
  arch.rram_capacity_bits =
      units::mb_to_bits(c.get_double("arch", "rram_mb", 256.0));
  arch.rram_bandwidth_bits_per_cycle = c.get_double(
      "arch", "rram_bw_bits_per_cycle", arch.rram_bandwidth_bits_per_cycle);
  arch.mac_energy_pj = c.get_double("arch", "mac_pj", arch.mac_energy_pj);
  arch.weights = buffers_from(c, "weights");
  arch.inputs = buffers_from(c, "inputs");
  arch.outputs = buffers_from(c, "outputs");
  arch.validate();
  return arch;
}

}  // namespace uld3d::io
