#include "uld3d/sim/network_sim.hpp"

#include <algorithm>
#include <cmath>

#include "uld3d/util/check.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/status.hpp"
#include "uld3d/util/trace.hpp"

namespace uld3d::sim {

NetworkResult simulate_network(const nn::Network& net,
                               const AcceleratorConfig& cfg) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  Counter& m_layers = registry.counter("sim.network.layers");
  registry.counter("sim.network.runs").add();
  TraceSpan network_span("sim.network", "sim", TraceSpan::kStage);

  NetworkResult result;
  result.network = net.name();
  result.layers.reserve(net.size());
  for (const auto& layer : net.layers()) {
    TraceSpan layer_span(layer.name(), "sim");
    m_layers.add();
    LayerResult r = simulate_layer(layer, cfg);
    if (r.cycles < 0 || !std::isfinite(r.energy_pj) || r.energy_pj < 0.0) {
      throw StatusError(Failure(ErrorCode::kNumericalError,
                                "layer simulation produced a bad result")
                            .with("network", net.name())
                            .with("layer", r.name)
                            .with("cycles", r.cycles)
                            .with("energy_pj", r.energy_pj));
    }
    result.total_cycles += r.cycles;
    result.total_energy_pj += r.energy_pj;
    result.layers.push_back(std::move(r));
  }
  return result;
}

namespace {

LayerComparison make_row(const std::string& name, const LayerResult& l2d,
                         const LayerResult& l3d) {
  LayerComparison row;
  row.name = name;
  row.cycles_2d = l2d.cycles;
  row.cycles_3d = l3d.cycles;
  row.speedup = static_cast<double>(l2d.cycles) / static_cast<double>(l3d.cycles);
  row.energy_ratio = l3d.energy_pj / l2d.energy_pj;
  row.edp_benefit = row.speedup * (l2d.energy_pj / l3d.energy_pj);
  return row;
}

}  // namespace

DesignComparison compare_designs(const nn::Network& net,
                                 const AcceleratorConfig& cfg_2d,
                                 const AcceleratorConfig& cfg_3d) {
  DesignComparison cmp;
  cmp.network = net.name();
  cmp.run_2d = simulate_network(net, cfg_2d);
  cmp.run_3d = simulate_network(net, cfg_3d);
  ensures(cmp.run_2d.layers.size() == cmp.run_3d.layers.size(),
          "designs must simulate the same layer list");
  for (std::size_t i = 0; i < cmp.run_2d.layers.size(); ++i) {
    cmp.layers.push_back(make_row(cmp.run_2d.layers[i].name,
                                  cmp.run_2d.layers[i], cmp.run_3d.layers[i]));
  }
  cmp.speedup = static_cast<double>(cmp.run_2d.total_cycles) /
                static_cast<double>(cmp.run_3d.total_cycles);
  cmp.energy_ratio = cmp.run_3d.total_energy_pj / cmp.run_2d.total_energy_pj;
  cmp.edp_benefit =
      cmp.speedup * (cmp.run_2d.total_energy_pj / cmp.run_3d.total_energy_pj);
  return cmp;
}

void merge_rows(DesignComparison& cmp, const std::string& first,
                const std::string& second, const std::string& merged_name) {
  const auto find_row = [&](const std::string& name) {
    return std::find_if(cmp.layers.begin(), cmp.layers.end(),
                        [&](const LayerComparison& r) { return r.name == name; });
  };
  const auto it1 = find_row(first);
  const auto it2 = find_row(second);
  expects(it1 != cmp.layers.end() && it2 != cmp.layers.end(),
          "rows to merge not found: " + first + " + " + second);

  // Recover the underlying energies from the per-design runs by name.
  const auto energy_of = [](const NetworkResult& run, const std::string& name) {
    const auto it = std::find_if(run.layers.begin(), run.layers.end(),
                                 [&](const LayerResult& l) { return l.name == name; });
    expects(it != run.layers.end(), "layer not found in run: " + name);
    return it->energy_pj;
  };

  LayerComparison merged;
  merged.name = merged_name;
  merged.cycles_2d = it1->cycles_2d + it2->cycles_2d;
  merged.cycles_3d = it1->cycles_3d + it2->cycles_3d;
  merged.speedup = static_cast<double>(merged.cycles_2d) /
                   static_cast<double>(merged.cycles_3d);
  const double e2d =
      energy_of(cmp.run_2d, first) + energy_of(cmp.run_2d, second);
  const double e3d =
      energy_of(cmp.run_3d, first) + energy_of(cmp.run_3d, second);
  merged.energy_ratio = e3d / e2d;
  merged.edp_benefit = merged.speedup * (e2d / e3d);

  *it1 = merged;
  cmp.layers.erase(it2 < it1 ? it2 : find_row(second));
}

}  // namespace uld3d::sim
