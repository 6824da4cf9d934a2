#include "uld3d/sim/network_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "uld3d/nn/zoo.hpp"
#include "uld3d/tech/pdk.hpp"
#include "uld3d/util/check.hpp"

namespace uld3d::sim {
namespace {

AcceleratorConfig cfg(std::int64_t n_cs) {
  const auto pdk = tech::FoundryM3dPdk::make_130nm();
  return n_cs == 1 ? AcceleratorConfig::baseline_2d(pdk)
                   : AcceleratorConfig::m3d_design(pdk, n_cs);
}

TEST(NetworkSim, TotalsSumOverLayers) {
  const nn::Network net = nn::make_resnet18();
  const NetworkResult r = simulate_network(net, cfg(1));
  ASSERT_EQ(r.layers.size(), net.size());
  std::int64_t cycles = 0;
  double energy = 0.0;
  for (const auto& l : r.layers) {
    cycles += l.cycles;
    energy += l.energy_pj;
  }
  EXPECT_EQ(r.total_cycles, cycles);
  EXPECT_NEAR(r.total_energy_pj, energy, 1e-3);
  EXPECT_DOUBLE_EQ(r.edp(), r.total_energy_pj * static_cast<double>(cycles));
}

TEST(NetworkSim, ComparisonRowsMatchRuns) {
  const nn::Network net = nn::make_resnet18();
  const DesignComparison cmp = compare_designs(net, cfg(1), cfg(8));
  ASSERT_EQ(cmp.layers.size(), net.size());
  for (std::size_t i = 0; i < cmp.layers.size(); ++i) {
    EXPECT_EQ(cmp.layers[i].cycles_2d, cmp.run_2d.layers[i].cycles);
    EXPECT_EQ(cmp.layers[i].cycles_3d, cmp.run_3d.layers[i].cycles);
    EXPECT_NEAR(cmp.layers[i].speedup,
                static_cast<double>(cmp.layers[i].cycles_2d) /
                    static_cast<double>(cmp.layers[i].cycles_3d),
                1e-12);
  }
  EXPECT_NEAR(cmp.edp_benefit, cmp.speedup / cmp.energy_ratio, 1e-9);
}

TEST(NetworkSim, MergeRowsCombinesCyclesAndEnergy) {
  const nn::Network net = nn::make_resnet18();
  DesignComparison cmp = compare_designs(net, cfg(1), cfg(8));
  const std::size_t before = cmp.layers.size();
  const auto conv1 = cmp.layers[0];
  const auto pool1 = cmp.layers[1];
  merge_rows(cmp, "CONV1", "POOL1", "CONV1+POOL");
  EXPECT_EQ(cmp.layers.size(), before - 1);
  const auto& merged = cmp.layers[0];
  EXPECT_EQ(merged.name, "CONV1+POOL");
  EXPECT_EQ(merged.cycles_2d, conv1.cycles_2d + pool1.cycles_2d);
  EXPECT_EQ(merged.cycles_3d, conv1.cycles_3d + pool1.cycles_3d);
  // The merged speedup interpolates the two rows.
  EXPECT_GT(merged.speedup, std::min(conv1.speedup, pool1.speedup));
  EXPECT_LT(merged.speedup, std::max(conv1.speedup, pool1.speedup));
}

TEST(NetworkSim, MergeUnknownRowsThrows) {
  const nn::Network net = nn::make_resnet18();
  DesignComparison cmp = compare_designs(net, cfg(1), cfg(8));
  EXPECT_THROW(merge_rows(cmp, "CONV1", "NOPE", "X"), PreconditionError);
}

TEST(NetworkSim, MoreCssNeverSlower) {
  const nn::Network net = nn::make_resnet18();
  const NetworkResult r1 = simulate_network(net, cfg(1));
  const NetworkResult r4 = simulate_network(net, cfg(4));
  const NetworkResult r8 = simulate_network(net, cfg(8));
  EXPECT_LT(r8.total_cycles, r4.total_cycles);
  EXPECT_LT(r4.total_cycles, r1.total_cycles);
}

bool sim_bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

TEST(NetworkSim, BatchedEnergyFinishingIsByteIdenticalToPerLayer) {
  // simulate_network must reproduce the per-layer simulate_layer results
  // bitwise, and sum the totals in layer order.
  const nn::Network net = nn::make_resnet18();
  const AcceleratorConfig config = cfg(8);

  std::vector<LayerResult> ref;
  ref.reserve(net.size());
  std::int64_t ref_cycles = 0;
  double ref_energy = 0.0;
  for (const nn::Layer& layer : net.layers()) {
    ref.push_back(simulate_layer(layer, config));
    ref_cycles += ref.back().cycles;
    ref_energy += ref.back().energy_pj;
  }

  const NetworkResult got = simulate_network(net, config);
  ASSERT_EQ(got.layers.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const LayerResult& a = got.layers[i];
    const LayerResult& b = ref[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cs_used, b.cs_used);
    EXPECT_EQ(a.memory_bound, b.memory_bound);
    EXPECT_TRUE(sim_bits_equal(a.compute_cycles, b.compute_cycles));
    EXPECT_TRUE(sim_bits_equal(a.memory_cycles, b.memory_cycles));
    EXPECT_TRUE(sim_bits_equal(a.energy_pj, b.energy_pj));
    EXPECT_TRUE(sim_bits_equal(a.compute_energy_pj, b.compute_energy_pj));
    EXPECT_TRUE(sim_bits_equal(a.memory_energy_pj, b.memory_energy_pj));
    EXPECT_TRUE(sim_bits_equal(a.idle_energy_pj, b.idle_energy_pj));
    EXPECT_TRUE(sim_bits_equal(a.utilization, b.utilization));
  }
  EXPECT_EQ(got.total_cycles, ref_cycles);
  EXPECT_TRUE(sim_bits_equal(got.total_energy_pj, ref_energy));
}

TEST(NetworkSim, EnergyRatioNearUnity) {
  // The headline iso-energy property: M3D spends ~0.97-1.0x the 2D energy.
  for (const char* name : {"alexnet", "resnet18", "vgg16"}) {
    const nn::Network net = nn::make_network(name);
    const DesignComparison cmp = compare_designs(net, cfg(1), cfg(8));
    EXPECT_GT(cmp.energy_ratio, 0.95) << name;
    EXPECT_LT(cmp.energy_ratio, 1.02) << name;
  }
}

}  // namespace
}  // namespace uld3d::sim
