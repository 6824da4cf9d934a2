#include "uld3d/sim/layer_sim.hpp"

#include <algorithm>
#include <cmath>

#include "uld3d/util/check.hpp"
#include "uld3d/util/math.hpp"
#include "uld3d/util/metrics.hpp"

namespace uld3d::sim {

namespace {

/// Per-layer activity counters.  Registry handles are stable for the
/// process lifetime, so they are looked up once, not per simulated layer.
struct LayerMetrics {
  Counter& macs;
  Counter& vector_ops;
  Counter& read_bits;
  Counter& write_bits;
};

LayerMetrics& layer_metrics() {
  MetricsRegistry& r = MetricsRegistry::instance();
  static LayerMetrics m{r.counter("sim.layer.macs"),
                        r.counter("sim.layer.vector_ops"),
                        r.counter("sim.layer.read_bits"),
                        r.counter("sim.layer.write_bits")};
  return m;
}

/// MAC/op and traffic counters for run reports.  Guarded by the enabled
/// flag so the disabled cost in the per-layer hot path is one branch.
void count_layer_activity(Counter& op_counter, double ops, double read_bits,
                          double write_bits) {
  if (!metrics_enabled()) return;
  LayerMetrics& m = layer_metrics();
  op_counter.add(static_cast<std::uint64_t>(ops));
  m.read_bits.add(static_cast<std::uint64_t>(read_bits));
  m.write_bits.add(static_cast<std::uint64_t>(write_bits));
}

/// Common energy accounting once cycles and traffic are known.
void finish_energy(const AcceleratorConfig& cfg, double read_bits,
                   double write_bits, double compute_energy, LayerResult& r) {
  const auto& mem = cfg.memory;
  const double access_scale = cfg.m3d ? mem.m3d_access_energy_scale : 1.0;
  r.compute_energy_pj = compute_energy;
  r.memory_energy_pj = access_scale * (read_bits * mem.read_energy_pj_per_bit +
                                       write_bits * mem.write_energy_pj_per_bit);

  const double cycles = static_cast<double>(r.cycles);
  const double n = static_cast<double>(cfg.n_cs);
  const double nm = static_cast<double>(r.cs_used);
  // Peripheral idle: whole-memory leakage for the layer's duration, grown by
  // the extra per-bank controllers in the banked M3D organisation.
  const double bank_scale =
      1.0 + mem.extra_bank_idle_fraction * static_cast<double>(cfg.n_banks - 1);
  const double mem_busy = std::min(r.memory_cycles, cycles);
  const double idle_mem =
      mem.mem_idle_pj_per_cycle * bank_scale * (cycles - mem_busy);
  // CS idle: unused CSs idle the whole layer; active CSs idle their slack
  // (Eq. (7) structure).
  const double compute_busy = std::min(r.compute_cycles, cycles);
  const double idle_cs =
      mem.cs_idle_pj_per_cycle *
      ((n - nm) * cycles + nm * (cycles - compute_busy));
  r.idle_energy_pj = idle_mem + idle_cs;
  r.energy_pj = r.compute_energy_pj + r.memory_energy_pj + r.idle_energy_pj;
}

/// Downsample-style projections (1x1, strided) partition over input channels
/// so their output maps colocate with the residual add that consumes them.
bool use_c_partition(const nn::ConvSpec& conv, const AcceleratorConfig& cfg,
                     const TilePlan& plan) {
  return cfg.array.ds_input_channel_partition && cfg.n_cs > 1 &&
         conv.fx == 1 && conv.fy == 1 && conv.stride > 1 && plan.c_tiles > 1;
}

LayerResult simulate_conv(const nn::Layer& layer, const AcceleratorConfig& cfg) {
  const auto& conv = layer.conv();
  const auto& arr = cfg.array;
  const auto& mem = cfg.memory;
  LayerResult r;
  r.name = layer.name();

  const TilePlan plan = plan_tiles(conv, arr);
  const bool c_partition = use_c_partition(conv, cfg, plan);
  const std::int64_t nmax =
      c_partition ? std::min<std::int64_t>(cfg.n_cs, plan.c_tiles)
                  : std::min<std::int64_t>(cfg.n_cs, plan.k_tiles);
  r.cs_used = nmax;

  // --- compute time per CS ---
  const std::int64_t k_tiles_per_cs =
      c_partition ? plan.k_tiles : ceil_div(plan.k_tiles, nmax);
  const std::int64_t c_tiles_per_cs =
      c_partition ? ceil_div(plan.c_tiles, nmax) : plan.c_tiles;
  const std::int64_t tiles_per_cs =
      k_tiles_per_cs * c_tiles_per_cs * plan.tap_groups;
  const double load_cycles =
      tile_weight_bits(arr) / mem.bank_read_bits_per_cycle;
  r.compute_cycles = static_cast<double>(
      tiles_per_cs * plan.cycles_per_tile(load_cycles, arr.tile_sync_cycles));

  // C-partitioned CSs produce partial-sum maps that the single shared vector
  // unit accumulates serially after compute.
  double reduction_cycles = 0.0;
  if (c_partition && nmax > 1) {
    const double out_elems = static_cast<double>(conv.k * conv.ox * conv.oy);
    reduction_cycles = static_cast<double>(nmax - 1) * out_elems /
                       static_cast<double>(arr.vector_ops_per_cycle);
  }

  // --- memory time per CS ---
  const double w_bits = static_cast<double>(layer.weight_bits(arr.weight_bits));
  const double i_bits =
      static_cast<double>(layer.input_bits(arr.activation_bits));
  const double o_bits =
      static_cast<double>(layer.output_bits(arr.activation_bits));
  const double n_inv = 1.0 / static_cast<double>(nmax);
  double per_cs_reads = 0.0;
  double per_cs_writes = 0.0;
  if (c_partition) {
    // Weights and inputs split by channel.  Partial-sum maps stay in SRAM
    // buffers for the reduction; only the final map is written back.
    per_cs_reads = (w_bits + i_bits) * n_inv;
    per_cs_writes = o_bits * n_inv;
  } else {
    // K-partitioning: weights and outputs split; input map replicated to
    // every CS's bank group (the paper's conservative D0*N/B_3D term).
    const double k_share = static_cast<double>(k_tiles_per_cs) /
                           static_cast<double>(plan.k_tiles);
    per_cs_reads = w_bits * k_share + i_bits;
    per_cs_writes = o_bits * k_share;
  }
  r.memory_cycles =
      per_cs_reads / mem.bank_read_bits_per_cycle +
      per_cs_writes * mem.write_bandwidth_divisor / mem.bank_read_bits_per_cycle;

  const double busy =
      std::max(r.compute_cycles, r.memory_cycles) + reduction_cycles;
  r.memory_bound = r.memory_cycles > r.compute_cycles;
  r.cycles = static_cast<std::int64_t>(std::ceil(busy)) + cfg.layer_launch_cycles;

  const double macs = static_cast<double>(layer.macs());
  r.utilization =
      macs / (static_cast<double>(nmax) * static_cast<double>(r.cycles) *
              static_cast<double>(arr.rows * arr.cols));

  count_layer_activity(layer_metrics().macs, macs, w_bits + i_bits, o_bits);
  finish_energy(cfg, w_bits + i_bits, o_bits, macs * arr.mac_energy_pj, r);
  return r;
}

LayerResult simulate_vector_layer(const nn::Layer& layer,
                                  const AcceleratorConfig& cfg) {
  const auto& arr = cfg.array;
  const auto& mem = cfg.memory;
  LayerResult r;
  r.name = layer.name();

  const std::int64_t channels =
      layer.is_pool() ? layer.pool().channels : layer.eltwise().channels;
  // One shared vector unit by default; optionally one per CS.
  const std::int64_t nmax =
      arr.per_cs_vector_units ? std::min<std::int64_t>(cfg.n_cs, channels) : 1;
  r.cs_used = nmax;

  const double ops = static_cast<double>(layer.ops());
  r.compute_cycles = ops / (static_cast<double>(arr.vector_ops_per_cycle) *
                            static_cast<double>(nmax));

  // Channel partitioning splits both input and output traffic.
  const double i_bits =
      static_cast<double>(layer.input_bits(arr.activation_bits));
  const double o_bits =
      static_cast<double>(layer.output_bits(arr.activation_bits));
  const double share = 1.0 / static_cast<double>(nmax);
  r.memory_cycles =
      i_bits * share / mem.bank_read_bits_per_cycle +
      o_bits * share * mem.write_bandwidth_divisor / mem.bank_read_bits_per_cycle;

  const double busy = std::max(r.compute_cycles, r.memory_cycles);
  r.memory_bound = r.memory_cycles > r.compute_cycles;
  r.cycles = static_cast<std::int64_t>(std::ceil(busy)) + cfg.layer_launch_cycles;
  r.utilization = 0.0;  // the systolic array is idle during vector layers

  count_layer_activity(layer_metrics().vector_ops, ops, i_bits, o_bits);
  finish_energy(cfg, i_bits, o_bits, ops * arr.vector_op_energy_pj, r);
  return r;
}

}  // namespace

LayerResult simulate_layer(const nn::Layer& layer, const AcceleratorConfig& cfg) {
  cfg.validate();
  if (layer.is_conv()) return simulate_conv(layer, cfg);
  return simulate_vector_layer(layer, cfg);
}

}  // namespace uld3d::sim
