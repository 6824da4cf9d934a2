// Microbenchmarks of the library's computational kernels: network
// simulation, mapper evaluation, analytical model, placement, and the full
// flow.  These measure the cost of the tools themselves (useful when
// sweeping large design spaces), not the modeled hardware.
//
// Formerly a google-benchmark binary; now on the shared util/bench harness
// so the kernels emit the same BENCH_*.json artifact as the reproduction
// suites.  Fast kernels time a fixed inner-loop batch and report ns/op as
// named timing values; the instrumentation-overhead numbers keep their
// contract:
// a *disabled* counter add or trace span must stay in the
// single-relaxed-load-plus-branch cost class.
#include <cstdint>
#include <iostream>
#include <limits>
#include <vector>

#include "uld3d/accel/case_study.hpp"
#include "uld3d/core/edp_model.hpp"
#include "uld3d/core/workload.hpp"
#include "uld3d/mapper/batch_eval.hpp"
#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/phys/m3d_flow.hpp"
#include "uld3d/util/bench.hpp"
#include "uld3d/util/flightrec.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/rng.hpp"
#include "uld3d/util/simd.hpp"
#include "uld3d/util/telemetry.hpp"
#include "uld3d/util/trace.hpp"
#include "uld3d/util/units.hpp"

namespace {

using namespace uld3d;

constexpr std::int64_t kCounterOps = 1 << 20;  // 1Mi adds per timed sample
constexpr std::int64_t kSpanOps = 1 << 16;     // 64Ki spans per timed sample

phys::FlowInput case_study_flow_input() {
  const accel::CaseStudy study;
  phys::FlowInput input;
  input.pdk = study.pdk;
  input.rram_capacity_bits = study.capacity_bits();
  const double sram = units::kb_to_bits(study.cs.sram_buffer_kb) *
                      study.cs.sram_bit_area_um2;
  input.cs_sram_area_um2 = sram;
  input.cs_logic_area_um2 = study.cs.area_um2(study.pdk.si_library()) - sram;
  input.cs_logic_gates = study.cs.total_gates();
  return input;
}

double ns_per_op(const bench::Stats& stats, std::int64_t ops) {
  return stats.median_s / static_cast<double>(ops) * 1e9;
}

/// A large deterministic candidate pool for the SoA batch-eval kernels:
/// the three real candidates of a ResNet-ish conv, replicated with jittered
/// traffic volumes so every slot prices differently (the jitter scales keep
/// all quantities positive and finite).
std::vector<mapper::TemporalMapping> synthetic_candidates(
    const nn::ConvSpec& conv, const mapper::Architecture& arch,
    std::size_t n) {
  const auto seeds = mapper::candidate_mappings(conv, arch);
  std::vector<mapper::TemporalMapping> out;
  out.reserve(n);
  Rng rng(0x5eedcafe);
  const auto jitter = [&](mapper::OperandTraffic& t) {
    const double s = 0.5 + rng.uniform();
    t.reg_bits *= s;
    t.local_bits *= s;
    t.global_bits *= s;
    t.rram_read_bits *= s;
    t.rram_write_bits *= s;
  };
  for (std::size_t i = 0; i < n; ++i) {
    mapper::TemporalMapping m = seeds[i % seeds.size()];
    m.compute_cycles *= 0.5 + rng.uniform();
    jitter(m.weights);
    jitter(m.inputs);
    jitter(m.outputs);
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("perf_kernels", argc, argv);
  const accel::CaseStudy study;
  const nn::Network resnet18 = nn::make_resnet18();
  const nn::Network resnet152 = nn::make_resnet152();
  const auto cfg3d = study.config_3d();

  // --- simulation / mapper / analytical kernels -----------------------------
  const auto sim18 = h.time("simulate_resnet18",
                            [&] { return sim::simulate_network(resnet18, cfg3d); });
  h.time("simulate_resnet152",
         [&] { return sim::simulate_network(resnet152, cfg3d); });

  {
    const auto arch = mapper::make_table2_architecture(1);
    const nn::Network alexnet = nn::make_alexnet();
    const mapper::SystemCosts sys;
    h.time("mapper_alexnet_arch1",
           [&] { return mapper::evaluate_network(alexnet, arch, sys, 8); });
  }

  // --- SoA batch candidate evaluation vs the seed scalar loop ---------------
  // 4096 jittered candidates priced per sample.  The scalar leg is the seed
  // path (price_candidate_scalar + strict-< argmin); the batch leg is
  // evaluate_candidates with whatever SIMD dispatch the host offers.  Both
  // must crown the same winner — that agreement is a hard fidelity value.
  double batch_winner_edp = 0.0;
  double batch_scalar_winner_match = 0.0;
  {
    const auto arch = mapper::make_table2_architecture(1);
    const mapper::SystemCosts sys;
    nn::ConvSpec conv;
    conv.name = "bench";
    conv.k = 256;
    conv.c = 128;
    conv.ox = 28;
    conv.oy = 28;
    conv.fx = 3;
    conv.fy = 3;
    const std::size_t kCandidates = 4096;
    const auto pool = synthetic_candidates(conv, arch, kCandidates);

    const auto scalar_eval = [&] {
      mapper::LayerCost best;
      double best_edp = std::numeric_limits<double>::infinity();
      for (const auto& m : pool) {
        mapper::LayerCost c =
            mapper::price_candidate_scalar(conv, m, arch, sys, 8);
        const double edp = c.latency_cycles * c.energy_pj;
        if (edp < best_edp) {
          best_edp = edp;
          best = c;
        }
      }
      return best;
    };
    mapper::CandidateBatch scratch;
    const auto batch_eval = [&] {
      return mapper::evaluate_candidates(conv, pool, arch, sys, 8, scratch);
    };

    const mapper::LayerCost scalar_best = scalar_eval();
    const mapper::LayerCost batch_best = batch_eval();
    batch_winner_edp = batch_best.latency_cycles * batch_best.energy_pj;
    batch_scalar_winner_match =
        (batch_best.latency_cycles == scalar_best.latency_cycles &&
         batch_best.energy_pj == scalar_best.energy_pj &&
         batch_best.mapping_order == scalar_best.mapping_order)
            ? 1.0
            : 0.0;

    h.time("candidate_eval_scalar_4k", scalar_eval);
    h.time("candidate_eval_batch_4k", batch_eval);
  }

  {
    const core::TrafficOptions traffic;
    const core::PartitionOptions part;
    h.time("analytical_network_workload",
           [&] { return core::network_workload(resnet152, traffic, part); });
  }

  double anchor_edp_benefit = 0.0;
  {
    const core::Chip2d c2 = study.chip2d_params();
    const core::Chip3d c3 = study.chip3d_params();
    const core::WorkloadPoint w = core::synthetic_workload(4.0, 1.0e9, 16);
    anchor_edp_benefit = core::evaluate_edp(w, c2, c3).edp_benefit;
    h.time("analytical_edp_4096", [&] {
      double acc = 0.0;
      for (int i = 0; i < 4096; ++i) {
        acc += core::evaluate_edp(w, c2, c3).edp_benefit;
      }
      return acc;
    });
  }

  {
    const phys::FlowInput input = case_study_flow_input();
    const phys::M3dFlow flow;
    h.time("phys_flow_2d", [&] { return flow.run_design(input, false, 1); });
    h.time("phys_flow_m3d", [&] { return flow.run_design(input, true, 8); });
  }

  // --- instrumentation overhead ---------------------------------------------
  // The contract is zero-cost-when-disabled: a disabled counter add or span
  // is a single relaxed atomic load plus a branch.  The Disabled timings
  // quantify the tax the instrumented kernels above pay by default; the
  // Enabled timings bound the cost when --profile / --trace is on.
  Counter& counter = MetricsRegistry::instance().counter("bench.overhead.counter");

  MetricsRegistry::set_enabled(false);
  h.time("metrics_counter_disabled_1m", [&] {
    for (std::int64_t i = 0; i < kCounterOps; ++i) {
      counter.add();
      bench::do_not_optimize(counter);
    }
  });
  MetricsRegistry::set_enabled(true);
  h.time("metrics_counter_enabled_1m", [&] {
    for (std::int64_t i = 0; i < kCounterOps; ++i) {
      counter.add();
      bench::do_not_optimize(counter);
    }
  });
  MetricsRegistry::set_enabled(false);
  MetricsRegistry::instance().reset_values();

  // Note: since the flight recorder landed, a "disabled" TraceSpan still
  // writes one always-on flightrec begin/end record pair (~two ring pushes),
  // so trace_span_disabled_ns_per_op bounds flightrec span cost too.
  TraceRecorder::instance().set_enabled(false);
  h.time("trace_span_disabled_64k", [&] {
    for (std::int64_t i = 0; i < kSpanOps; ++i) {
      TraceSpan span("bench.overhead.span", "bench");
      bench::do_not_optimize(span);
    }
  });
  TraceRecorder::instance().clear();
  TraceRecorder::instance().set_enabled(true);
  h.time("trace_span_enabled_64k", [&] {
    TraceRecorder::instance().clear();
    for (std::int64_t i = 0; i < kSpanOps; ++i) {
      TraceSpan span("bench.overhead.span", "bench");
      bench::do_not_optimize(span);
    }
  });
  TraceRecorder::instance().set_enabled(false);
  TraceRecorder::instance().clear();

  // Telemetry events share the contract: a disabled emit_* is one relaxed
  // atomic load plus a predicted branch (no sink open by default).  The
  // sink reference is hoisted like real emit sites do (they cache it — or
  // the enabled() bool — outside their loops).  The enabled number bounds
  // the serialize-and-buffer cost per event; the write(2)s land in
  // /dev/null so the sample times the library, not a disk.
  EventSink& sink = EventSink::instance();
  h.time("telemetry_event_disabled_1m", [&] {
    for (std::int64_t i = 0; i < kCounterOps; ++i) {
      sink.emit_stage("bench.overhead.event", 1.0);
      bench::do_not_optimize(i);
    }
  });
  sink.open("/dev/null");
  h.time("telemetry_event_enabled_64k", [&] {
    for (std::int64_t i = 0; i < kSpanOps; ++i) {
      sink.emit_stage("bench.overhead.event", 1.0);
      bench::do_not_optimize(i);
    }
  });
  sink.close();

  // The flight recorder has no disabled state — its whole point is being
  // there when a crash happens — so these pin its absolute cost: a ring
  // record is a relaxed fetch_add plus a fixed-size slot fill, targeted at
  // the single-digit-ns class.
  h.time("flightrec_event_1m", [&] {
    for (std::int64_t i = 0; i < kCounterOps; ++i) {
      flightrec::event("bench.overhead.flightrec",
                       static_cast<std::uint64_t>(i));
      bench::do_not_optimize(i);
    }
  });
  h.time("flightrec_span_pair_1m", [&] {
    for (std::int64_t i = 0; i < kCounterOps; ++i) {
      flightrec::span_begin("bench.overhead.flightrec");
      flightrec::span_end();
      bench::do_not_optimize(i);
    }
  });

  MetricsRegistry::set_enabled(true);
  h.time("simulate_resnet18_instrumented",
         [&] { return sim::simulate_network(resnet18, cfg3d); });
  MetricsRegistry::set_enabled(false);
  MetricsRegistry::instance().reset_values();

  // --- named values: per-op overheads + a model-fidelity anchor -------------
  // The overhead numbers come from the wall clock, so they are recorded as
  // timing values: the comparator gates them with --time-tol (advisory on
  // shared runners), never with the exact fidelity gate.
  h.timing_value("counter_disabled_ns_per_op",
                 ns_per_op(h.stats("metrics_counter_disabled_1m"), kCounterOps),
                 "ns");
  h.timing_value("counter_enabled_ns_per_op",
                 ns_per_op(h.stats("metrics_counter_enabled_1m"), kCounterOps),
                 "ns");
  h.timing_value("trace_span_disabled_ns_per_op",
                 ns_per_op(h.stats("trace_span_disabled_64k"), kSpanOps), "ns");
  h.timing_value("trace_span_enabled_ns_per_op",
                 ns_per_op(h.stats("trace_span_enabled_64k"), kSpanOps), "ns");
  h.timing_value(
      "telemetry_event_disabled_ns_per_op",
      ns_per_op(h.stats("telemetry_event_disabled_1m"), kCounterOps), "ns");
  h.timing_value("telemetry_event_enabled_ns_per_op",
                 ns_per_op(h.stats("telemetry_event_enabled_64k"), kSpanOps),
                 "ns");
  h.timing_value("flightrec_event_ns_per_op",
                 ns_per_op(h.stats("flightrec_event_1m"), kCounterOps), "ns");
  h.timing_value("flightrec_span_pair_ns_per_op",
                 ns_per_op(h.stats("flightrec_span_pair_1m"), kCounterOps),
                 "ns");
  {
    const double plain = h.stats("simulate_resnet18").median_s;
    const double instrumented =
        h.stats("simulate_resnet18_instrumented").median_s;
    if (plain > 0.0) {
      h.timing_value("sim_instrumentation_overhead", instrumented / plain,
                     "ratio");
    }
  }
  {
    const std::size_t kCandidates = 4096;
    const double scalar_ns =
        ns_per_op(h.stats("candidate_eval_scalar_4k"),
                  static_cast<std::int64_t>(kCandidates));
    const double batch_ns = ns_per_op(h.stats("candidate_eval_batch_4k"),
                                      static_cast<std::int64_t>(kCandidates));
    h.timing_value("candidate_eval_scalar_ns_per_candidate", scalar_ns, "ns");
    h.timing_value("candidate_eval_batch_ns_per_candidate", batch_ns, "ns");
  }
  // A deterministic model output pins fidelity alongside the timings: the
  // synthetic-workload EDP benefit the analytical kernel computes.
  h.value("synthetic_edp_benefit_anchor", anchor_edp_benefit, "ratio");
  // Batch-eval fidelity: the batched argmin's winner EDP (deterministic on
  // the fixed synthetic pool) and its agreement with the scalar winner.
  // Both are exact-gated — a dispatch-dependent value here would mean the
  // determinism contract of DESIGN.md §16 is broken.
  h.value("batch_candidate_winner_edp", batch_winner_edp, "cycles*pJ");
  h.value("batch_scalar_winner_match", batch_scalar_winner_match, "bool");
  bench::do_not_optimize(sim18);
  return h.finish();
}
