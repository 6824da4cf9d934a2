// bench_e2e: one workload of the end-to-end benchmark (README.md).
//
//   bench_e2e --workload NAME [--seed N] (--seconds S | --samples N)
//             [--traced] [--setup-only] [--spawn-ns NS] [--report FILE]
//   bench_e2e --regen-golden
//
// Sets the workload up from the seed, runs one discarded warm-up op, then
// runs ops for S seconds (or N ops), checking every op's outputs.
//
//   untraced   tracing and metrics off; prints the end-to-end metrics.
//   --traced   alternates an untraced op with a traced one (spans on), runs
//              one more op with the metrics registry on, and prints the
//              per-layer metrics built from the stage tree and counters.
//
// Set-up time runs from --spawn-ns (the parent's CLOCK_MONOTONIC reading
// just before it started this process) to the first timed op.
// --setup-only stops there and prints only that.  The last stdout line is
// one JSON object; --report writes the whole result, with provenance,
// every sample and the stage trees.
//
// Exit codes: 0 ran (failed ops are counted, not fatal), 1 set-up failed,
// 2 usage, 3 a ULD3D_* lever or hook is set in the environment.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "span_tree.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/provenance.hpp"
#include "uld3d/util/trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace uld3d;
using namespace uld3d::e2e;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  long samples = 0;
  bool traced = false;
  bool setup_only = false;
  bool regen_golden = false;
  long long spawn_ns = -1;
  std::string report;
};

constexpr const char* kUsage =
    "usage: bench_e2e --workload NAME [--seed N] (--seconds S | --samples N)\n"
    "                 [--traced] [--setup-only] [--spawn-ns NS] [--report FILE]\n"
    "       bench_e2e --regen-golden\n"
    "workloads: paper_repro cli_cold dse_search phys_scale\n";

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "bench_e2e: " << message << "\n" << kUsage;
  std::exit(2);
}

long long parse_integer(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < 0) {
    usage(std::string("expected a non-negative integer: ") + text);
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto operand = [&]() -> const char* {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = operand();
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_integer(operand()));
    } else if (flag == "--seconds") {
      const char* text = operand();
      char* end = nullptr;
      o.seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(o.seconds > 0.0)) {
        usage(std::string("--seconds expects a positive number: ") + text);
      }
    } else if (flag == "--samples") {
      o.samples = static_cast<long>(parse_integer(operand()));
    } else if (flag == "--traced") {
      o.traced = true;
    } else if (flag == "--setup-only") {
      o.setup_only = true;
    } else if (flag == "--spawn-ns") {
      o.spawn_ns = parse_integer(operand());
    } else if (flag == "--report") {
      o.report = operand();
    } else if (flag == "--regen-golden") {
      o.regen_golden = true;
    } else {
      usage("unknown argument: " + flag);
    }
  }
  if (o.regen_golden) return o;
  if (o.workload.empty()) usage("--workload is required");
  if (!o.setup_only && (o.seconds > 0.0) == (o.samples > 0)) {
    usage("give exactly one of --seconds and --samples");
  }
  return o;
}

/// The benchmark's runs must not be steered by a library lever or test
/// hook: any ULD3D_* variable in the environment.
std::vector<std::string> uld3d_variables() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ULD3D_", 6) == 0) found.emplace_back(*e);
  }
  return found;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + exact_number(values[i]);
  }
  return out + "]";
}

struct Op {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string error;
};

Op run_op(Workload& w) {
  Op op;
  const Clock::time_point t0 = Clock::now();
  try {
    TraceSpan sample("e2e.sample", "e2e");
    op.cpu_s = w.run();
  } catch (const std::exception& error) {
    op.error = std::string("op threw: ") + error.what();
  }
  op.wall_s = since(t0);
  return op;
}

void check_op(Workload& w, Op& op) {
  if (!op.error.empty()) return;
  try {
    op.error = w.check();
  } catch (const std::exception& error) {
    op.error = std::string("check threw: ") + error.what();
  }
}

/// Ops and their outcomes, kept for the metrics and the report.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // the first few, for the report

  void add(const Op& op) {
    ++attempted;
    if (op.error.empty()) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(op.error);
    std::cerr << "bench_e2e: failed op: " << op.error << "\n";
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point main_start = Clock::now();
  const Options opt = parse_args(argc, argv);
  if (const auto vars = uld3d_variables(); !vars.empty()) {
    for (const auto& v : vars) std::cerr << "bench_e2e: refusing to run with " << v << "\n";
    return 3;
  }
  const int jobs = std::min(parallel::hardware_concurrency(), 4);
  if (opt.regen_golden) {
    regenerate_golden(jobs);
    std::cout << "golden outputs rewritten\n";
    return 0;
  }
  const Clock::time_point t0 =
      opt.spawn_ns >= 0
          ? Clock::time_point(std::chrono::nanoseconds(opt.spawn_ns))
          : main_start;

  std::unique_ptr<Workload> w = make_workload(opt.workload, jobs);
  if (w == nullptr) usage("unknown workload: " + opt.workload);
  Tally tally;
  try {
    w->setup(opt.seed);
    Op warmup = run_op(*w);
    check_op(*w, warmup);
    tally.add(warmup);
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: set-up failed: " << error.what() << "\n";
    return 1;
  }
  const double setup_s = since(t0);
  if (opt.setup_only) {
    std::cout << "{\"setup_s\": " << exact_number(setup_s) << "}\n";
    return 0;
  }

  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> traced_wall_s;
  SpanForest spans;
  std::uint64_t dropped = 0;
  TraceRecorder& recorder = TraceRecorder::instance();
  const Clock::time_point loop_start = Clock::now();
  const auto more = [&] {
    return opt.samples > 0 ? static_cast<long>(wall_s.size()) < opt.samples
                           : since(loop_start) < opt.seconds;
  };
  while (more()) {
    Op op = run_op(*w);
    check_op(*w, op);
    tally.add(op);
    wall_s.push_back(op.wall_s);
    cpu_s.push_back(op.cpu_s);
    if (!opt.traced) continue;

    recorder.set_enabled(true);
    Op traced = run_op(*w);
    recorder.set_enabled(false);
    check_op(*w, traced);
    tally.add(traced);
    traced_wall_s.push_back(traced.wall_s);
    spans.add(recorder.events());
    dropped += recorder.dropped();
    recorder.clear();
  }

  std::vector<Metric> metrics;
  Op counted;
  if (opt.traced) {
    // The counters come from one more op of their own: their updates
    // contend between threads (the report's counted_wall_s against
    // wall_s shows the cost), so they stay off while spans are timed.
    MetricsRegistry::instance().reset_values();
    MetricsRegistry::set_enabled(true);
    counted = run_op(*w);
    MetricsRegistry::set_enabled(false);
    check_op(*w, counted);
    tally.add(counted);
    const auto traced_ops = static_cast<double>(traced_wall_s.size());
    metrics = w->layer_metrics(spans, traced_ops);
    const std::string& name = opt.workload;
    metrics.push_back({name + ".unattributed_frac",
                       spans.unattributed_us() / spans.total_us("e2e.sample"),
                       "fraction"});
    metrics.push_back({name + ".trace_overhead_frac",
                       percentile(traced_wall_s, 0.5) / percentile(wall_s, 0.5) - 1.0,
                       "fraction"});
    metrics.push_back({name + ".trace_dropped", static_cast<double>(dropped),
                       "count"});
    metrics.push_back({name + ".cpu_p50_ms", percentile(cpu_s, 0.5) * 1000.0,
                       "ms"});
  } else {
    // The fastest op, not the median: other tenants of the host only ever
    // add time, in phases that outlast a run (README.md), so the minimum
    // is the steadier estimate of what the code costs.
    metrics = {{"setup_s", setup_s, "s"},
               {"wall_min_s", percentile(wall_s, 0.0), "s"},
               {"peak_rss_mb", w->peak_rss_mb(), "MB"}};
  }

  std::ostringstream metrics_json;
  metrics_json << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    metrics_json << (i > 0 ? ", " : "") << "\"" << metrics[i].name
                 << "\": {\"value\": " << exact_number(metrics[i].value)
                 << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  metrics_json << "}";
  const std::string mode = opt.traced ? "traced" : "untraced";
  const bool correct = tally.failed == 0;

  if (!opt.report.empty()) {
    Provenance provenance = capture_provenance();
    provenance.jobs = jobs;
    std::ostringstream report;
    report << "{\n  \"schema_version\": 1,\n  \"workload\": \"" << opt.workload
           << "\",\n  \"mode\": \"" << mode << "\",\n  \"seed\": " << opt.seed
           << ",\n  \"jobs\": " << jobs
           << ",\n  \"nproc\": " << parallel::hardware_concurrency()
           << ",\n  \"provenance\": " << provenance_json(provenance, 4)
           << ",\n  \"attempted\": " << tally.attempted
           << ",\n  \"failed\": " << tally.failed << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < tally.failures.size(); ++i) {
      report << (i > 0 ? ", " : "") << "\"" << json_escape(tally.failures[i]) << "\"";
    }
    report << "],\n  \"wall_s\": " << numbers(wall_s)
           << ",\n  \"cpu_s\": " << numbers(cpu_s);
    if (opt.traced) {
      report << ",\n  \"traced_wall_s\": " << numbers(traced_wall_s)
             << ",\n  \"counted_wall_s\": " << exact_number(counted.wall_s)
             << ",\n  \"trees\": "
             << spans.to_json(static_cast<double>(traced_wall_s.size()));
    }
    report << ",\n  \"metrics\": " << metrics_json.str() << "\n}\n";
    if (!write_file_atomic(opt.report, report.str())) {
      std::cerr << "bench_e2e: cannot write " << opt.report << "\n";
      return 1;
    }
  }
  std::cout << "{\"workload\": \"" << opt.workload << "\", \"mode\": \"" << mode
            << "\", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics_json.str() << "}\n";
  return 0;
}
