// uld3d-diff — the regression localizer: join two runs' telemetry event
// streams (plus optional metrics/bench artifacts) and answer "which stage
// or sweep point got slower or hungrier, and by how much".
//
//   uld3d-diff BASE.ndjson CURRENT.ndjson
//       [--time-tol PCT] [--min-delta-us US]
//       [--alloc-tol PCT] [--min-delta-bytes N]
//       [--metrics BASE.json CURRENT.json]
//       [--bench BASE.json CURRENT.json] [--noise-mult K]
//       [--top N] [--json]
//
// Comparison model (noise gating borrowed from uld3d-bench-compare):
//   * Stages: per-stage wall_us/cpu_us totals and alloc_bytes from the
//     `stage` events.  A regression needs BOTH a relative excess
//     (cur > base * (1 + tol)) AND an absolute excess beyond a noise floor
//     (--min-delta-us / --min-delta-bytes) — single runs carry no CI, so
//     the floor plays that role.  One-sided: getting faster never fails.
//   * Points: per-grid-index dur_us joined on common indices, same wall
//     gate.  Requires both streams to carry the SAME sweep fingerprint;
//     diffing two different sweeps is an input error (exit 3), not a
//     regression.
//   * --metrics: informational join (RunId-checked against its own
//     stream); counter deltas are listed, never gated — counts legitimately
//     change with jobs/resume topology.
//   * --bench: suite medians compared with bench-compare's own CI-aware
//     gate (tol AND noise-mult x summed ci95 half-widths); these DO gate.
//
// Exit codes (asserted by tests/cli_diff.sh):
//   0  no regression beyond tolerance
//   1  at least one regression
//   2  usage error
//   3  malformed input or incomparable runs (schema, fingerprint, RunId)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report_common.hpp"
#include "uld3d/util/export.hpp"
#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/table.hpp"

namespace {

using namespace uld3d;
using report::EventStream;
using report::StreamSummary;

struct Options {
  std::string base_events;
  std::string cur_events;
  std::string base_metrics;
  std::string cur_metrics;
  std::string base_bench;
  std::string cur_bench;
  double time_tol = 0.25;           // 25% relative wall/cpu slowdown
  double min_delta_us = 10000.0;    // 10 ms absolute noise floor
  double alloc_tol = 0.50;          // 50% relative allocation growth
  double min_delta_bytes = 1 << 20; // 1 MiB absolute floor
  double noise_mult = 3.0;          // bench join: K x summed CI95
  std::size_t top = 10;
  bool json = false;
};

[[noreturn]] void usage(int exit_code) {
  (exit_code == 0 ? std::cout : std::cerr) <<
      "usage: uld3d-diff BASE.ndjson CURRENT.ndjson [options]\n"
      "options:\n"
      "  --time-tol PCT        wall/cpu slowdown tolerance per stage/point\n"
      "                        (default 25%)\n"
      "  --min-delta-us US     absolute wall/cpu noise floor (default 10000)\n"
      "  --alloc-tol PCT       allocation growth tolerance (default 50%)\n"
      "  --min-delta-bytes N   absolute allocation floor (default 1048576)\n"
      "  --metrics BASE CUR    join metrics exports (informational)\n"
      "  --bench BASE CUR      join bench suites (CI-gated, counts toward\n"
      "                        the verdict)\n"
      "  --noise-mult K        bench gate: K x summed CI95 (default 3)\n"
      "  --top N               rows to print (default 10)\n"
      "  --json                machine-readable output\n"
      "exit codes: 0 no regression, 1 regression, 2 usage,\n"
      "            3 malformed/incomparable input\n";
  std::exit(exit_code);
}

/// "25%" -> 0.25, "0.25" -> 0.25 (same grammar as uld3d-bench-compare).
double parse_tolerance(const std::string& text) {
  std::string body = text;
  double scale = 1.0;
  if (!body.empty() && body.back() == '%') {
    body.pop_back();
    scale = 0.01;
  }
  std::size_t used = 0;
  const double value = std::stod(body, &used);
  if (used != body.size() || !(value >= 0.0)) {
    throw std::invalid_argument("bad tolerance: " + text);
  }
  return value * scale;
}

/// Inputs that cannot be meaningfully compared (different sweeps, RunId
/// mismatches) — exit 3 territory, distinct from regressions.
class IncomparableError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Finding {
  std::string scope;   // "stage" | "point" | "bench"
  std::string name;
  std::string metric;  // "wall_us" | "cpu_us" | "alloc_bytes" | "median_s"
  double base = 0.0;
  double cur = 0.0;
  [[nodiscard]] double ratio() const { return base > 0.0 ? cur / base : 0.0; }
};

/// The shared one-sided gate: worse by more than `tol` relative AND more
/// than `floor` absolute.
bool regressed(double base, double cur, double tol, double floor) {
  return cur > base * (1.0 + tol) && (cur - base) > floor;
}

void diff_stages(const Options& opts, const StreamSummary& base,
                 const StreamSummary& cur, std::vector<Finding>& findings,
                 std::size_t& checked) {
  for (const auto& [name, cur_agg] : cur.stages) {
    const auto base_it = base.stages.find(name);
    if (base_it == base.stages.end()) continue;  // new stage: nothing to gate
    const report::StageAgg& base_agg = base_it->second;
    ++checked;
    if (regressed(base_agg.wall_us, cur_agg.wall_us, opts.time_tol,
                  opts.min_delta_us)) {
      findings.push_back(
          {"stage", name, "wall_us", base_agg.wall_us, cur_agg.wall_us});
    }
    if (regressed(base_agg.cpu_us, cur_agg.cpu_us, opts.time_tol,
                  opts.min_delta_us)) {
      findings.push_back(
          {"stage", name, "cpu_us", base_agg.cpu_us, cur_agg.cpu_us});
    }
    if (regressed(base_agg.alloc_bytes, cur_agg.alloc_bytes, opts.alloc_tol,
                  opts.min_delta_bytes)) {
      findings.push_back({"stage", name, "alloc_bytes", base_agg.alloc_bytes,
                          cur_agg.alloc_bytes});
    }
  }
}

void diff_points(const Options& opts, const StreamSummary& base,
                 const StreamSummary& cur, std::vector<Finding>& findings,
                 std::size_t& checked) {
  for (const auto& [index, cur_point] : cur.points_by_index) {
    const auto base_it = base.points_by_index.find(index);
    if (base_it == base.points_by_index.end()) continue;
    ++checked;
    if (regressed(base_it->second.dur_us, cur_point.dur_us, opts.time_tol,
                  opts.min_delta_us)) {
      findings.push_back({"point", "#" + std::to_string(index), "wall_us",
                          base_it->second.dur_us, cur_point.dur_us});
    }
  }
}

/// RunId-check one side's metrics export against its own stream, then
/// return name -> value for the counter-delta listing.
std::map<std::string, double> load_metrics(const std::string& path,
                                           const StreamSummary& stream_summary,
                                           const char* side) {
  const JsonValue doc = json_parse_file(path);
  const std::string run_id = doc.string_or("run_id", "");
  if (!stream_summary.has_run(run_id)) {
    throw IncomparableError(std::string(side) + " metrics " + path +
                            " labels run '" + run_id +
                            "', which is not in the " + side +
                            " event stream");
  }
  std::map<std::string, double> values;
  if (const JsonValue* metrics = doc.find("metrics");
      metrics != nullptr && metrics->is_array()) {
    for (const JsonValue& m : metrics->as_array()) {
      const std::string name = m.string_or("name", "");
      if (!name.empty()) values[name] = m.number_or("value", 0.0);
    }
  }
  return values;
}

/// Flatten a BENCH document: either one suite or a merged {"suites":[...]}
/// (same shape uld3d-bench-compare accepts).
std::vector<const JsonValue*> collect_suites(const JsonValue& root,
                                             const std::string& path) {
  std::vector<const JsonValue*> suites;
  if (const JsonValue* merged = root.find("suites"); merged != nullptr) {
    for (const JsonValue& entry : merged->as_array()) suites.push_back(&entry);
  } else if (root.find("suite") != nullptr) {
    suites.push_back(&root);
  } else {
    throw JsonParseError(path +
                         ": not a BENCH document (no \"suite\" or "
                         "\"suites\" member)");
  }
  return suites;
}

void diff_bench(const Options& opts, std::vector<Finding>& findings,
                std::size_t& checked) {
  const JsonValue base_root = json_parse_file(opts.base_bench);
  const JsonValue cur_root = json_parse_file(opts.cur_bench);
  const auto base_suites = collect_suites(base_root, opts.base_bench);
  const auto cur_suites = collect_suites(cur_root, opts.cur_bench);
  for (const JsonValue* base_suite : base_suites) {
    const std::string suite = base_suite->string_or("suite", "?");
    const JsonValue* cur_suite = nullptr;
    for (const JsonValue* candidate : cur_suites) {
      if (candidate->string_or("suite", "") == suite) {
        cur_suite = candidate;
        break;
      }
    }
    if (cur_suite == nullptr) continue;
    const JsonValue* base_benches = base_suite->find("benchmarks");
    const JsonValue* cur_benches = cur_suite->find("benchmarks");
    if (base_benches == nullptr || cur_benches == nullptr) continue;
    for (const JsonValue& base_bench : base_benches->as_array()) {
      const std::string name = base_bench.string_or("name", "");
      const JsonValue* cur_bench = nullptr;
      for (const JsonValue& candidate : cur_benches->as_array()) {
        if (candidate.string_or("name", "") == name) {
          cur_bench = &candidate;
          break;
        }
      }
      if (cur_bench == nullptr) continue;
      ++checked;
      const double base_median = base_bench.number_or("median_s", 0.0);
      const double cur_median = cur_bench->number_or("median_s", 0.0);
      if (!(base_median > 0.0)) continue;
      // bench-compare's CI-aware gate: real repeated samples, so the noise
      // term is measured rather than a fixed floor.
      const double noise =
          opts.noise_mult * (base_bench.number_or("ci95_half_width_s", 0.0) +
                             cur_bench->number_or("ci95_half_width_s", 0.0));
      if (cur_median > base_median * (1.0 + opts.time_tol) &&
          (cur_median - base_median) > noise) {
        findings.push_back(
            {"bench", suite + "/" + name, "median_s", base_median, cur_median});
      }
    }
  }
}

std::string format_amount(const Finding& f, double value) {
  if (f.metric == "alloc_bytes") {
    return format_double(value / (1024.0 * 1024.0), 2) + " MiB";
  }
  if (f.metric == "median_s") return format_double(value * 1e3, 3) + " ms";
  return format_double(value / 1e3, 2) + " ms";
}

std::string run_list(const StreamSummary& s) {
  std::string out;
  for (const report::RunInfo& run : s.runs) {
    if (!out.empty()) out += ", ";
    out += run.id.empty() ? "(unlabelled)" : run.id;
  }
  return out;
}

int run_diff(const Options& opts) {
  const EventStream base_stream = report::read_events(opts.base_events);
  const EventStream cur_stream = report::read_events(opts.cur_events);
  const StreamSummary base = report::summarize(base_stream);
  const StreamSummary cur = report::summarize(cur_stream);

  // Same-sweep check: stage/point comparisons across different sweeps are
  // meaningless, and silently diffing them is how bad dashboards happen.
  if (!base.sweep_fingerprint.empty() && !cur.sweep_fingerprint.empty() &&
      base.sweep_fingerprint != cur.sweep_fingerprint) {
    throw IncomparableError("sweep fingerprints differ (base " +
                            base.sweep_fingerprint + ", current " +
                            cur.sweep_fingerprint +
                            ") — these are different sweeps");
  }

  std::vector<Finding> findings;
  std::size_t stages_checked = 0;
  std::size_t points_checked = 0;
  std::size_t bench_checked = 0;
  diff_stages(opts, base, cur, findings, stages_checked);
  diff_points(opts, base, cur, findings, points_checked);

  std::vector<std::pair<std::string, std::pair<double, double>>> metric_deltas;
  // Cache-temperature join: a warm run (persistent MapCache store loaded)
  // legitimately prices mapper points much faster than a cold one, so a
  // temperature mismatch explains timing deltas without any code change.
  bool have_reuse = false;
  report::ReuseCounters base_reuse;
  report::ReuseCounters cur_reuse;
  if (!opts.base_metrics.empty()) {
    const auto base_vals = load_metrics(opts.base_metrics, base, "base");
    const auto cur_vals = load_metrics(opts.cur_metrics, cur, "current");
    for (const auto& [name, cur_v] : cur_vals) {
      const auto it = base_vals.find(name);
      const double base_v = it == base_vals.end() ? 0.0 : it->second;
      if (cur_v != base_v) metric_deltas.push_back({name, {base_v, cur_v}});
    }
    const auto reuse_of = [](const std::map<std::string, double>& vals) {
      report::ReuseCounters r;
      const auto grab = [&](const char* name, double& out) {
        const auto it = vals.find(name);
        if (it == vals.end()) return;
        out = it->second;
        r.any = true;
      };
      grab("mapper.mapcache.hits", r.hits);
      grab("mapper.mapcache.misses", r.misses);
      grab("mapper.mapcache.file_hits", r.file_hits);
      grab("mapper.mapcache.file_loads", r.file_loads);
      grab("mapper.mapcache.file_appends", r.file_appends);
      grab("dse.sweep.dedup_unique", r.dedup_unique);
      grab("dse.sweep.dedup_aliased", r.dedup_aliased);
      return r;
    };
    base_reuse = reuse_of(base_vals);
    cur_reuse = reuse_of(cur_vals);
    have_reuse = base_reuse.any || cur_reuse.any;
  }
  if (!opts.base_bench.empty()) {
    diff_bench(opts, findings, bench_checked);
  }

  // Rank: largest relative blow-up first — that is what a human chases.
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.ratio() != b.ratio()) return a.ratio() > b.ratio();
              return a.name < b.name;
            });

  if (opts.json) {
    std::ostringstream os;
    os << "{\"schema\": 1, \"kind\": \"diff\", \"base\": {\"source\": \""
       << json_escape(opts.base_events) << "\", \"runs\": \""
       << json_escape(run_list(base)) << "\"}, \"current\": {\"source\": \""
       << json_escape(opts.cur_events) << "\", \"runs\": \""
       << json_escape(run_list(cur)) << "\"}, \"tolerances\": {\"time_tol\": "
       << report::number_exact(opts.time_tol)
       << ", \"min_delta_us\": " << report::number_exact(opts.min_delta_us)
       << ", \"alloc_tol\": " << report::number_exact(opts.alloc_tol)
       << ", \"min_delta_bytes\": "
       << report::number_exact(opts.min_delta_bytes)
       << "}, \"checked\": {\"stages\": " << stages_checked
       << ", \"points\": " << points_checked
       << ", \"bench\": " << bench_checked << "}";
    if (have_reuse) {
      os << ", \"cache_temperature\": {\"base\": \""
         << (base_reuse.warm() ? "warm" : "cold") << "\", \"current\": \""
         << (cur_reuse.warm() ? "warm" : "cold") << "\", \"differs\": "
         << (base_reuse.warm() != cur_reuse.warm() ? "true" : "false") << "}";
    }
    os << ", \"regressions\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      if (i > 0) os << ", ";
      os << "{\"scope\": \"" << f.scope << "\", \"name\": \""
         << json_escape(f.name) << "\", \"metric\": \"" << f.metric
         << "\", \"base\": " << report::number_exact(f.base)
         << ", \"current\": " << report::number_exact(f.cur)
         << ", \"ratio\": " << report::number_exact(f.ratio()) << "}";
    }
    os << "]}\n";
    std::cout << os.str();
    return findings.empty() ? 0 : 1;
  }

  std::cout << "uld3d-diff: base [" << run_list(base) << "] vs current ["
            << run_list(cur) << "]\n";
  // A warm persistent MapCache skips the mapper's pricing work entirely, so
  // comparing a cold base against a warm current (or vice versa) yields huge
  // timing deltas with identical values; surface it so nobody chases that
  // "regression".
  if (have_reuse && base_reuse.warm() != cur_reuse.warm()) {
    std::cout << "Note: map-cache temperature differs (base "
              << (base_reuse.warm() ? "warm" : "cold") << ", current "
              << (cur_reuse.warm() ? "warm" : "cold")
              << ") — timing deltas are expected; values must still match "
              << "byte-for-byte\n";
  }
  std::cout << "Checked: " << stages_checked << " stage(s), "
            << points_checked << " point(s)";
  if (bench_checked > 0) std::cout << ", " << bench_checked << " benchmark(s)";
  std::cout << "\n";

  if (!metric_deltas.empty()) {
    std::cout << "Counter deltas (informational): " << metric_deltas.size()
              << " changed\n";
  }

  if (findings.empty()) {
    std::cout << "OK: no regression beyond tolerance (time "
              << format_double(opts.time_tol * 100.0, 0) << "%, alloc "
              << format_double(opts.alloc_tol * 100.0, 0) << "%)\n";
    return 0;
  }

  Table table({"Scope", "Name", "Metric", "Base", "Current", "Ratio"});
  const std::size_t shown = std::min(opts.top, findings.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const Finding& f = findings[i];
    table.add_row({f.scope, f.name, f.metric, format_amount(f, f.base),
                   format_amount(f, f.cur),
                   format_double(f.ratio(), 2) + "x"});
  }
  std::cout << "\n";
  table.print(std::cout, "Regressions (worst first)");
  if (findings.size() > shown) {
    std::cout << "(+" << findings.size() - shown << " more; raise --top)\n";
  }
  std::cout << "\nREGRESSION: " << findings.size()
            << " finding(s) beyond tolerance\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) usage(0);

  Options opts;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto operand = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "uld3d-diff: " << arg << " needs an operand\n";
        usage(2);
      }
      return args[++i];
    };
    try {
      if (arg == "--json") {
        opts.json = true;
      } else if (arg == "--time-tol") {
        opts.time_tol = parse_tolerance(operand());
      } else if (arg == "--min-delta-us") {
        opts.min_delta_us = std::stod(operand());
      } else if (arg == "--alloc-tol") {
        opts.alloc_tol = parse_tolerance(operand());
      } else if (arg == "--min-delta-bytes") {
        opts.min_delta_bytes = std::stod(operand());
      } else if (arg == "--noise-mult") {
        opts.noise_mult = std::stod(operand());
      } else if (arg == "--top") {
        opts.top = std::stoul(operand());
      } else if (arg == "--metrics") {
        opts.base_metrics = operand();
        opts.cur_metrics = operand();
      } else if (arg == "--bench") {
        opts.base_bench = operand();
        opts.cur_bench = operand();
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "uld3d-diff: unknown flag " << arg << "\n";
        usage(2);
      } else {
        positional.push_back(arg);
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "uld3d-diff: " << e.what() << "\n";
      usage(2);
    } catch (const std::out_of_range& e) {
      std::cerr << "uld3d-diff: " << arg << ": value out of range\n";
      usage(2);
    }
  }
  if (positional.size() != 2) usage(2);
  opts.base_events = positional[0];
  opts.cur_events = positional[1];
  if (opts.base_metrics.empty() != opts.cur_metrics.empty()) usage(2);

  try {
    return run_diff(opts);
  } catch (const JsonParseError& e) {
    std::cerr << "uld3d-diff: " << e.what() << "\n";
    return 3;
  } catch (const IncomparableError& e) {
    std::cerr << "uld3d-diff: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "uld3d-diff: " << e.what() << "\n";
    return 3;
  }
}
