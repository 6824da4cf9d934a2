// uld3d-bench-compare — the noise-aware perf-regression and model-fidelity
// gate over BENCH_*.json documents (written by util/bench).
//
//   uld3d-bench-compare BASELINE.json CURRENT.json
//       [--time-tol 15%] [--value-tol 1e-9] [--noise-mult 3]
//       [--time-advisory] [--verbose]
//   uld3d-bench-compare merge OUT.json IN1.json [IN2.json ...]
//
// Compare mode matches suites by name, then:
//   * fidelity values ("values"): fails when the relative difference of a
//     named value exceeds --value-tol (default 1e-9), or when a baseline
//     value/suite is missing from the current run — model drift is never
//     "noise";
//   * timings: fails when the current median exceeds the baseline median by
//     more than --time-tol (default 15%) AND the gap exceeds
//     --noise-mult x the summed 95% CI half-widths of both runs, so a
//     noisy CI machine does not produce flaky timing verdicts;
//   * timing-derived values ("timing_values": ns/op, overhead ratios, ...):
//     wall-clock-derived scalars that can never reproduce exactly, so they
//     fail only when the current value exceeds the baseline by more than
//     --time-tol, and their regressions are TIMING-class (demoted by
//     --time-advisory), never fidelity failures.
//
// Exit codes (this tool's contract, asserted by tests/cli_bench_compare.sh):
//   0  no regression
//   1  timing regression only (demoted to 0 by --time-advisory)
//   2  fidelity-value regression (dominates a simultaneous timing one)
//   3  usage error or malformed/unreadable JSON input
//
// Merge mode concatenates suite documents (single-suite or already-merged)
// into one {"schema_version":1,"suites":[...]} document, used by the suite
// driver to publish BENCH_all.json.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tolerance.hpp"
#include "uld3d/util/bench.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/table.hpp"

namespace {

using namespace uld3d;
using tools::parse_tolerance;

struct CompareOptions {
  std::string baseline_path;
  std::string current_path;
  double time_tol = 0.15;
  double value_tol = 1e-9;
  double noise_mult = 3.0;
  bool time_advisory = false;
  bool verbose = false;
};

[[noreturn]] void usage(int exit_code) {
  (exit_code == 0 ? std::cout : std::cerr) <<
      "usage: uld3d-bench-compare BASELINE.json CURRENT.json [options]\n"
      "       uld3d-bench-compare merge OUT.json IN1.json [IN2.json ...]\n"
      "options:\n"
      "  --time-tol PCT    allowed median (and timing-value) slowdown,\n"
      "                    e.g. 15% or 0.15\n"
      "  --value-tol REL   allowed relative fidelity-value drift (1e-9)\n"
      "  --noise-mult K    slowdown must exceed K x summed CI95 half-widths\n"
      "  --time-advisory   report timing regressions but exit 0 for them\n"
      "  --verbose         print every check, not only failures\n"
      "exit codes: 0 pass, 1 timing regression, 2 fidelity regression,\n"
      "            3 usage/malformed input\n";
  std::exit(exit_code);
}

/// A parsed suite document plus where it came from (for messages).
struct SuiteDoc {
  std::string name;
  const JsonValue* doc = nullptr;
};

/// Flatten a BENCH document: either one suite or a merged {"suites":[...]}.
std::vector<SuiteDoc> collect_suites(const JsonValue& root,
                                     const std::string& path) {
  std::vector<SuiteDoc> suites;
  if (const JsonValue* merged = root.find("suites"); merged != nullptr) {
    for (const JsonValue& entry : merged->as_array()) {
      suites.push_back({entry.at("suite").as_string(), &entry});
    }
  } else if (root.find("suite") != nullptr) {
    suites.push_back({root.at("suite").as_string(), &root});
  } else {
    throw JsonParseError(path + ": not a BENCH document (no \"suite\" or "
                         "\"suites\" member)");
  }
  for (const SuiteDoc& s : suites) {
    const double version = s.doc->number_or("schema_version", -1.0);
    if (version != static_cast<double>(bench::kBenchSchemaVersion)) {
      throw JsonParseError(path + ": suite '" + s.name +
                           "' has unsupported schema_version");
    }
  }
  return suites;
}

const JsonValue* find_named(const JsonValue& doc, const char* member,
                            const std::string& name) {
  const JsonValue* list = doc.find(member);
  if (list == nullptr || !list->is_array()) return nullptr;
  for (const JsonValue& entry : list->as_array()) {
    if (entry.string_or("name", "") == name) return &entry;
  }
  return nullptr;
}

double relative_diff(double baseline, double current) {
  const double denom = std::max(std::abs(baseline), 1e-300);
  return std::abs(current - baseline) / denom;
}

std::string format_seconds(double s) {
  return format_double(s * 1e3, 3) + " ms";
}

int run_compare(const CompareOptions& opts) {
  JsonValue baseline_root;
  JsonValue current_root;
  std::vector<SuiteDoc> baseline;
  std::vector<SuiteDoc> current;
  try {
    baseline_root = json_parse_file(opts.baseline_path);
    current_root = json_parse_file(opts.current_path);
    baseline = collect_suites(baseline_root, opts.baseline_path);
    current = collect_suites(current_root, opts.current_path);
  } catch (const Error& e) {
    std::cerr << "uld3d-bench-compare: " << e.what() << "\n";
    return 3;
  }

  const auto current_suite = [&](const std::string& name) -> const JsonValue* {
    for (const SuiteDoc& s : current) {
      if (s.name == name) return s.doc;
    }
    return nullptr;
  };

  Table failures({"Suite", "Check", "Baseline", "Current", "Delta",
                  "Verdict"});
  int timing_regressions = 0;
  int fidelity_regressions = 0;
  int timing_checks = 0;
  int value_checks = 0;

  for (const SuiteDoc& base_suite : baseline) {
    const JsonValue* cur = current_suite(base_suite.name);
    if (cur == nullptr) {
      failures.add_row({base_suite.name, "(suite)", "present", "MISSING", "-",
                        "FIDELITY"});
      ++fidelity_regressions;
      continue;
    }

    // Model-fidelity values: exact-ish comparison, never noise-gated.
    if (const JsonValue* values = base_suite.doc->find("values");
        values != nullptr && values->is_array()) {
      for (const JsonValue& base_value : values->as_array()) {
        const std::string name = base_value.string_or("name", "");
        if (name.empty()) continue;
        ++value_checks;
        const JsonValue* cur_value = find_named(*cur, "values", name);
        if (cur_value == nullptr) {
          failures.add_row({base_suite.name, name, "present", "MISSING", "-",
                            "FIDELITY"});
          ++fidelity_regressions;
          continue;
        }
        const JsonValue* bv = base_value.find("value");
        const JsonValue* cv = cur_value->find("value");
        // Non-finite values are emitted as strings ("nan"/"inf"); treat any
        // representation change as drift, matching string forms as equal.
        const bool base_num = bv != nullptr && bv->is_number();
        const bool cur_num = cv != nullptr && cv->is_number();
        bool failed = false;
        std::string base_text;
        std::string cur_text;
        std::string delta_text = "-";
        if (base_num && cur_num) {
          const double diff = relative_diff(bv->as_number(), cv->as_number());
          failed = diff > opts.value_tol;
          base_text = format_double(bv->as_number(), 9);
          cur_text = format_double(cv->as_number(), 9);
          delta_text = "rel " + format_double(diff, 12);
        } else {
          base_text = base_num ? format_double(bv->as_number(), 9)
                               : (bv != nullptr && bv->is_string()
                                      ? bv->as_string()
                                      : "?");
          cur_text = cur_num ? format_double(cv->as_number(), 9)
                             : (cv != nullptr && cv->is_string()
                                    ? cv->as_string()
                                    : "?");
          failed = base_text != cur_text;
        }
        if (failed) {
          failures.add_row({base_suite.name, name, base_text, cur_text,
                            delta_text, "FIDELITY"});
          ++fidelity_regressions;
        } else if (opts.verbose) {
          std::cout << "ok value " << base_suite.name << "/" << name << " ("
                    << delta_text << ")\n";
        }
      }
    }

    // Timing-derived values (ns/op, overhead ratios): wall-clock numbers
    // without per-sample CIs, gated one-sided at the timing tolerance and
    // reported with the TIMING class so --time-advisory demotes them.
    if (const JsonValue* tvalues = base_suite.doc->find("timing_values");
        tvalues != nullptr && tvalues->is_array()) {
      for (const JsonValue& base_value : tvalues->as_array()) {
        const std::string name = base_value.string_or("name", "");
        if (name.empty()) continue;
        ++timing_checks;
        const JsonValue* cur_value = find_named(*cur, "timing_values", name);
        if (cur_value == nullptr) {
          failures.add_row({base_suite.name, name, "present", "MISSING", "-",
                            "TIMING"});
          ++timing_regressions;
          continue;
        }
        const JsonValue* bv = base_value.find("value");
        const JsonValue* cv = cur_value->find("value");
        const bool both_num = bv != nullptr && bv->is_number() &&
                              cv != nullptr && cv->is_number();
        if (!both_num) continue;  // "nan"/"inf" strings: nothing to gate
        const double base_v = bv->as_number();
        const double cur_v = cv->as_number();
        if (!(base_v > 0.0)) continue;  // nothing to gate against
        const double slowdown = cur_v / base_v;
        if (cur_v > base_v * (1.0 + opts.time_tol)) {
          failures.add_row({base_suite.name, name, format_double(base_v, 4),
                            format_double(cur_v, 4), format_ratio(slowdown, 2),
                            "TIMING"});
          ++timing_regressions;
        } else if (opts.verbose) {
          std::cout << "ok timing value " << base_suite.name << "/" << name
                    << " (" << format_ratio(slowdown, 2) << ")\n";
        }
      }
    }

    // Timings: median slowdown beyond tolerance AND beyond combined noise.
    if (const JsonValue* benches = base_suite.doc->find("benchmarks");
        benches != nullptr && benches->is_array()) {
      for (const JsonValue& base_bench : benches->as_array()) {
        const std::string name = base_bench.string_or("name", "");
        if (name.empty()) continue;
        const JsonValue* cur_bench = find_named(*cur, "benchmarks", name);
        if (cur_bench == nullptr) {
          // A renamed/removed benchmark is reported with the timing class:
          // it breaks comparability but says nothing about model outputs.
          failures.add_row({base_suite.name, name, "present", "MISSING", "-",
                            "TIMING"});
          ++timing_regressions;
          continue;
        }
        ++timing_checks;
        const double base_median = base_bench.number_or("median_s", 0.0);
        const double cur_median = cur_bench->number_or("median_s", 0.0);
        if (!(base_median > 0.0)) continue;  // nothing to gate against
        const double slowdown = cur_median / base_median;
        const double noise =
            opts.noise_mult *
            (base_bench.number_or("ci95_half_width_s", 0.0) +
             cur_bench->number_or("ci95_half_width_s", 0.0));
        const bool beyond_tol = cur_median > base_median * (1.0 + opts.time_tol);
        const bool beyond_noise = (cur_median - base_median) > noise;
        if (beyond_tol && beyond_noise) {
          failures.add_row({base_suite.name, name, format_seconds(base_median),
                            format_seconds(cur_median),
                            format_ratio(slowdown, 2), "TIMING"});
          ++timing_regressions;
        } else if (opts.verbose) {
          std::cout << "ok timing " << base_suite.name << "/" << name << " ("
                    << format_ratio(slowdown, 2) << ", noise gate "
                    << format_seconds(noise) << ")\n";
        }
      }
    }
  }

  for (const SuiteDoc& s : current) {
    bool known = false;
    for (const SuiteDoc& b : baseline) known = known || b.name == s.name;
    if (!known) {
      std::cout << "note: suite '" << s.name
                << "' is new in the current run (no baseline)\n";
    }
  }

  if (fidelity_regressions > 0 || timing_regressions > 0) {
    failures.print(std::cout, "Regressions vs " + opts.baseline_path);
  }
  std::cout << "Checked " << value_checks << " fidelity values and "
            << timing_checks << " timings across " << baseline.size()
            << " baseline suites: " << fidelity_regressions
            << " fidelity regressions, " << timing_regressions
            << " timing regressions (time-tol "
            << format_double(opts.time_tol * 100.0, 1) << "%, value-tol "
            << opts.value_tol << ").\n";

  if (fidelity_regressions > 0) return 2;
  if (timing_regressions > 0) {
    if (opts.time_advisory) {
      std::cout << "timing regressions are advisory on this run "
                   "(--time-advisory); exiting 0\n";
      return 0;
    }
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

int run_merge(const std::vector<std::string>& args) {
  if (args.size() < 2) usage(3);
  const std::string out_path = args[0];
  std::ostringstream os;
  os << "{\n  \"schema_version\": " << bench::kBenchSchemaVersion
     << ",\n  \"suites\": [";
  bool first = true;
  for (std::size_t i = 1; i < args.size(); ++i) {
    JsonValue root;
    try {
      root = json_parse_file(args[i]);
    } catch (const Error& e) {
      std::cerr << "uld3d-bench-compare: " << e.what() << "\n";
      return 3;
    }
    std::vector<SuiteDoc> suites;
    try {
      suites = collect_suites(root, args[i]);
    } catch (const Error& e) {
      std::cerr << "uld3d-bench-compare: " << e.what() << "\n";
      return 3;
    }
    // Re-emit each input file's text per suite.  Single-suite inputs are
    // appended verbatim (minus trailing whitespace); merged inputs are
    // re-serialized through the per-suite documents' original text being
    // unavailable, so we simply disallow double-merging beyond one level by
    // re-reading the file for each suite entry.
    std::ifstream file(args[i]);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    std::string text = buffer.str();
    while (!text.empty() &&
           (text.back() == '\n' || text.back() == ' ' || text.back() == '\r')) {
      text.pop_back();
    }
    if (root.find("suites") != nullptr) {
      std::cerr << "uld3d-bench-compare: merge input " << args[i]
                << " is already merged; pass the per-suite files instead\n";
      return 3;
    }
    if (!first) os << ",";
    first = false;
    os << "\n" << text;
  }
  os << "\n  ]\n}\n";
  // Atomic (write-temp-then-rename): a crash mid-merge must not leave a
  // half-written file where a later bench-compare run would find it.
  if (!write_file_atomic(out_path, os.str())) {
    std::cerr << "uld3d-bench-compare: cannot write output " << out_path
              << "\n";
    return 3;
  }
  std::cout << "Merged " << args.size() - 1 << " suite files into "
            << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) usage(0);
  if (!args.empty() && args[0] == "merge") {
    return run_merge({args.begin() + 1, args.end()});
  }

  CompareOptions opts;
  std::vector<std::string> positional;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      const auto operand = [&]() -> const std::string& {
        if (i + 1 >= args.size()) {
          std::cerr << "uld3d-bench-compare: " << arg << " needs an operand\n";
          usage(3);
        }
        return args[++i];
      };
      if (arg == "--time-tol") {
        opts.time_tol = parse_tolerance(operand());
      } else if (arg == "--value-tol") {
        opts.value_tol = parse_tolerance(operand());
      } else if (arg == "--noise-mult") {
        opts.noise_mult = parse_tolerance(operand());
      } else if (arg == "--time-advisory") {
        opts.time_advisory = true;
      } else if (arg == "--verbose") {
        opts.verbose = true;
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "uld3d-bench-compare: unknown flag " << arg << "\n";
        usage(3);
      } else {
        positional.push_back(arg);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "uld3d-bench-compare: " << e.what() << "\n";
    usage(3);
  }
  if (positional.size() != 2) usage(3);
  opts.baseline_path = positional[0];
  opts.current_path = positional[1];
  try {
    return run_compare(opts);
  } catch (const std::exception& e) {
    // Structurally-unexpected documents (wrong member kinds etc.) are
    // malformed inputs, not crashes.
    std::cerr << "uld3d-bench-compare: " << e.what() << "\n";
    return 3;
  }
}
