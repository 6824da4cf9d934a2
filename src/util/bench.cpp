#include "uld3d/util/bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "uld3d/util/check.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/export.hpp"
#include "uld3d/util/log.hpp"
#include "uld3d/util/table.hpp"

namespace uld3d::bench {

namespace {

/// Round-trippable double formatting for the JSON document (value drift at
/// the 1e-9 relative tolerance must survive emit + re-parse).
std::string json_number(double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN literals; encode as strings the comparator
    // understands.
    if (std::isnan(value)) return "\"nan\"";
    return value > 0 ? "\"inf\"" : "\"-inf\"";
  }
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

double median_of(std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

[[noreturn]] void usage(const std::string& suite, int exit_code) {
  (exit_code == 0 ? std::cout : std::cerr)
      << "usage: bench_" << suite << " [options]\n"
      << "  --iterations N   timed repetitions per benchmark (default 5)\n"
      << "  --warmup N       discarded warmup runs per benchmark (default 1)\n"
      << "  --json PATH      write BENCH JSON to PATH\n"
      << "  --no-json        skip the BENCH_*.json artifact\n"
      << "  --help           this message\n"
      << "Default JSON location: $ULD3D_BENCH_DIR/BENCH_" << suite
      << ".json (or ./BENCH_" << suite << ".json).\n";
  std::exit(exit_code);
}

}  // namespace

Stats compute_stats(std::vector<double> samples_s) {
  Stats s;
  s.iterations = static_cast<int>(samples_s.size());
  if (samples_s.empty()) return s;

  double sum = 0.0;
  s.min_s = samples_s.front();
  s.max_s = samples_s.front();
  for (const double x : samples_s) {
    sum += x;
    s.min_s = std::min(s.min_s, x);
    s.max_s = std::max(s.max_s, x);
  }
  s.mean_s = sum / static_cast<double>(samples_s.size());
  s.median_s = median_of(samples_s);  // sorts in place

  std::vector<double> deviations;
  deviations.reserve(samples_s.size());
  for (const double x : samples_s) deviations.push_back(std::abs(x - s.median_s));
  s.mad_s = median_of(deviations);

  if (samples_s.size() > 1) {
    // Normal approximation with the robust sigma estimate 1.4826 * MAD,
    // inflated by sqrt(pi/2) because the sample median's asymptotic
    // standard error is sqrt(pi/2) * sigma / sqrt(n), not sigma / sqrt(n).
    const double median_se_inflation = std::sqrt(std::acos(-1.0) / 2.0);
    s.ci95_half_width_s = 1.96 * median_se_inflation * 1.4826 * s.mad_s /
                          std::sqrt(static_cast<double>(samples_s.size()));
  }
  return s;
}

Options parse_bench_args(const std::string& suite, int argc, char** argv) {
  Options opts;
  std::string json_override;
  const auto int_operand = [&](int i, const char* flag) {
    if (i + 1 >= argc) {
      std::cerr << "bench: " << flag << " needs an operand\n";
      usage(suite, 2);
    }
    char* end = nullptr;
    const long v = std::strtol(argv[i + 1], &end, 10);
    if (end == nullptr || *end != '\0' || v < 0 || v > 1000000) {
      std::cerr << "bench: bad operand for " << flag << ": " << argv[i + 1]
                << "\n";
      usage(suite, 2);
    }
    return static_cast<int>(v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iterations" || arg == "-n") {
      opts.iterations = int_operand(i, arg.c_str());
      ++i;
    } else if (arg == "--warmup") {
      opts.warmup = int_operand(i, arg.c_str());
      ++i;
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "bench: --json needs a path operand\n";
        usage(suite, 2);
      }
      json_override = argv[++i];
    } else if (arg == "--no-json") {
      opts.write_json = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(suite, 0);
    } else {
      std::cerr << "bench: unknown flag: " << arg << "\n";
      usage(suite, 2);
    }
  }
  if (opts.iterations < 1) {
    std::cerr << "bench: --iterations must be >= 1\n";
    usage(suite, 2);
  }

  if (!json_override.empty()) {
    opts.json_path = json_override;
  } else {
    const char* dir = std::getenv("ULD3D_BENCH_DIR");
    opts.json_path = (dir == nullptr || *dir == '\0')
                         ? "BENCH_" + suite + ".json"
                         : std::string(dir) + "/BENCH_" + suite + ".json";
  }
  if (!opts.write_json) opts.json_path.clear();
  return opts;
}

Harness::Harness(std::string suite, int argc, char** argv)
    : suite_(std::move(suite)) {
  expects(!suite_.empty(), "bench suite name must be non-empty");
  if (argc > 0 && argv != nullptr) {
    options_ = parse_bench_args(suite_, argc, argv);
  } else {
    options_.json_path = "BENCH_" + suite_ + ".json";
  }
  provenance_ = capture_provenance();
  // Fingerprint the harness configuration itself so two runs with different
  // iteration policies never silently compare as equals.
  note_config("bench_options", suite_ + " iterations=" +
                                   std::to_string(options_.iterations) +
                                   " warmup=" +
                                   std::to_string(options_.warmup));
}

double Harness::now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Harness::record_samples(const std::string& name,
                             std::vector<double> samples_s) {
  expects(!name.empty(), "benchmark name must be non-empty");
  expects(!samples_s.empty(), "benchmark needs at least one timed sample");
  BenchResult result;
  result.name = name;
  result.warmup = options_.warmup;
  result.stats = compute_stats(samples_s);
  result.samples_s = std::move(samples_s);
  benchmarks_.push_back(std::move(result));
}

void Harness::value(const std::string& name, double v,
                    const std::string& unit) {
  expects(!name.empty(), "value name must be non-empty");
  values_.push_back({name, v, unit});
}

void Harness::timing_value(const std::string& name, double v,
                           const std::string& unit) {
  expects(!name.empty(), "timing value name must be non-empty");
  timing_values_.push_back({name, v, unit});
}

void Harness::note_config(const std::string& name,
                          const std::string& content) {
  expects(!name.empty(), "config name must be non-empty");
  provenance_.config_hashes.emplace_back(name, fnv1a_hex(content));
}

const Stats& Harness::stats(const std::string& name) const {
  for (const auto& b : benchmarks_) {
    if (b.name == name) return b.stats;
  }
  throw PreconditionError("no benchmark named '" + name + "' recorded");
}

std::string Harness::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema_version\": " << kBenchSchemaVersion << ",\n"
     << "  \"suite\": \"" << json_escape(suite_) << "\",\n"
     << "  \"provenance\": " << provenance_json(provenance_, 2) << ",\n";
  os << "  \"benchmarks\": [";
  for (std::size_t i = 0; i < benchmarks_.size(); ++i) {
    const BenchResult& b = benchmarks_[i];
    if (i > 0) os << ",";
    os << "\n    {\"name\": \"" << json_escape(b.name) << "\", "
       << "\"iterations\": " << b.stats.iterations << ", "
       << "\"warmup\": " << b.warmup << ",\n"
       << "     \"min_s\": " << json_number(b.stats.min_s) << ", "
       << "\"max_s\": " << json_number(b.stats.max_s) << ", "
       << "\"mean_s\": " << json_number(b.stats.mean_s) << ",\n"
       << "     \"median_s\": " << json_number(b.stats.median_s) << ", "
       << "\"mad_s\": " << json_number(b.stats.mad_s) << ", "
       << "\"ci95_half_width_s\": " << json_number(b.stats.ci95_half_width_s)
       << ",\n     \"samples_s\": [";
    for (std::size_t j = 0; j < b.samples_s.size(); ++j) {
      if (j > 0) os << ", ";
      os << json_number(b.samples_s[j]);
    }
    os << "]}";
  }
  os << "\n  ],\n";
  const auto emit_values = [&](const std::vector<ValueResult>& values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const ValueResult& v = values[i];
      if (i > 0) os << ",";
      os << "\n    {\"name\": \"" << json_escape(v.name) << "\", \"value\": "
         << json_number(v.value) << ", \"unit\": \"" << json_escape(v.unit)
         << "\"}";
    }
  };
  os << "  \"values\": [";
  emit_values(values_);
  os << "\n  ],\n";
  os << "  \"timing_values\": [";
  emit_values(timing_values_);
  os << "\n  ]\n}\n";
  return os.str();
}

int Harness::finish() {
  if (!benchmarks_.empty()) {
    Table table({"Benchmark", "Iters", "Median ms", "Mean ms", "Min ms",
                 "MAD ms", "CI95 +/- ms"});
    for (const auto& b : benchmarks_) {
      table.add_row({b.name, std::to_string(b.stats.iterations),
                     format_double(b.stats.median_s * 1e3, 3),
                     format_double(b.stats.mean_s * 1e3, 3),
                     format_double(b.stats.min_s * 1e3, 3),
                     format_double(b.stats.mad_s * 1e3, 3),
                     format_double(b.stats.ci95_half_width_s * 1e3, 3)});
    }
    table.print(std::cout,
                "Timing: " + suite_ + " (warmup " +
                    std::to_string(options_.warmup) + ", " +
                    std::to_string(options_.iterations) + " iterations)");
  }
  if (!values_.empty()) {
    Table table({"Fidelity value", "Value", "Unit"});
    for (const auto& v : values_) {
      table.add_row({v.name, format_double(v.value, 6), v.unit});
    }
    table.print(std::cout, "Recorded values: " + suite_);
  }
  if (!timing_values_.empty()) {
    Table table({"Timing-derived value", "Value", "Unit"});
    for (const auto& v : timing_values_) {
      table.add_row({v.name, format_double(v.value, 6), v.unit});
    }
    table.print(std::cout, "Timing-derived values: " + suite_);
  }
  if (!options_.write_json || options_.json_path.empty()) return 0;
  // Refresh peak RSS at the end of the run: it was near zero when the
  // harness was constructed — only now does it describe the benchmarks
  // that just executed.
  provenance_.peak_rss_kb = peak_rss_kb();
  if (!write_file_atomic(options_.json_path, to_json())) return 1;
  std::cout << "Wrote " << options_.json_path << "\n";
  return 0;
}

}  // namespace uld3d::bench
