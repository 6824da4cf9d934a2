// uld3d — command-line front end.
//
//   uld3d_cli compare   [--network N] [--config FILE]   M3D-vs-2D totals
//   uld3d_cli table1    [--network N] [--config FILE]   per-layer rows
//   uld3d_cli datasheet [--network N] [--config FILE]   coupled phys run
//   uld3d_cli arch      --config FILE [--network N]     custom architecture
//   uld3d_cli sweep     [--network N] [--config FILE]   capacity x N_CS DSE
//                       [--mapper]    price design points with the temporal
//                                     mapper instead of the analytic EDP
//                                     model (exercises the MapCache)
//   uld3d_cli dump-config                               print the defaults
//
// Global flags: --strict        config warnings (unknown keys) become fatal
//               --keep-going    sweep records failed design points and
//                               continues instead of aborting at the first
//               --jobs N        worker threads for sweeps/searches (default:
//                               ULD3D_JOBS, else all hardware threads; the
//                               results are bit-identical at any N)
//               --trace FILE    write a Chrome trace_event JSON timeline
//                               (open in chrome://tracing or Perfetto)
//               --metrics FILE  write the metrics registry (.json or CSV)
//               --profile       print span-summary + metrics tables at exit
//               --events FILE   append NDJSON telemetry events (run_start,
//                               sweep_start, point_done, checkpoint_flush,
//                               stage, run_end; DESIGN.md section 14) —
//                               analyze with uld3d-report
//               --postmortem[=PATH]  arm the flight-recorder crash dumper:
//                               on SIGSEGV/SIGABRT/SIGBUS/SIGFPE or
//                               std::terminate, write PATH (default
//                               <run_id>.postmortem.json).  On by default
//                               for `sweep`; --no-postmortem disables.
//               --mapcache-file FILE  persistent MapCache store: load it
//                               before the run (a corrupt file is refused,
//                               exit 3; a missing one is a cold start) and
//                               merge-save it after, so repeated runs and
//                               --resume runs share one warm cache.
//                               ULD3D_MAPCACHE_FILE mirrors the flag;
//                               ULD3D_NO_MAPCACHE_FILE disables the layer.
//
// Sweep checkpoint flags (DESIGN.md §13):
//               --checkpoint FILE        periodically flush resumable sweep
//                                        state; SIGINT/SIGTERM flush and
//                                        exit 5 (interrupted, resumable)
//               --resume                 continue an existing --checkpoint
//               --checkpoint-interval N  flush every N completed points
//
// Exit codes: 0 success, 2 usage error, 3 config error, 4 model/evaluation
// error, 5 interrupted-but-resumable sweep, 1 internal error.  Diagnostics
// go to stderr; results to stdout.
//
// `--config` files use the INI schema documented in uld3d/io/study_config.hpp.
// ULD3D_TRACE=FILE mirrors --trace, and ULD3D_EVENTS=FILE mirrors --events,
// for runs launched by scripts that cannot edit flags.
// ULD3D_SWEEP_DELAY_MS=N (test hook) sleeps N ms per design point so
// integration tests can interrupt a sweep at a controlled depth.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "uld3d/accel/chip_summary.hpp"
#include "uld3d/core/edp_model.hpp"
#include "uld3d/core/workload.hpp"
#include "uld3d/dse/sweep.hpp"
#include "uld3d/io/study_config.hpp"
#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/map_cache_file.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/sim/report.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/export.hpp"
#include "uld3d/util/flightrec.hpp"
#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/provenance.hpp"
#include "uld3d/util/telemetry.hpp"
#include "uld3d/util/trace.hpp"

namespace {

using namespace uld3d;

// Exit-code discipline (documented in README.md and tested by
// tests/cli_exit_codes.sh).
constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConfig = 3;
constexpr int kExitModel = 4;
/// A checkpointed sweep stopped by SIGINT/SIGTERM; the partial state is on
/// disk and `--resume` continues it.  Distinct so sweep drivers can tell
/// "re-run me" from real failures.
constexpr int kExitInterrupted = 5;

/// Bad command line: distinct from config/model failures.
class UsageError : public Error {
 public:
  using Error::Error;
};

/// Config file problems found while loading/validating.
class ConfigError : public Error {
 public:
  using Error::Error;
};

constexpr const char* kUsage =
    "usage: uld3d_cli <compare|table1|datasheet|arch|sweep|dump-config>\n"
    "       [--network N] [--config FILE] [--strict] [--keep-going]\n"
    "       [--jobs N] [--trace FILE] [--metrics FILE] [--profile]\n"
    "       [--events FILE] [--postmortem[=PATH]] [--no-postmortem]\n"
    "       [--mapper] [--mapcache-file FILE]\n"
    "       [--checkpoint FILE] [--resume] [--checkpoint-interval N]";

struct CliArgs {
  std::string command;
  std::string network = "resnet18";
  std::optional<std::string> config_path;
  bool strict = false;
  bool keep_going = false;
  int jobs = 0;              // 0 = ULD3D_JOBS, else hardware concurrency
  std::string trace_path;    // Chrome trace JSON output ("" = off)
  std::string metrics_path;  // metrics JSON/CSV output ("" = off)
  bool profile = false;      // print span/metrics summary tables at exit
  std::string events_path;   // NDJSON telemetry events output ("" = off)
  std::optional<bool> postmortem;  // unset = default (on for sweep)
  std::string postmortem_path;     // "" = <run_id>.postmortem.json
  bool mapper_sweep = false;       // price sweep points with the mapper
  std::string mapcache_file;       // persistent MapCache store ("" = env)
  std::string checkpoint_path;           // sweep checkpoint file ("" = off)
  bool resume = false;                   // continue an existing checkpoint
  std::size_t checkpoint_interval = 64;  // flush every N completed points
};

CliArgs parse_args(int argc, char** argv) {
  if (argc < 2) throw UsageError(kUsage);
  CliArgs args;
  args.command = argv[1];
  bool interval_given = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--network" && i + 1 < argc) {
      args.network = argv[++i];
    } else if (flag == "--config" && i + 1 < argc) {
      args.config_path = argv[++i];
    } else if (flag == "--strict") {
      args.strict = true;
    } else if (flag == "--keep-going") {
      args.keep_going = true;
    } else if (flag == "--jobs" && i + 1 < argc) {
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || n < 1 ||
          n > parallel::kMaxJobs) {
        throw UsageError(std::string("--jobs expects an integer in [1, ") +
                         std::to_string(parallel::kMaxJobs) + "]: " +
                         argv[i] + "\n" + kUsage);
      }
      args.jobs = static_cast<int>(n);
    } else if (flag == "--trace" && i + 1 < argc) {
      args.trace_path = argv[++i];
    } else if (flag == "--metrics" && i + 1 < argc) {
      args.metrics_path = argv[++i];
    } else if (flag == "--profile") {
      args.profile = true;
    } else if (flag == "--events" && i + 1 < argc) {
      args.events_path = argv[++i];
    } else if (flag == "--postmortem") {
      args.postmortem = true;
    } else if (flag.rfind("--postmortem=", 0) == 0) {
      args.postmortem = true;
      args.postmortem_path = flag.substr(std::strlen("--postmortem="));
      if (args.postmortem_path.empty()) {
        throw UsageError("--postmortem= expects a path\n" + std::string(kUsage));
      }
    } else if (flag == "--no-postmortem") {
      args.postmortem = false;
    } else if (flag == "--mapper") {
      args.mapper_sweep = true;
    } else if (flag == "--mapcache-file" && i + 1 < argc) {
      args.mapcache_file = argv[++i];
    } else if (flag == "--checkpoint" && i + 1 < argc) {
      args.checkpoint_path = argv[++i];
    } else if (flag == "--resume") {
      args.resume = true;
    } else if (flag == "--checkpoint-interval" && i + 1 < argc) {
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || n < 1) {
        throw UsageError(
            std::string("--checkpoint-interval expects a positive integer: ") +
            argv[i] + "\n" + kUsage);
      }
      args.checkpoint_interval = static_cast<std::size_t>(n);
      interval_given = true;
    } else {
      throw UsageError("unknown argument: " + flag + "\n" + kUsage);
    }
  }
  // Both only act on a checkpoint: silently ignoring them would turn
  // `sweep --resume` into a fresh full sweep.
  if ((args.resume || interval_given) && args.checkpoint_path.empty()) {
    throw UsageError(
        "--resume and --checkpoint-interval require --checkpoint FILE\n" +
        std::string(kUsage));
  }
  return args;
}

/// Arms the instrumentation subsystem up front and — as an RAII guard, so a
/// failing run still leaves its timeline behind for debugging — writes the
/// trace/metrics files and prints the --profile report at scope exit.
class Observability {
 public:
  Observability(const CliArgs& args, const std::string& command_line)
      : trace_path_(args.trace_path),
        metrics_path_(args.metrics_path),
        profile_(args.profile),
        start_(std::chrono::steady_clock::now()) {
    // Run identity first: everything below (events, metrics JSON, trace
    // otherData, checkpoints) stamps these labels.
    set_current_run_context(make_run_context());
    TraceRecorder& recorder = TraceRecorder::instance();
    recorder.configure_from_env();  // ULD3D_TRACE mirrors --trace
    if (trace_path_.empty()) trace_path_ = recorder.env_path();
    if (!trace_path_.empty() || profile_) recorder.set_enabled(true);
    if (!metrics_path_.empty() || profile_) {
      MetricsRegistry::set_enabled(true);
      MetricsRegistry::instance().counter("cli.runs").add();
    }
    EventSink& sink = EventSink::instance();
    if (!args.events_path.empty()) {
      sink.open(args.events_path);
    } else {
      sink.configure_from_env();  // ULD3D_EVENTS mirrors --events
    }
    if (EventSink::enabled()) {
      sink.emit_run_start(capture_provenance(), command_line);
    }
    // Flight recorder: the main thread gets a name either way; the crash
    // dumper arms by default for sweeps (long-running, worth forensics)
    // and on request elsewhere.  Must follow set_current_run_context —
    // the dump header is pre-formatted from the current RunId.
    flightrec::set_thread_name("main");
    const bool want_postmortem =
        args.postmortem.value_or(args.command == "sweep");
    if (want_postmortem) {
      std::string path = args.postmortem_path;
      if (path.empty()) {
        path = current_run_context().run_id + ".postmortem.json";
      }
      flightrec::install_postmortem(path);
    }
  }
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  /// Record the code main() is about to return with, so run_end carries it.
  /// Unset (an exception unwinding past main's dispatch) reads as an error.
  void set_exit_code(int code) { exit_code_ = code; }

  ~Observability() {
    try {
      finish();
    } catch (const std::exception& error) {
      std::cerr << "observability error: " << error.what() << "\n";
    }
  }

 private:
  void finish() {
    EventSink& sink = EventSink::instance();
    if (EventSink::enabled()) {
      const char* status = exit_code_ == kExitOk            ? "ok"
                           : exit_code_ == kExitInterrupted ? "interrupted"
                                                            : "error";
      sink.emit_run_end(status, exit_code_);
      std::cerr << "events: wrote " << sink.emitted() << " event(s) to "
                << sink.path() << "\n";
      sink.close();
    }
    finish_trace_and_metrics();
  }

  void finish_trace_and_metrics() {
    TraceRecorder& recorder = TraceRecorder::instance();
    if (metrics_enabled()) {
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start_)
                                 .count();
      MetricsRegistry::instance().gauge("cli.run_seconds").set(seconds);
    }
    if (!trace_path_.empty() &&
        recorder.write_chrome_trace(trace_path_)) {
      std::cerr << "trace: wrote " << recorder.event_count() << " span(s) to "
                << trace_path_;
      if (recorder.dropped() > 0) {
        std::cerr << " (" << recorder.dropped() << " dropped at capacity)";
      }
      std::cerr << "\n";
    }
    if (!metrics_path_.empty() &&
        MetricsRegistry::instance().write_file(metrics_path_)) {
      std::cerr << "metrics: wrote " << metrics_path_ << "\n";
    }
    if (profile_) {
      emit_table(std::cout, recorder.summary_table(),
                 "Span summary (wall clock)", "cli_profile_spans");
      emit_table(std::cout, MetricsRegistry::instance().to_table(),
                 "Run metrics", "cli_profile_metrics");
    }
  }

  std::string trace_path_;
  std::string metrics_path_;
  bool profile_ = false;
  int exit_code_ = -1;
  std::chrono::steady_clock::time_point start_;
};

/// Load + validate a config file.  All diagnostics are printed to stderr in
/// one shot; errors (or, under --strict, warnings too) abort with
/// ConfigError.
io::Config load_config(const std::string& path, bool strict) {
  io::Config config = [&] {
    try {
      return io::Config::load(path);
    } catch (const std::exception& error) {
      throw ConfigError(std::string("cannot load config: ") + error.what());
    }
  }();
  const Diagnostics diag = io::validate_case_study_config(config);
  if (!diag.empty()) std::cerr << diag.to_string();
  if (!diag.ok() || (strict && diag.warning_count() > 0)) {
    throw ConfigError("config validation failed: " +
                      std::to_string(diag.error_count()) + " error(s), " +
                      std::to_string(diag.warning_count()) + " warning(s)" +
                      (strict ? " [--strict]" : ""));
  }
  return config;
}

accel::CaseStudy study_for(const CliArgs& args) {
  if (args.config_path.has_value()) {
    const io::Config config = load_config(*args.config_path, args.strict);
    try {
      return io::case_study_from_config(config);
    } catch (const std::exception& error) {
      throw ConfigError(std::string("bad config value: ") + error.what());
    }
  }
  return accel::CaseStudy{};
}

/// The zoo network that --network names.  An unknown name is a usage
/// error that lists the zoo; nn::make_network's PreconditionError is for
/// library callers.
nn::Network network_for(const CliArgs& args) {
  try {
    return nn::make_network(args.network);
  } catch (const PreconditionError&) {
    std::string known;
    for (const std::string& name : nn::zoo_names()) {
      known += (known.empty() ? "" : ", ") + name;
    }
    throw UsageError("unknown network: " + args.network + " (one of " +
                     known + ")\n" + kUsage);
  }
}

int run_compare(const CliArgs& args) {
  const accel::CaseStudy study = study_for(args);
  const auto cmp = study.run(network_for(args));
  std::cout << sim::summary_line(cmp) << "\n"
            << "N = " << study.m3d_cs_count()
            << " CSs, gamma_cells = " << study.area_model().gamma_cells()
            << "\n";
  return kExitOk;
}

int run_table1(const CliArgs& args) {
  const accel::CaseStudy study = study_for(args);
  const auto cmp = study.run(network_for(args));
  emit_table(std::cout, sim::comparison_table(cmp),
             args.network + ": per-layer M3D vs 2D", "cli_table1");
  return kExitOk;
}

int run_datasheet(const CliArgs& args) {
  const accel::CaseStudy study = study_for(args);
  const auto summary = accel::summarize_chip(study, network_for(args));
  std::cout << accel::datasheet(summary);
  return kExitOk;
}

int run_arch(const CliArgs& args) {
  if (!args.config_path.has_value()) {
    throw UsageError(std::string("arch requires --config FILE\n") + kUsage);
  }
  const auto arch = [&] {
    try {
      return io::architecture_from_config(
          io::Config::load(*args.config_path));
    } catch (const std::exception& error) {
      throw ConfigError(std::string("bad architecture config: ") +
                        error.what());
    }
  }();
  const auto pdk = tech::FoundryM3dPdk::make_130nm();
  const auto benefit = mapper::evaluate_benefit(network_for(args),
                                                arch, {}, pdk);
  std::cout << arch.name << " on " << args.network << ": N = " << benefit.n_cs
            << ", speedup " << benefit.speedup << "x, EDP benefit "
            << benefit.edp_benefit << "x\n";
  return kExitOk;
}

/// The CLI's fixed design-space grid (capacity x N_CS; the checkpoint
/// fingerprint covers it, so changing it invalidates old checkpoints).
dse::Grid sweep_grid() {
  dse::Grid grid;
  grid.axis("capacity_mb", {16.0, 32.0, 64.0, 128.0})
      .axis("n_cs", {1.0, 2.0, 4.0, 8.0, 16.0});
  return grid;
}

const std::vector<std::string>& sweep_metric_names() {
  static const std::vector<std::string> names{"edp_benefit", "speedup"};
  return names;
}

/// Config identity folded into the checkpoint fingerprint: the network name
/// plus the raw bytes of --config (if any), so a checkpoint from a
/// different study config or network is refused on resume.
std::string sweep_config_hash(const CliArgs& args) {
  std::string identity = "network " + args.network + "\n";
  // --mapper prices the same grid with a different evaluator, so its
  // checkpoints must never resume against analytic ones.
  if (args.mapper_sweep) identity += "evaluator mapper\n";
  if (args.config_path.has_value()) {
    std::ifstream in(*args.config_path, std::ios::binary);
    if (!in) {
      throw ConfigError("cannot read config for fingerprint: " +
                        *args.config_path);
    }
    std::ostringstream content;
    content << in.rdbuf();
    identity += "config " + content.str();
  }
  return fnv1a_hex(identity);
}

int run_sweep(const CliArgs& args) {
  const accel::CaseStudy base = study_for(args);
  const nn::Network net = network_for(args);
  const auto workloads =
      core::layer_workloads(net, core::TrafficOptions{},
                            core::PartitionOptions{});
  const dse::Grid grid = sweep_grid();

  // ULD3D_SWEEP_DELAY_MS: test-only throttle so integration tests can
  // deliver a signal (or SIGKILL) while the sweep is predictably mid-grid.
  long delay_ms = 0;
  if (const char* delay_env = std::getenv("ULD3D_SWEEP_DELAY_MS")) {
    delay_ms = std::strtol(delay_env, nullptr, 10);
  }

  const tech::FoundryM3dPdk pdk = tech::FoundryM3dPdk::make_130nm();
  std::function<std::vector<double>(const std::vector<double>&)> evaluate;
  if (args.mapper_sweep) {
    // Price each design point with the temporal mapper (same metric names,
    // same grid): the per-layer evaluate_conv calls hit the MapCache, so
    // this mode exercises --mapcache-file end to end — a warm second run
    // reports nonzero mapper.mapcache.file_hits.
    evaluate = [&net, &pdk, delay_ms](const std::vector<double>& p) {
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      mapper::Architecture arch = mapper::make_table2_architecture(1);
      arch.rram_capacity_bits = p[0] * 8.0 * 1024.0 * 1024.0;
      const auto n = static_cast<std::int64_t>(p[1]);
      const std::int64_t n_geom = mapper::m3d_parallel_cs(arch, pdk);
      if (n > n_geom) {
        throw StatusError(
            Failure(ErrorCode::kInfeasiblePoint,
                    "requested CS count does not fit the freed Si area")
                .with("n_cs", n)
                .with("n_geom", n_geom));
      }
      const mapper::SystemCosts sys;
      const mapper::NetworkCost c2 = mapper::evaluate_network(net, arch, sys, 1);
      const mapper::NetworkCost c3 = mapper::evaluate_network(net, arch, sys, n);
      return std::vector<double>{c2.edp() / c3.edp(),
                                 c2.latency_cycles / c3.latency_cycles};
    };
  } else {
    evaluate = [&base, &workloads, delay_ms](const std::vector<double>& p) {
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      accel::CaseStudy study = base;
      study.rram_capacity_mb = p[0];
      const auto n = static_cast<std::int64_t>(p[1]);
      const std::int64_t n_geom = study.m3d_cs_count();
      if (n > n_geom) {
        throw StatusError(
            Failure(ErrorCode::kInfeasiblePoint,
                    "requested CS count does not fit the freed Si area")
                .with("n_cs", n)
                .with("n_geom", n_geom));
      }
      const core::Chip2d c2 = study.chip2d_params();
      const core::Chip3d c3 = study.chip3d_params(n);
      std::vector<core::EdpResult> rs;
      rs.reserve(workloads.size());
      for (const auto& w : workloads) {
        rs.push_back(core::evaluate_edp(w, c2, c3));
      }
      const auto total = core::combine_results(rs);
      return std::vector<double>{total.edp_benefit, total.speedup};
    };
  }

  dse::SweepOptions options;
  options.policy = args.keep_going ? dse::ErrorPolicy::kSkipAndRecord
                                   : dse::ErrorPolicy::kFailFast;
  options.config_hash = sweep_config_hash(args);
  options.checkpoint_path = args.checkpoint_path;
  options.resume = args.resume;
  options.checkpoint_interval = args.checkpoint_interval;
  // Only a checkpointed sweep has state worth unwinding for; a plain sweep
  // keeps the default signal disposition and dies on Ctrl-C.
  if (!args.checkpoint_path.empty()) install_interrupt_handlers();
  try {
    const dse::SweepResult result =
        dse::run_sweep(grid, sweep_metric_names(), evaluate, options);
    emit_table(std::cout, result.to_table(),
               "M3D design space for " + net.name(),
               "cli_sweep_" + args.network);
    if (result.failed_count() > 0) std::cerr << result.failure_summary();
    const auto& best = result.rows()[result.best("edp_benefit")];
    std::cout << "Best EDP point: " << format_double(best.params[0], 0)
              << " MB, " << format_double(best.params[1], 0) << " CSs -> "
              << format_ratio(best.metrics[0]) << "\n";
    return kExitOk;
  } catch (const dse::SweepInterrupted& interrupted) {
    std::cerr << "interrupted: " << interrupted.what() << "\n";
    return kExitInterrupted;
  }
}

int run_dump_config(const CliArgs&) {
  std::cout << io::case_study_to_config(accel::CaseStudy{}).to_text();
  return kExitOk;
}

int dispatch(const CliArgs& args) {
  if (args.command == "compare") return run_compare(args);
  if (args.command == "table1") return run_table1(args);
  if (args.command == "datasheet") return run_datasheet(args);
  if (args.command == "arch") return run_arch(args);
  if (args.command == "sweep") return run_sweep(args);
  if (args.command == "dump-config") return run_dump_config(args);
  throw UsageError("unknown command: " + args.command + "\n" + kUsage);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = parse_args(argc, argv);
    // Precedence: --jobs > ULD3D_JOBS > all hardware threads.  The library
    // default without either is serial; the CLI opts into full parallelism
    // because its commands are top-level batch runs.
    if (args.jobs > 0) {
      parallel::set_jobs(args.jobs);
    } else if (std::getenv("ULD3D_JOBS") == nullptr) {
      parallel::set_jobs(parallel::hardware_concurrency());
    }
    // Outlives the command span: writes trace/metrics/events files even
    // when the command below throws, so failed runs keep their timeline
    // (an unwound dispatch leaves the exit code unset -> run_end "error").
    std::ostringstream command_line;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) command_line << " ";
      command_line << argv[i];
    }
    Observability observability(args, command_line.str());
    // Declared after Observability so its destructor (the merge-save, which
    // counts mapper.mapcache.file_appends) runs BEFORE the metrics file is
    // written.  A corrupt store throws StatusError(kInvalidConfig) here —
    // before any work runs on stale assumptions — and exits 3.
    std::optional<mapper::MapCacheFileSession> mapcache_session;
    {
      std::string store = args.mapcache_file.empty()
                              ? mapper::mapcache_file_path_from_env()
                              : args.mapcache_file;
      if (!store.empty() && mapper::mapcache_file_enabled()) {
        mapcache_session.emplace(std::move(store));
      }
    }
    TraceSpan command_span("cli." + args.command, "cli");
    const int code = dispatch(args);
    observability.set_exit_code(code);
    return code;
  } catch (const UsageError& error) {
    std::cerr << "usage error: " << error.what() << "\n";
    return kExitUsage;
  } catch (const ConfigError& error) {
    std::cerr << "config error: " << error.what() << "\n";
    return kExitConfig;
  } catch (const JsonParseError& error) {
    // A checkpoint (or other JSON input) that does not parse is bad input,
    // not an internal bug.
    std::cerr << "config error: " << error.what() << "\n";
    return kExitConfig;
  } catch (const StatusError& error) {
    std::cerr << "model error: " << error.what() << "\n";
    return error.code() == ErrorCode::kInvalidConfig ? kExitConfig
                                                     : kExitModel;
  } catch (const PreconditionError& error) {
    std::cerr << "model error: " << error.what() << "\n";
    return kExitModel;
  } catch (const std::exception& error) {
    std::cerr << "internal error: " << error.what() << "\n";
    return kExitInternal;
  }
}
