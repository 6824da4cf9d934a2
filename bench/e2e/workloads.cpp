#include "workloads.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "checks.hpp"
#include "paper_pass.hpp"
#include "uld3d/dse/sweep.hpp"
#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/mapper/spatial_search.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/phys/m3d_flow.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/provenance.hpp"
#include "uld3d/util/status.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::e2e {

namespace {

namespace fs = std::filesystem;

const std::string kRepoDir = ULD3D_E2E_REPO_DIR;
const std::string kGoldenDir = kRepoDir + "/bench/e2e/golden";

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void write_file(const std::string& path, const std::string& content) {
  if (!write_file_atomic(path, content)) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::string baseline_path(const std::string& suite) {
  return kRepoDir + "/bench/baselines/BENCH_" + suite + ".json";
}

std::uint64_t counter(const char* name) {
  return MetricsRegistry::instance().counter(name).value();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Working directory of this process inside the build tree, removed with
/// everything in it when the workload ends.
class WorkDir {
 public:
  explicit WorkDir(const std::string& workload)
      : path_(std::string(ULD3D_E2E_WORK_DIR) + "/" + workload + "." +
              std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// A fresh, empty private directory.
  [[nodiscard]] std::string make_temp() const {
    std::string pattern = path_ + "/run.XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed: " +
                               std::string(std::strerror(errno)));
    }
    return pattern;
  }

 private:
  std::string path_;
};

// ---------------------------------------------------------------- paper_repro

class PaperRepro final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    shuffle_ = seed != 0;
    rng_.seed(seed);
    for (const PaperRow& row : paper_rows()) {
      expected_.push_back(load_expected_values(
          row.suite == "datasheet" ? kGoldenDir + "/datasheet.json"
                                   : baseline_path(row.suite)));
      span_names_.push_back("fig." + row.suite);
    }
    order_.resize(paper_rows().size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
  }

  double run() override {
    const double cpu0 = process_cpu_s();
    values_.assign(paper_rows().size(), {});
    if (shuffle_) std::shuffle(order_.begin(), order_.end(), rng_);
    call("mapper.mapcache_clear", [] {
      mapper::MapCache::instance().clear();
      mapper::MapCache::instance().reset_counters();
    });
    for (const std::size_t i : order_) {
      TraceSpan row_span(span_names_[i], "e2e");
      values_[i] = paper_rows()[i].compute();
    }
    return process_cpu_s() - cpu0;
  }

  std::string check() override {
    for (std::size_t i = 0; i < values_.size(); ++i) {
      const std::string error = check_values(expected_[i], values_[i]);
      if (!error.empty()) return paper_rows()[i].suite + ": " + error;
    }
    return "";
  }

  std::vector<Metric> layer_metrics(const SpanForest& spans,
                                    double ops) override {
    const auto ms = [&](double us) { return us / 1000.0 / ops; };
    std::vector<Metric> out = {
        {"sim.network_ms", ms(spans.total_us("sim.network")), "ms"},
        {"sim.network_calls",
         static_cast<double>(spans.calls("sim.network")) / ops, "count"},
        {"accel.self_ms", ms(spans.layer_self_us("accel")), "ms"},
        {"core.self_ms", ms(spans.layer_self_us("core")), "ms"},
        {"tech.self_ms", ms(spans.layer_self_us("tech")), "ms"},
        {"nn.self_ms", ms(spans.layer_self_us("nn")), "ms"},
        {"dse.sensitivity_ms", ms(spans.total_us("dse.sensitivity")), "ms"}};
    for (const std::string& name : span_names_) {
      out.push_back({name + "_ms", ms(spans.total_us(name)), "ms"});
    }
    return out;
  }

 private:
  bool shuffle_ = false;
  std::mt19937_64 rng_;
  std::vector<std::map<std::string, double>> expected_;
  std::vector<std::string> span_names_;
  std::vector<std::size_t> order_;
  std::vector<std::vector<NamedValue>> values_;
};

// ------------------------------------------------------------------- cli_cold

struct CliCommand {
  std::string name;  ///< golden/<name>.out, metric cli.<name>_p50_ms
  std::vector<std::string> args;
};

std::vector<CliCommand> cli_commands(const std::string& store, int jobs) {
  const std::vector<std::string> sweep = {"sweep", "--keep-going"};
  const std::vector<std::string> mapper = {"sweep", "--keep-going", "--mapper"};
  const auto with = [](std::vector<std::string> base,
                       std::initializer_list<std::string> more) {
    base.insert(base.end(), more);
    return base;
  };
  std::vector<CliCommand> commands = {
      {"dump_config", {"dump-config"}},
      {"compare", {"compare"}},
      {"table1", {"table1", "--network", "resnet152"}},
      {"arch", {"arch", "--config", kRepoDir + "/configs/custom_arch_64x16.ini"}},
      {"sweep", sweep},
      {"sweep_checkpoint", with(sweep, {"--checkpoint", "checkpoint.json"})},
      {"sweep_mapper", mapper},
      {"sweep_mapper_store", with(mapper, {"--mapcache-file", store})},
      {"sweep_mapper_events",
       with(mapper, {"--events", "events.ndjson", "--metrics", "metrics.json"})},
  };
  // The CLI defaults to every hardware thread; hold it to the benchmark's.
  for (CliCommand& c : commands) {
    c.args.insert(c.args.end(), {"--jobs", std::to_string(jobs)});
  }
  return commands;
}

struct ChildRun {
  int status = -1;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;

  [[nodiscard]] bool ok() const {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
};

class SpawnActions {
 public:
  SpawnActions() { ::posix_spawn_file_actions_init(&actions_); }
  ~SpawnActions() { ::posix_spawn_file_actions_destroy(&actions_); }
  SpawnActions(const SpawnActions&) = delete;
  SpawnActions& operator=(const SpawnActions&) = delete;
  posix_spawn_file_actions_t* get() { return &actions_; }

 private:
  posix_spawn_file_actions_t actions_;
};

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Run uld3d_cli with `args` in `dir` (stdout/stderr to files there) under a
/// clean environment, timed from spawn to reap.
ChildRun run_cli(const std::vector<std::string>& args, const std::string& dir) {
  std::vector<std::string> strings = {ULD3D_E2E_CLI};
  strings.insert(strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  std::string home = "HOME=" + dir;
  std::string tmp = "TMPDIR=" + dir;
  char* envp[] = {home.data(), tmp.data(), nullptr};

  SpawnActions actions;
  ::posix_spawn_file_actions_addchdir_np(actions.get(), dir.c_str());
  ::posix_spawn_file_actions_addopen(actions.get(), 0, "/dev/null", O_RDONLY, 0);
  ::posix_spawn_file_actions_addopen(actions.get(), 1, "stdout",
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ::posix_spawn_file_actions_addopen(actions.get(), 2, "stderr",
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ChildRun run;
  const double t0 = steady_s();
  pid_t pid = 0;
  const int rc =
      ::posix_spawn(&pid, argv[0], actions.get(), nullptr, argv.data(), envp);
  if (rc != 0) {
    throw std::runtime_error(std::string("posix_spawn ") + argv[0] + ": " +
                             std::strerror(rc));
  }
  struct rusage usage {};
  while (::wait4(pid, &run.status, 0, &usage) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
    }
  }
  run.wall_s = steady_s() - t0;
  run.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  run.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return run;
}

class CliCold final : public Workload {
 public:
  explicit CliCold(int jobs)
      : work_("cli_cold"),
        store_(work_.path() + "/mapcache.bin"),
        commands_(cli_commands(store_, jobs)) {}

  void setup(std::uint64_t seed) override {
    shuffle_ = seed != 0;
    rng_.seed(seed);
    for (const CliCommand& c : commands_) {
      golden_.push_back(read_file(kGoldenDir + "/" + c.name + ".out"));
      span_names_.push_back("cli." + c.name);
    }
    build_store();
    order_.resize(commands_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    runs_.resize(commands_.size());
    dirs_.resize(commands_.size());
    times_ms_.resize(commands_.size());
  }

  double run() override {
    if (shuffle_) std::shuffle(order_.begin(), order_.end(), rng_);
    for (std::string& dir : dirs_) dir = work_.make_temp();
    double cpu = 0.0;
    for (const std::size_t i : order_) {
      TraceSpan span(span_names_[i], "e2e");
      runs_[i] = run_cli(commands_[i].args, dirs_[i]);
      cpu += runs_[i].cpu_s;
      peak_rss_mb_ = std::max(peak_rss_mb_, runs_[i].rss_mb);
      times_ms_[i].push_back(runs_[i].wall_s * 1000.0);
    }
    return cpu;
  }

  std::string check() override {
    std::string error;
    for (std::size_t i = 0; i < commands_.size(); ++i) {
      if (error.empty() && !runs_[i].ok()) {
        error = commands_[i].name + ": exit status " +
                std::to_string(runs_[i].status) + "\n" +
                read_file(dirs_[i] + "/stderr");
      }
      if (error.empty()) {
        const std::string diff =
            check_stdout(golden_[i], read_file(dirs_[i] + "/stdout"));
        if (!diff.empty()) error = commands_[i].name + ": " + diff;
      }
      fs::remove_all(dirs_[i]);
    }
    return error;
  }

  double peak_rss_mb() const override { return peak_rss_mb_; }

  std::vector<Metric> layer_metrics(const SpanForest&, double) override {
    std::map<std::string, double> p50;
    std::vector<Metric> out;
    for (std::size_t i = 0; i < commands_.size(); ++i) {
      p50[commands_[i].name] = percentile(times_ms_[i], 0.5);
      out.push_back({"cli." + commands_[i].name + "_p50_ms",
                     p50[commands_[i].name], "ms"});
    }
    out.push_back({"cli.floor_ms", p50["dump_config"], "ms"});
    out.push_back({"cli.store_net_ms",
                   p50["sweep_mapper_store"] - p50["sweep_mapper"], "ms"});
    out.push_back({"cli.checkpoint_net_ms",
                   p50["sweep_checkpoint"] - p50["sweep"], "ms"});
    out.push_back({"cli.events_net_ms",
                   p50["sweep_mapper_events"] - p50["sweep_mapper"], "ms"});
    return out;
  }

  /// Rewrite golden/<command>.out from one run of each command.
  void write_golden() {
    build_store();
    for (const CliCommand& c : commands_) {
      const std::string dir = work_.make_temp();
      const ChildRun r = run_cli(c.args, dir);
      if (!r.ok()) throw std::runtime_error(c.name + " failed");
      write_file(kGoldenDir + "/" + c.name + ".out", read_file(dir + "/stdout"));
    }
  }

 private:
  /// The warm MapCache store `sweep_mapper_store` reads: one run of that
  /// command against no store writes it.
  void build_store() {
    fs::remove(store_);
    for (const CliCommand& c : commands_) {
      if (c.name != "sweep_mapper_store") continue;
      if (!run_cli(c.args, work_.make_temp()).ok() || !fs::exists(store_)) {
        throw std::runtime_error("building the warm MapCache store failed");
      }
    }
  }

  WorkDir work_;
  std::string store_;
  std::vector<CliCommand> commands_;
  bool shuffle_ = false;
  std::mt19937_64 rng_;
  std::vector<std::string> golden_;
  std::vector<std::string> span_names_;
  std::vector<std::size_t> order_;
  std::vector<std::string> dirs_;
  std::vector<ChildRun> runs_;
  std::vector<std::vector<double>> times_ms_;
  double peak_rss_mb_ = 0.0;
};

// ----------------------------------------------------------------- dse_search

constexpr double kCanonicalCapacitiesMb[] = {16.0, 32.0, 64.0, 128.0};
constexpr double kCsCounts[] = {1.0, 2.0, 4.0, 8.0, 16.0};

class DseSearch final : public Workload {
 public:
  explicit DseSearch(int jobs) : jobs_(jobs) {}

  void setup(std::uint64_t seed) override {
    build(seed);
    // The first few sweeps of a process at jobs > 1 run up to 2.5x slower
    // while the pool workers' allocator arenas grow; time the steady state.
    for (int i = 0; i < 3; ++i) (void)cold_sweep(jobs_);
    if (seed == 0) {
      golden_hash_ = json_parse_file(kGoldenDir + "/dse_search.json")
                         .at("rows_fnv1a")
                         .as_string();
    }
  }

  /// The grid for `seed` and its jobs=1 reference rows.
  void build(std::uint64_t seed) {
    std::vector<double> capacities(std::begin(kCanonicalCapacitiesMb),
                                   std::end(kCanonicalCapacitiesMb));
    if (seed != 0) {
      std::mt19937_64 rng(seed);
      for (double& mb : capacities) mb = draw_capacity(mb, rng);
    }
    grid_.axis("arch", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0})
        .axis("network", {0.0, 1.0})
        .axis("capacity_mb", capacities)
        .axis("n_cs", std::vector<double>(std::begin(kCsCounts),
                                          std::end(kCsCounts)))
        .axis("budget_w", {5.0, 10.0, 20.0});
    reference_ = cold_sweep(1);
  }

  double run() override {
    const double cpu0 = process_cpu_s();
    rows_ = sweep(jobs_);
    return process_cpu_s() - cpu0;
  }

  std::string check() override {
    // Emptied here, after the timed op, so that the next op starts cold
    // without timing the ~20 ms teardown of the entries this one added.
    mapper::MapCache::instance().clear();
    const std::string error = check_rows(reference_, rows_);
    if (!error.empty() || golden_hash_.empty()) return error;
    const std::string hash = rows_hash(rows_);
    return hash == golden_hash_ ? ""
                                : "row hash " + hash + " != golden " + golden_hash_;
  }

  std::vector<Metric> layer_metrics(const SpanForest& spans,
                                    double ops) override {
    const double hits = static_cast<double>(counter("mapper.mapcache.hits"));
    const double misses = static_cast<double>(counter("mapper.mapcache.misses"));
    const double unique = static_cast<double>(counter("dse.sweep.dedup_unique"));
    const double aliased = static_cast<double>(counter("dse.sweep.dedup_aliased"));
    const double sweep_us = spans.total_us("dse.sweep");
    const double busy_us = spans.total_us("dse.sweep.point");
    const auto ms = [&](double us) { return us / 1000.0 / ops; };

    // Traced jobs=1 sweeps against the traced jobs=N ops already measured.
    const int repeats = std::min(3, static_cast<int>(ops));
    double jobs1_s = 0.0;
    TraceRecorder::instance().set_enabled(true);
    for (int i = 0; i < repeats; ++i) {
      const double t0 = steady_s();
      (void)sweep(1);
      jobs1_s += steady_s() - t0;
      mapper::MapCache::instance().clear();
      TraceRecorder::instance().clear();
    }
    TraceRecorder::instance().set_enabled(false);
    const double jobs_n_s = spans.total_us("dse.run_sweep") / 1e6 / ops;

    return {
        {"mapper.spatial_search_ms", ms(spans.total_us("mapper.spatial_search")), "ms"},
        {"mapper.spatial_search_calls",
         static_cast<double>(spans.calls("mapper.spatial_search")) / ops, "count"},
        {"mapper.mapcache_hit_frac", ratio(hits, hits + misses), "fraction"},
        {"mapper.lb_pruned_frac",
         ratio(static_cast<double>(counter("mapper.spatial.lb_pruned")),
               static_cast<double>(counter("mapper.spatial.candidates"))),
         "fraction"},
        {"dse.sweep_ms", ms(sweep_us), "ms"},
        {"dse.point_busy_ms", ms(busy_us), "ms"},
        {"dse.dedup_aliased_frac", ratio(aliased, unique + aliased), "fraction"},
        {"parallel.busy_frac", ratio(busy_us, jobs_ * sweep_us), "fraction"},
        {"dse.parallel_speedup", ratio(jobs1_s / repeats, jobs_n_s), "ratio"},
    };
  }

  /// The seed-0 reference rows' hash, for golden/dse_search.json.
  std::string reference_hash() const { return rows_hash(reference_); }

 private:
  /// Architectures 1-6 of Table II, each with the count of grid CS counts
  /// that fit it at `mb` of RRAM.
  std::vector<int> fitting_cs_counts(double mb) const {
    std::vector<int> counts;
    for (int a = 1; a <= 6; ++a) {
      mapper::Architecture arch = mapper::make_table2_architecture(a);
      arch.rram_capacity_bits = units::mb_to_bits(mb);
      const auto n_geom = static_cast<double>(mapper::m3d_parallel_cs(arch, pdk_));
      counts.push_back(static_cast<int>(std::count_if(
          std::begin(kCsCounts), std::end(kCsCounts),
          [&](double n) { return n <= n_geom; })));
    }
    return counts;
  }

  /// A capacity in [12, 128] MB at which every architecture fits the same
  /// CS counts as at `canonical`: the values change, the work does not.
  double draw_capacity(double canonical, std::mt19937_64& rng) const {
    const std::vector<int> fits = fitting_cs_counts(canonical);
    double lo = canonical;
    double hi = canonical;
    while (lo - 0.25 >= 12.0 && fitting_cs_counts(lo - 0.25) == fits) lo -= 0.25;
    while (hi + 0.25 <= 128.0 && fitting_cs_counts(hi + 0.25) == fits) hi += 0.25;
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  }

  std::vector<double> evaluate(const std::vector<double>& p) const {
    mapper::Architecture arch =
        mapper::make_table2_architecture(static_cast<int>(p[0]));
    arch.rram_capacity_bits = units::mb_to_bits(p[2]);
    const auto n = static_cast<std::int64_t>(p[3]);
    const std::int64_t n_geom = mapper::m3d_parallel_cs(arch, pdk_);
    if (n > n_geom) {
      throw StatusError(Failure(ErrorCode::kInfeasiblePoint,
                                "CS count does not fit the freed Si area")
                            .with("n_cs", n)
                            .with("n_geom", n_geom));
    }
    const nn::Network& net = nets_[static_cast<std::size_t>(p[1])];
    const auto search = [&](std::int64_t n_cs) {
      return call("mapper.evaluate_network_with_search", [&] {
        return mapper::evaluate_network_with_search(net, arch, sys_, n_cs);
      });
    };
    const mapper::SearchedNetworkCost c2 = search(1);
    const mapper::SearchedNetworkCost c3 = search(n);
    return {c2.searched.edp() / c3.searched.edp(), c3.edp_improvement()};
  }

  /// One sweep on `jobs` threads; cold when the MapCache is empty.
  std::vector<dse::SweepRow> sweep(int jobs) const {
    dse::SweepOptions options;
    options.jobs = jobs;
    // budget_w is never read by the evaluator, so points differing only in
    // it are aliases.
    options.point_key = [](const std::vector<double>& p) {
      char key[128];
      std::snprintf(key, sizeof key, "%.17g,%.17g,%.17g,%.17g", p[0], p[1],
                    p[2], p[3]);
      return std::string(key);
    };
    return call("dse.run_sweep", [&] {
      return dse::run_sweep(
          grid_, {"searched_edp_benefit", "mapping_gain_m3d"},
          [this](const std::vector<double>& p) { return evaluate(p); },
          options);
    }).rows();
  }

  std::vector<dse::SweepRow> cold_sweep(int jobs) const {
    std::vector<dse::SweepRow> rows = sweep(jobs);
    mapper::MapCache::instance().clear();
    return rows;
  }

  int jobs_;
  tech::FoundryM3dPdk pdk_ = tech::FoundryM3dPdk::make_130nm();
  mapper::SystemCosts sys_;
  std::vector<nn::Network> nets_ = {nn::make_alexnet(), nn::make_resnet18()};
  dse::Grid grid_;
  std::vector<dse::SweepRow> reference_;
  std::vector<dse::SweepRow> rows_;
  std::string golden_hash_;
};

// ----------------------------------------------------------------- phys_scale

constexpr const char* kPhysStages[] = {"floorplan", "place", "route", "timing",
                                       "power"};

class PhysScale final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    // bench_fig2_physical_design's 32-bank input: 8 MB of RRAM per bank.
    input_ = case_study_flow_input(accel::CaseStudy{});
    input_.rram_capacity_bits = units::mb_to_bits(8.0 * 32.0);
    flow_.emplace(phys::PlacerOptions{}, 1 + seed);
    // The baseline holds the default placer seed's outputs; another seed is
    // held to its own warm-up op (the first check).
    if (seed == 0) {
      for (const auto& [name, value] : load_expected_values(baseline_path("fig2_physical_design"))) {
        if (name.rfind("banks32_", 0) == 0) expected_[name] = value;
      }
    }
  }

  double run() override {
    const double cpu0 = process_cpu_s();
    report_ = call("phys.run_design",
                   [&] { return flow_->run_design(input_, /*m3d=*/true, 32); });
    return process_cpu_s() - cpu0;
  }

  std::string check() override {
    if (!report_.feasible) return "the 32-bank design is infeasible";
    const std::vector<NamedValue> values = {
        {"banks32_feasible", 1.0},
        {"banks32_total_hpwl_um", report_.placement_hpwl_um},
        {"banks32_si_utilization", report_.si_utilization}};
    if (expected_.empty()) {
      for (const NamedValue& v : values) expected_[v.name] = v.value;
    }
    return check_values(expected_, values);
  }

  std::vector<Metric> layer_metrics(const SpanForest& spans,
                                    double ops) override {
    std::vector<Metric> out;
    double stages_us = 0.0;
    for (const char* stage : kPhysStages) {
      const double us = spans.total_us(std::string("phys.flow.") + stage);
      stages_us += us;
      out.push_back({std::string("phys.") + stage + "_ms", us / 1000.0 / ops, "ms"});
    }
    out.push_back({"phys.unattributed_ms",
                   (spans.layer_self_us("phys") - stages_us) / 1000.0 / ops, "ms"});
    const double scanned =
        static_cast<double>(counter("phys.placer.candidates_scanned"));
    const double skipped =
        static_cast<double>(counter("phys.placer.candidates_skipped"));
    out.push_back({"phys.placer.candidates_scanned", scanned, "count"});
    out.push_back({"phys.placer.candidates_skipped", skipped, "count"});
    out.push_back({"phys.placer.legal_checks",
                   static_cast<double>(counter("phys.placer.legal_checks")),
                   "count"});
    // Skipped windows were never scanned: the share of all candidate
    // windows that the occupancy index let the placer jump over.
    out.push_back({"phys.placer.skip_frac", ratio(skipped, scanned + skipped),
                   "fraction"});
    return out;
  }

 private:
  phys::FlowInput input_;
  std::optional<phys::M3dFlow> flow_;
  phys::DesignReport report_;
  std::map<std::string, double> expected_;
};

std::string values_json(const std::string& suite,
                        const std::vector<NamedValue>& values) {
  std::ostringstream os;
  os << "{\n  \"suite\": \"" << suite << "\",\n  \"values\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << values[i].name
       << "\", \"value\": " << exact_number(values[i].value) << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace

double Workload::peak_rss_mb() const {
  return static_cast<double>(uld3d::peak_rss_kb()) / 1024.0;
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::unique_ptr<Workload> make_workload(const std::string& name, int jobs) {
  if (name == "paper_repro") return std::make_unique<PaperRepro>();
  if (name == "cli_cold") return std::make_unique<CliCold>(jobs);
  if (name == "dse_search") return std::make_unique<DseSearch>(jobs);
  if (name == "phys_scale") return std::make_unique<PhysScale>();
  return nullptr;
}

void regenerate_golden(int jobs) {
  CliCold(jobs).write_golden();
  DseSearch dse(jobs);
  dse.build(/*seed=*/0);
  write_file(kGoldenDir + "/dse_search.json",
             "{\n  \"rows_fnv1a\": \"" + dse.reference_hash() + "\"\n}\n");
  for (const PaperRow& row : paper_rows()) {
    if (row.suite == "datasheet") {
      write_file(kGoldenDir + "/datasheet.json",
                 values_json(row.suite, row.compute()));
    }
  }
}

}  // namespace uld3d::e2e
