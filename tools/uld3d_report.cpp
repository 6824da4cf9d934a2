// uld3d-report — the offline analyzer for telemetry event streams
// (util/telemetry NDJSON files written via --events / ULD3D_EVENTS).
//
//   uld3d-report EVENTS.ndjson [--metrics METRICS.json]
//       [--trace TRACE.json] [--postmortem DUMP.json] [--top N] [--json]
//   uld3d-report --canon EVENTS.ndjson
//   uld3d-report --diff BASE.ndjson CURRENT.ndjson
//       [--time-tol PCT] [--min-delta-us US]
//       [--alloc-tol PCT] [--min-delta-bytes N]
//       [--metrics BASE.json CURRENT.json] [--top N] [--json]
//
// The default mode prints a per-run summary: the runs recorded in the
// stream (provenance, exit status), sweep identity, point counts, a failure
// taxonomy histogram, per-stage time/resource breakdown, and the slowest
// points.  `--json` renders the same summary as one machine-readable JSON
// object.  `--metrics` / `--trace` / `--postmortem` join the stream with
// that run's other artifacts by RunId: a label mismatch is reported loudly
// (mixing files from different runs is the exact mistake RunIds exist to
// catch).
//
// `--canon` emits the stream's canonical projection to stdout: the sweep
// identity header, every point_done re-rendered exactly (17-significant-
// digit doubles, the writer's own rendering) sorted and deduplicated by
// grid index, and a footer with counts.  Volatile fields — timestamps,
// RunIds, jobs counts, durations, progress/checkpoint/stage chatter — are
// stripped, so a jobs=1 stream, a jobs=8 stream, and an
// interrupted-then-resumed stream of the same sweep compare BYTE-IDENTICAL
// (tests/cli_telemetry.sh asserts this with cmp).  Duplicate indices from a
// resume overlap must re-render identically; a conflict means two runs
// disagreed on a point's result and is reported as corruption.
//
// `--diff` is the regression localizer: it joins two runs' streams and
// answers "which stage or sweep point got slower or hungrier, and by how
// much" (noise gating borrowed from uld3d-bench-compare):
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
//
// Crash tolerance: a process killed mid-write can leave one torn final
// line (the sink writes whole lines, but the OS may split the last
// write(2)).  Exactly one unparseable *final* line is tolerated and
// counted; a malformed line anywhere else is an error.
//
// Exit codes (asserted by tests/cli_telemetry.sh and tests/cli_diff.sh):
//   0  success; with --diff, no regression beyond tolerance
//   1  stream inconsistency (conflicting duplicate points, mixed sweep
//      identities, RunId join mismatch); with --diff, a regression
//   2  usage error, including a flag of another mode
//   3  malformed/unreadable input (bad JSON mid-file, unsupported schema,
//      an integer member out of range); with --diff, incomparable runs
//      (sweep fingerprint, metrics RunId)
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "report_common.hpp"
#include "tolerance.hpp"
#include "uld3d/util/export.hpp"
#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/table.hpp"

namespace {

using namespace uld3d;
using report::EventStream;
using report::StreamSummary;

/// The modes, as bits so that each flag can name the modes it belongs to.
enum Mode : unsigned { kSummary = 1, kCanon = 2, kDiff = 4 };

struct Options {
  Mode mode = kSummary;
  std::vector<std::string> events;   // EVENTS, or BASE and CURRENT
  std::vector<std::string> metrics;  // one export per stream
  std::string trace_path;
  std::string postmortem_path;
  std::optional<std::size_t> top;  // rows to list; each mode has a default
  bool json = false;
  double time_tol = 0.25;           // 25% relative wall/cpu slowdown
  double min_delta_us = 10000.0;    // 10 ms absolute noise floor
  double alloc_tol = 0.50;          // 50% relative allocation growth
  double min_delta_bytes = 1 << 20; // 1 MiB absolute floor
};

[[noreturn]] void usage(int exit_code) {
  (exit_code == 0 ? std::cout : std::cerr) <<
      "usage: uld3d-report EVENTS.ndjson [options]\n"
      "       uld3d-report --canon EVENTS.ndjson\n"
      "       uld3d-report --diff BASE.ndjson CURRENT.ndjson [options]\n"
      "modes:\n"
      "  (default)           per-run summary, joined with the run's other\n"
      "                      artifacts by RunId\n"
      "  --canon             the canonical projection (byte-identical\n"
      "                      across jobs counts and interrupt/resume)\n"
      "  --diff              which stage or point of CURRENT regressed\n"
      "                      against BASE\n"
      "options (summary and --diff):\n"
      "  --metrics FILE      join a metrics JSON export (uld3d_cli\n"
      "                      --metrics); RunIds must match.  With --diff it\n"
      "                      takes BASE and CURRENT exports (informational)\n"
      "  --top N             rows to list: slowest points (default 5), or\n"
      "                      regressions with --diff (default 10)\n"
      "  --json              one machine-readable JSON object\n"
      "options (summary):\n"
      "  --trace FILE        join with a Chrome trace export (--trace)\n"
      "  --postmortem FILE   join with a flight-recorder crash dump\n"
      "                      (<run>.postmortem.json); RunIds must match\n"
      "options (--diff):\n"
      "  --time-tol PCT      wall/cpu slowdown tolerance per stage/point\n"
      "                      (default 25%)\n"
      "  --min-delta-us US   absolute wall/cpu noise floor (default 10000)\n"
      "  --alloc-tol PCT     allocation growth tolerance (default 50%)\n"
      "  --min-delta-bytes N absolute allocation floor (default 1048576)\n"
      "exit codes: 0 ok, 1 stream inconsistency or regression, 2 usage,\n"
      "            3 malformed input or incomparable runs\n";
  std::exit(exit_code);
}

std::string format_ms(double us) { return format_double(us / 1e3, 2) + " ms"; }

/// The runs a stream records, for headers: "id, id" ("(unlabelled)" for
/// events without a run label).
std::string run_list(const StreamSummary& s) {
  std::string out;
  for (const report::RunInfo& run : s.runs) {
    if (!out.empty()) out += ", ";
    out += run.id.empty() ? "(unlabelled)" : run.id;
  }
  return out;
}

/// name -> value of every metric in a metrics export (last one wins).
std::map<std::string, double> metric_values(const JsonValue& doc) {
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

// ---------------------------------------------------------------------------
// --canon: the order/jobs/run-invariant projection.
// ---------------------------------------------------------------------------

/// Canonical sweep identity header, rendered from a sweep_start event with
/// every volatile field (run, ts_ms, jobs, and the domain_size of older
/// streams) stripped.
std::string canon_header(const JsonValue& event) {
  std::ostringstream os;
  os << "{\"ev\": \"sweep\", \"fingerprint\": \""
     << json_escape(event.at("fingerprint").as_string())
     << "\", \"grid_size\": "
     << report::integer_member<std::uint64_t>(event, "grid_size");
  for (const char* member : {"params", "metrics"}) {
    os << ", \"" << member << "\": [";
    const JsonValue::Array& names = event.at(member).as_array();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) os << ", ";
      os << "\"" << json_escape(names[i].as_string()) << "\"";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

/// `[a, b]` of a params/metrics array, each element rendered exactly.
std::string scalar_array(const JsonValue& array) {
  std::string out = "[";
  for (const JsonValue& v : array.as_array()) {
    if (out.size() > 1) out += ", ";
    out += report::render_scalar(v);
  }
  return out + "]";
}

/// Canonical point line: the point_done payload minus run/ts_ms/dur_us,
/// doubles re-rendered with the writer's own exact format.
std::string canon_point(const JsonValue& event, std::uint64_t index) {
  std::ostringstream os;
  const std::string& status = event.at("status").as_string();
  os << "{\"ev\": \"point\", \"index\": " << index
     << ", \"params\": " << scalar_array(event.at("params"))
     << ", \"status\": \"" << json_escape(status) << "\"";
  if (status == "ok") {
    os << ", \"metrics\": " << scalar_array(event.at("metrics"))
       << ", \"failure\": null";
  } else {
    const JsonValue& failure = event.at("failure");
    os << ", \"failure\": {\"code\": \""
       << json_escape(failure.at("code").as_string()) << "\", \"message\": \""
       << json_escape(failure.at("message").as_string())
       << "\", \"context\": [";
    const JsonValue::Array& context = failure.at("context").as_array();
    for (std::size_t i = 0; i < context.size(); ++i) {
      if (i > 0) os << ", ";
      const JsonValue::Array& pair = context[i].as_array();
      os << "[\"" << json_escape(pair.at(0).as_string()) << "\", \""
         << json_escape(pair.at(1).as_string()) << "\"]";
    }
    os << "]}";
  }
  os << "}";
  return os.str();
}

int run_canon(const EventStream& stream) {
  // All sweep_start events in the file (one per run; a resumed run appends
  // another) must describe the same sweep once volatile fields go.
  std::string header;
  // index -> canonical line.  A resume overlap re-evaluates boundary
  // points; bit-identical results are the determinism contract, so
  // duplicate renders must agree byte-for-byte.
  std::map<std::uint64_t, std::string> points;
  std::size_t ok = 0;
  std::size_t failed = 0;
  for (const JsonValue& event : stream.events) {
    const std::string& type = event.at("ev").as_string();
    if (type == "sweep_start") {
      const std::string rendered = canon_header(event);
      if (header.empty()) {
        header = rendered;
      } else if (header != rendered) {
        std::cerr << "uld3d-report: stream mixes different sweeps:\n  "
                  << header << "\n  " << rendered << "\n";
        return 1;
      }
    } else if (type == "point_done") {
      const auto index =
          report::integer_member<std::uint64_t>(event, "index");
      const std::string rendered = canon_point(event, index);
      const auto [it, inserted] = points.emplace(index, rendered);
      if (!inserted && it->second != rendered) {
        std::cerr << "uld3d-report: point " << index
                  << " has conflicting results across runs:\n  " << it->second
                  << "\n  " << rendered << "\n";
        return 1;
      }
    }
    // run_start/run_end/checkpoint_flush/stage (and the shard_info and
    // progress events of old streams) are per-run chatter: dropped from the
    // projection by design.
  }
  std::ostringstream out;
  if (!header.empty()) out << header << "\n";
  for (const auto& [index, line] : points) {
    (void)index;
    out << line << "\n";
    if (line.find("\"status\": \"ok\"") != std::string::npos) {
      ++ok;
    } else {
      ++failed;
    }
  }
  out << "{\"ev\": \"end\", \"points\": " << points.size()
      << ", \"ok\": " << ok << ", \"failed\": " << failed << "}\n";
  std::cout << out.str();
  return 0;
}

// ---------------------------------------------------------------------------
// Default mode: per-run summary (tables or --json) + artifact joins.
// ---------------------------------------------------------------------------

void print_summary_tables(const Options& opts, const EventStream& stream,
                          const StreamSummary& s) {
  std::cout << "Events: " << stream.events.size() << " parsed from "
            << opts.events[0];
  if (stream.torn_lines > 0) {
    std::cout << " (+1 torn final line — the writer was killed mid-flush)";
  }
  std::cout << "\n\n";

  Table run_table({"Run", "Status", "Exit", "Command"});
  for (const report::RunInfo& run : s.runs) {
    run_table.add_row({run.id.empty() ? "(unlabelled)" : run.id, run.status,
                       run.exit_code, run.command});
  }
  run_table.print(std::cout, "Runs");

  if (!s.sweep_line.empty()) std::cout << "\nSweep: " << s.sweep_line << "\n";
  if (s.ok + s.failed > 0) {
    std::cout << "Points: " << s.ok + s.failed << " evaluated, " << s.ok
              << " ok, " << s.failed << " failed";
    if (s.checkpoints > 0) {
      std::cout << " (" << s.checkpoints << " checkpoint flushes)";
    }
    std::cout << "\n";
  }

  if (!s.failure_counts.empty()) {
    Table taxonomy({"Failure code", "Count"});
    for (const auto& [code, count] : s.failure_counts) {
      taxonomy.add_row({code, std::to_string(count)});
    }
    std::cout << "\n";
    taxonomy.print(std::cout, "Failure taxonomy");
  }

  if (!s.stages.empty()) {
    // CPU/alloc/RSS columns are 0 for streams recorded before stage events
    // carried resource attribution; the fields are additive, not a schema
    // break.
    Table stage_table(
        {"Stage", "Count", "Total", "Mean", "CPU", "Alloc MiB", "RSS MiB"});
    for (const auto& [name, agg] : s.stages) {
      stage_table.add_row(
          {name, std::to_string(agg.count), format_ms(agg.wall_us),
           format_ms(agg.wall_us / static_cast<double>(agg.count)),
           format_ms(agg.cpu_us),
           format_double(agg.alloc_bytes / (1024.0 * 1024.0), 2),
           format_double(agg.rss_hwm_kb / 1024.0, 1)});
    }
    std::cout << "\n";
    stage_table.print(std::cout, "Stage times");
  }

  const std::vector<report::PointTiming> slowest = s.slowest(*opts.top);
  if (!slowest.empty()) {
    Table straggler_table({"Index", "Status", "Duration"});
    for (const report::PointTiming& timing : slowest) {
      straggler_table.add_row({std::to_string(timing.index),
                               timing.ok ? "ok" : "failed",
                               format_ms(timing.dur_us)});
    }
    std::cout << "\n";
    straggler_table.print(std::cout, "Slowest points");
  }
}

int run_summary(const Options& opts, const EventStream& stream) {
  const StreamSummary s = report::summarize(stream);

  // Parse the metrics export (if any) BEFORE emitting the summary: in
  // --json mode its reuse counters become the "reuse" member of the one
  // stdout object, so consumers get cache/dedup effectiveness without a
  // second parse.  Only a RunId-matching export contributes — mixing
  // another run's counters in is the mistake the join check exists for.
  std::optional<JsonValue> metrics_doc;
  if (!opts.metrics.empty()) metrics_doc = json_parse_file(opts.metrics[0]);
  std::string extra_members;
  report::ReuseCounters reuse;
  if (metrics_doc.has_value() &&
      s.has_run(metrics_doc->string_or("run_id", ""))) {
    reuse = report::reuse_counters(*metrics_doc);
    if (reuse.any) extra_members = report::reuse_to_json(reuse);
  }

  if (opts.json) {
    std::cout << report::summary_to_json(s, stream, opts.events[0],
                                         *opts.top, extra_members);
  } else {
    print_summary_tables(opts, stream, s);
  }

  // --- Artifact joins: RunId labels must agree with the event stream.
  // In --json mode the join diagnostics go to stderr so stdout stays one
  // parseable object; the exit code carries the verdict either way. ---
  int inconsistencies = 0;
  std::ostream& join_out = opts.json ? std::cerr : std::cout;
  // Prints a join's header line; a run this stream does not hold is a
  // mismatch.  True when the labels agree.
  const auto joined = [&](const char* what, const std::string& path,
                          const std::string& run_id) {
    join_out << "\n" << what << " join (" << path << "): run "
             << (run_id.empty() ? "(unlabelled)" : run_id);
    if (s.has_run(run_id)) return true;
    join_out << " — MISMATCH: not a run in this event stream\n";
    ++inconsistencies;
    return false;
  };

  if (metrics_doc.has_value() &&
      joined("Metrics", opts.metrics[0],
             metrics_doc->string_or("run_id", ""))) {
    join_out << " — matches\n";
    if (reuse.hits + reuse.misses > 0.0) {
      join_out << "  mapping cache: " << format_double(reuse.hits, 0)
               << " hits, " << format_double(reuse.misses, 0) << " misses ("
               << format_double(
                      100.0 * reuse.hits / (reuse.hits + reuse.misses), 1)
               << "% hit rate)";
      if (reuse.file_loads > 0.0 || reuse.file_appends > 0.0) {
        join_out << "; persistent store: " << format_double(reuse.file_hits, 0)
                 << " file hits of " << format_double(reuse.file_loads, 0)
                 << " loaded, " << format_double(reuse.file_appends, 0)
                 << " appended (" << (reuse.warm() ? "warm" : "cold")
                 << " start)";
      }
      join_out << "\n";
    }
    if (reuse.dedup_unique + reuse.dedup_aliased > 0.0) {
      join_out << "  sweep dedup: "
               << format_double(reuse.dedup_unique, 0) << " unique point(s) "
               << "evaluated, " << format_double(reuse.dedup_aliased, 0)
               << " aliased\n";
    }
    const auto values = metric_values(*metrics_doc);
    if (const auto it = values.find("trace.dropped_events");
        it != values.end() && it->second > 0.0) {
      join_out << "  WARNING: " << format_double(it->second, 0)
               << " trace event(s) dropped — the trace export is "
                  "truncated\n";
    }
  }

  if (!opts.trace_path.empty()) {
    const JsonValue doc = json_parse_file(opts.trace_path);
    const JsonValue* other = doc.find("otherData");
    const JsonValue* spans = doc.find("traceEvents");
    if (joined("Trace", opts.trace_path,
               other == nullptr ? "" : other->string_or("run_id", ""))) {
      join_out << " — matches, "
               << (spans != nullptr && spans->is_array()
                       ? spans->as_array().size()
                       : 0)
               << " span(s)";
      const double dropped = other->number_or("dropped_events", 0.0);
      if (dropped > 0.0) {
        join_out << ", " << format_double(dropped, 0) << " DROPPED";
      }
      join_out << "\n";
    }
  }

  if (!opts.postmortem_path.empty()) {
    const JsonValue doc = json_parse_file(opts.postmortem_path);
    if (joined("Postmortem", opts.postmortem_path, doc.string_or("run", ""))) {
      join_out << " — matches, reason " << doc.string_or("reason", "?")
               << " (signal " << report::integer_member<int>(doc, "signal", 0)
               << ")\n";
      // Show the dumping (crashed) thread's active-span stack — "what was
      // it doing" is the question a postmortem exists to answer.
      const JsonValue* threads = doc.find("threads");
      if (threads != nullptr && threads->is_array()) {
        for (const JsonValue& t : threads->as_array()) {
          const JsonValue* dumping = t.find("dumping");
          if (dumping == nullptr || !dumping->is_bool() ||
              !dumping->as_bool()) {
            continue;
          }
          join_out << "  crashed thread "
                   << report::integer_member<std::uint64_t>(t, "id", 0);
          const std::string name = t.string_or("name", "");
          if (!name.empty()) join_out << " (" << name << ")";
          join_out << ", active spans:";
          const JsonValue* active = t.find("active_spans");
          if (active == nullptr || !active->is_array() ||
              active->as_array().empty()) {
            join_out << " (none)";
          } else {
            for (const JsonValue& span : active->as_array()) {
              join_out << " " << span.as_string();
            }
          }
          join_out << "\n";
        }
      }
    }
  }

  return inconsistencies > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// --diff: the regression localizer.
// ---------------------------------------------------------------------------

struct Finding {
  std::string scope;   // "stage" | "point"
  std::string name;
  std::string metric;  // "wall_us" | "cpu_us" | "alloc_bytes"
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

/// One side's metrics export, RunId-checked against its own stream: a
/// foreign export makes the runs incomparable (exit 3, not a regression).
JsonValue load_metrics(const std::string& path,
                       const StreamSummary& stream_summary, const char* side) {
  JsonValue doc = json_parse_file(path);
  const std::string run_id = doc.string_or("run_id", "");
  if (!stream_summary.has_run(run_id)) {
    throw std::runtime_error(std::string(side) + " metrics " + path +
                             " labels run '" + run_id +
                             "', which is not in the " + side +
                             " event stream");
  }
  return doc;
}

std::string format_amount(const Finding& f, double value) {
  if (f.metric == "alloc_bytes") {
    return format_double(value / (1024.0 * 1024.0), 2) + " MiB";
  }
  return format_ms(value);
}

int run_diff(const Options& opts) {
  const EventStream base_stream = report::read_events(opts.events[0]);
  const EventStream cur_stream = report::read_events(opts.events[1]);
  const StreamSummary base = report::summarize(base_stream);
  const StreamSummary cur = report::summarize(cur_stream);

  // Same-sweep check: stage/point comparisons across different sweeps are
  // meaningless, and silently diffing them is how bad dashboards happen.
  if (!base.sweep_fingerprint.empty() && !cur.sweep_fingerprint.empty() &&
      base.sweep_fingerprint != cur.sweep_fingerprint) {
    throw std::runtime_error("sweep fingerprints differ (base " +
                             base.sweep_fingerprint + ", current " +
                             cur.sweep_fingerprint +
                             ") — these are different sweeps");
  }

  std::vector<Finding> findings;
  std::size_t stages_checked = 0;
  std::size_t points_checked = 0;
  diff_stages(opts, base, cur, findings, stages_checked);
  diff_points(opts, base, cur, findings, points_checked);

  std::size_t counters_changed = 0;
  // Cache-temperature join: a warm run (persistent MapCache store loaded)
  // legitimately prices mapper points much faster than a cold one, so a
  // temperature mismatch explains timing deltas without any code change.
  bool have_reuse = false;
  report::ReuseCounters base_reuse;
  report::ReuseCounters cur_reuse;
  if (!opts.metrics.empty()) {
    const JsonValue base_doc = load_metrics(opts.metrics[0], base, "base");
    const JsonValue cur_doc = load_metrics(opts.metrics[1], cur, "current");
    const auto base_vals = metric_values(base_doc);
    for (const auto& [name, cur_v] : metric_values(cur_doc)) {
      const auto it = base_vals.find(name);
      const double base_v = it == base_vals.end() ? 0.0 : it->second;
      if (cur_v != base_v) ++counters_changed;
    }
    base_reuse = report::reuse_counters(base_doc);
    cur_reuse = report::reuse_counters(cur_doc);
    have_reuse = base_reuse.any || cur_reuse.any;
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
       << json_escape(opts.events[0]) << "\", \"runs\": \""
       << json_escape(run_list(base)) << "\"}, \"current\": {\"source\": \""
       << json_escape(opts.events[1]) << "\", \"runs\": \""
       << json_escape(run_list(cur)) << "\"}, \"tolerances\": {\"time_tol\": "
       << report::number_exact(opts.time_tol)
       << ", \"min_delta_us\": " << report::number_exact(opts.min_delta_us)
       << ", \"alloc_tol\": " << report::number_exact(opts.alloc_tol)
       << ", \"min_delta_bytes\": "
       << report::number_exact(opts.min_delta_bytes)
       << "}, \"checked\": {\"stages\": " << stages_checked
       << ", \"points\": " << points_checked << "}";
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

  std::cout << "Diff: base [" << run_list(base) << "] vs current ["
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
            << points_checked << " point(s)\n";

  if (counters_changed > 0) {
    std::cout << "Counter deltas (informational): " << counters_changed
              << " changed\n";
  }

  if (findings.empty()) {
    std::cout << "OK: no regression beyond tolerance (time "
              << format_double(opts.time_tol * 100.0, 0) << "%, alloc "
              << format_double(opts.alloc_tol * 100.0, 0) << "%)\n";
    return 0;
  }

  Table table({"Scope", "Name", "Metric", "Base", "Current", "Ratio"});
  const std::size_t shown = std::min(*opts.top, findings.size());
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
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) usage(0);

  // The mode decides how many operands --metrics takes, so read it first.
  const auto given = [&](const char* flag) {
    return std::find(args.begin(), args.end(), flag) != args.end();
  };
  Options opts;
  opts.mode = given("--diff") ? kDiff : given("--canon") ? kCanon : kSummary;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      const auto operand = [&]() -> const std::string& {
        if (i + 1 >= args.size()) {
          std::cerr << "uld3d-report: " << arg << " needs an operand\n";
          usage(2);
        }
        return args[++i];
      };
      // A flag of another mode is a usage error, not silently ignored.
      const auto only = [&](unsigned modes) {
        if ((modes & opts.mode) == 0) {
          std::cerr << "uld3d-report: " << arg << " does not apply to "
                    << (opts.mode == kDiff    ? "--diff"
                        : opts.mode == kCanon ? "--canon"
                                              : "the summary")
                    << "\n";
          usage(2);
        }
      };
      if (arg == "--canon" || arg == "--diff") {
        // Given both, the mode is --diff and --canon is refused here.
        only(arg == "--diff" ? kDiff : kCanon);
      } else if (arg == "--json") {
        only(kSummary | kDiff);
        opts.json = true;
      } else if (arg == "--metrics") {
        only(kSummary | kDiff);
        opts.metrics = {operand()};
        if (opts.mode == kDiff) opts.metrics.push_back(operand());
      } else if (arg == "--top") {
        only(kSummary | kDiff);
        opts.top = static_cast<std::size_t>(
            tools::parse_non_negative(operand(), /*integral=*/true));
      } else if (arg == "--trace") {
        only(kSummary);
        opts.trace_path = operand();
      } else if (arg == "--postmortem") {
        only(kSummary);
        opts.postmortem_path = operand();
      } else if (arg == "--time-tol") {
        only(kDiff);
        opts.time_tol = tools::parse_tolerance(operand());
      } else if (arg == "--min-delta-us") {
        only(kDiff);
        opts.min_delta_us = tools::parse_non_negative(operand());
      } else if (arg == "--alloc-tol") {
        only(kDiff);
        opts.alloc_tol = tools::parse_tolerance(operand());
      } else if (arg == "--min-delta-bytes") {
        only(kDiff);
        opts.min_delta_bytes = tools::parse_non_negative(operand());
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "uld3d-report: unknown flag " << arg << "\n";
        usage(2);
      } else {
        opts.events.push_back(arg);
      }
    }
  } catch (const std::logic_error& e) {
    // parse_non_negative and parse_tolerance: a malformed, negative or
    // out-of-range operand.
    std::cerr << "uld3d-report: bad operand: " << e.what() << "\n";
    usage(2);
  }
  if (opts.events.size() != (opts.mode == kDiff ? 2u : 1u)) usage(2);
  if (!opts.top.has_value()) opts.top = opts.mode == kDiff ? 10 : 5;

  try {
    if (opts.mode == kDiff) return run_diff(opts);
    const EventStream stream = report::read_events(opts.events[0]);
    return opts.mode == kCanon ? run_canon(stream) : run_summary(opts, stream);
  } catch (const std::exception& e) {
    // Malformed JSON, an unsupported schema, a member of the wrong kind or
    // out of range, incomparable runs: input errors, not crashes.
    std::cerr << "uld3d-report: " << e.what() << "\n";
    return 3;
  }
}
