// uld3d-report — the offline analyzer for telemetry event streams
// (util/telemetry NDJSON files written via --events / ULD3D_EVENTS).
//
//   uld3d-report EVENTS.ndjson [--metrics METRICS.json]
//       [--trace TRACE.json] [--bench BENCH.json]
//       [--postmortem DUMP.json] [--stragglers N] [--json]
//   uld3d-report --canon EVENTS.ndjson
//
// Default mode prints a per-run summary: the runs recorded in the stream
// (provenance, exit status), sweep identity, point counts, a failure
// taxonomy histogram, per-stage time/resource breakdown, and the slowest
// points.  `--json` renders the same summary as one machine-readable JSON
// object (the emitter is shared with uld3d-diff, which compares two of
// them).  `--metrics` / `--trace` / `--bench` / `--postmortem` join the
// stream with that run's other artifacts by RunId: a label mismatch is
// reported loudly (mixing files from different runs is the exact mistake
// RunIds exist to catch).
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
// Crash tolerance: a process killed mid-write can leave one torn final
// line (the sink writes whole lines, but the OS may split the last
// write(2)).  Exactly one unparseable *final* line is tolerated and
// counted; a malformed line anywhere else is an error.
//
// Exit codes (asserted by tests/cli_telemetry.sh):
//   0  success
//   1  stream inconsistency (conflicting duplicate points, mixed sweep
//      identities, RunId join mismatch)
//   2  usage error
//   3  malformed/unreadable input (bad JSON mid-file, unsupported schema)
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
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
  std::string events_path;
  std::string metrics_path;
  std::string trace_path;
  std::string bench_path;
  std::string postmortem_path;
  std::size_t stragglers = 5;
  bool canon = false;
  bool json = false;
};

[[noreturn]] void usage(int exit_code) {
  (exit_code == 0 ? std::cout : std::cerr) <<
      "usage: uld3d-report EVENTS.ndjson [options]\n"
      "       uld3d-report --canon EVENTS.ndjson\n"
      "options:\n"
      "  --metrics FILE    join with a metrics JSON export (--metrics of\n"
      "                    uld3d_cli); RunIds must match\n"
      "  --trace FILE      join with a Chrome trace export (--trace)\n"
      "  --bench FILE      join with a BENCH_*.json suite document\n"
      "  --postmortem FILE join with a flight-recorder crash dump\n"
      "                    (<run>.postmortem.json); RunIds must match\n"
      "  --stragglers N    slowest points to list (default 5)\n"
      "  --json            machine-readable per-run summary (one JSON\n"
      "                    object; the same emitter uld3d-diff consumes)\n"
      "  --canon           emit the canonical projection (byte-identical\n"
      "                    across jobs counts and interrupt/resume)\n"
      "exit codes: 0 ok, 1 stream inconsistency, 2 usage,\n"
      "            3 malformed input\n";
  std::exit(exit_code);
}

// ---------------------------------------------------------------------------
// --canon: the order/jobs/run-invariant projection.
// ---------------------------------------------------------------------------

/// Canonical sweep identity header, rendered from a sweep_start event with
/// every volatile field (run, ts_ms, jobs, domain_size) stripped.
std::string canon_header(const JsonValue& event) {
  std::ostringstream os;
  os << "{\"ev\": \"sweep\", \"fingerprint\": \""
     << json_escape(event.at("fingerprint").as_string())
     << "\", \"grid_size\": "
     << static_cast<std::uint64_t>(event.at("grid_size").as_number());
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

/// Canonical point line: the point_done payload minus run/ts_ms/dur_us,
/// doubles re-rendered with the writer's own exact format.
std::string canon_point(const JsonValue& event) {
  std::ostringstream os;
  os << "{\"ev\": \"point\", \"index\": " << report::index_of(event)
     << ", \"params\": [";
  const JsonValue::Array& params = event.at("params").as_array();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) os << ", ";
    os << report::render_scalar(params[i]);
  }
  os << "], \"status\": \"" << json_escape(event.at("status").as_string())
     << "\"";
  const std::string status = event.at("status").as_string();
  if (status == "ok") {
    os << ", \"metrics\": [";
    const JsonValue::Array& metrics = event.at("metrics").as_array();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) os << ", ";
      os << report::render_scalar(metrics[i]);
    }
    os << "], \"failure\": null";
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
      const std::string rendered = canon_point(event);
      const std::uint64_t index = report::index_of(event);
      const auto [it, inserted] = points.emplace(index, rendered);
      if (!inserted && it->second != rendered) {
        std::cerr << "uld3d-report: point " << index
                  << " has conflicting results across runs:\n  " << it->second
                  << "\n  " << rendered << "\n";
        return 1;
      }
    }
    // run_start/run_end/progress/checkpoint_flush/stage (and the
    // shard_info of old streams) are per-run chatter: dropped from the
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

std::string format_ms(double us) { return format_double(us / 1e3, 2) + " ms"; }

void print_summary_tables(const Options& opts, const EventStream& stream,
                          const StreamSummary& s) {
  std::cout << "Events: " << stream.events.size() << " parsed from "
            << opts.events_path;
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

  if (!s.timings.empty() && opts.stragglers > 0) {
    std::vector<report::PointTiming> timings = s.timings;
    std::sort(timings.begin(), timings.end(),
              [](const report::PointTiming& a, const report::PointTiming& b) {
                if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
                return a.index < b.index;
              });
    Table straggler_table({"Index", "Status", "Duration"});
    const std::size_t n = std::min(opts.stragglers, timings.size());
    for (std::size_t i = 0; i < n; ++i) {
      straggler_table.add_row({std::to_string(timings[i].index),
                               timings[i].ok ? "ok" : "failed",
                               format_ms(timings[i].dur_us)});
    }
    std::cout << "\n";
    straggler_table.print(std::cout, "Slowest points");
  }
  if (s.progress_events > 0) {
    std::cout << "\nProgress events: " << s.progress_events << "\n";
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
  bool metrics_run_matches = false;
  if (!opts.metrics_path.empty()) {
    metrics_doc = json_parse_file(opts.metrics_path);
    metrics_run_matches = s.has_run(metrics_doc->string_or("run_id", ""));
  }
  std::string extra_members;
  report::ReuseCounters reuse;
  if (metrics_doc.has_value() && metrics_run_matches) {
    reuse = report::reuse_counters(*metrics_doc);
    if (reuse.any) extra_members = report::reuse_to_json(reuse);
  }

  if (opts.json) {
    std::cout << report::summary_to_json(s, stream, opts.events_path,
                                         opts.stragglers, extra_members);
  } else {
    print_summary_tables(opts, stream, s);
  }

  // --- Artifact joins: RunId labels must agree with the event stream.
  // In --json mode the join diagnostics go to stderr so stdout stays one
  // parseable object; the exit code carries the verdict either way. ---
  int inconsistencies = 0;
  std::ostream& join_out = opts.json ? std::cerr : std::cout;

  if (metrics_doc.has_value()) {
    const std::string run_id = metrics_doc->string_or("run_id", "");
    join_out << "\nMetrics join (" << opts.metrics_path << "): run "
             << (run_id.empty() ? "(unlabelled)" : run_id);
    if (!metrics_run_matches) {
      join_out << " — MISMATCH: not a run in this event stream\n";
      ++inconsistencies;
    } else {
      join_out << " — matches\n";
      double dropped = 0.0;
      if (const JsonValue* metrics = metrics_doc->find("metrics");
          metrics != nullptr && metrics->is_array()) {
        for (const JsonValue& m : metrics->as_array()) {
          if (m.string_or("name", "") == "trace.dropped_events") {
            dropped = m.number_or("value", 0.0);
          }
        }
      }
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
      if (dropped > 0.0) {
        join_out << "  WARNING: " << format_double(dropped, 0)
                 << " trace event(s) dropped — the trace export is "
                    "truncated\n";
      }
    }
  }

  if (!opts.trace_path.empty()) {
    const JsonValue doc = json_parse_file(opts.trace_path);
    std::string run_id;
    double dropped = 0.0;
    std::size_t span_count = 0;
    if (const JsonValue* other = doc.find("otherData"); other != nullptr) {
      run_id = other->string_or("run_id", "");
      dropped = other->number_or("dropped_events", 0.0);
    }
    if (const JsonValue* spans = doc.find("traceEvents");
        spans != nullptr && spans->is_array()) {
      span_count = spans->as_array().size();
    }
    join_out << "\nTrace join (" << opts.trace_path << "): run "
             << (run_id.empty() ? "(unlabelled)" : run_id);
    if (!s.has_run(run_id)) {
      join_out << " — MISMATCH: not a run in this event stream\n";
      ++inconsistencies;
    } else {
      join_out << " — matches, " << span_count << " span(s)";
      if (dropped > 0.0) {
        join_out << ", " << format_double(dropped, 0) << " DROPPED";
      }
      join_out << "\n";
    }
  }

  if (!opts.bench_path.empty()) {
    const JsonValue doc = json_parse_file(opts.bench_path);
    join_out << "\nBench join (" << opts.bench_path << "): suite "
             << doc.string_or("suite", "?");
    if (const JsonValue* prov = doc.find("provenance"); prov != nullptr) {
      join_out << ", git " << prov->string_or("git_sha", "?") << ", peak RSS "
               << format_double(prov->number_or("peak_rss_kb", 0.0) / 1024.0,
                                1)
               << " MiB, pool queue high-water "
               << format_double(prov->number_or("pool_queue_high_water", 0.0),
                                0);
    }
    join_out << "\n";
  }

  if (!opts.postmortem_path.empty()) {
    const JsonValue doc = json_parse_file(opts.postmortem_path);
    const std::string run_id = doc.string_or("run", "");
    join_out << "\nPostmortem join (" << opts.postmortem_path << "): run "
             << (run_id.empty() ? "(unlabelled)" : run_id);
    if (!s.has_run(run_id)) {
      join_out << " — MISMATCH: not a run in this event stream\n";
      ++inconsistencies;
    } else {
      join_out << " — matches, reason " << doc.string_or("reason", "?")
               << " (signal "
               << static_cast<int>(doc.number_or("signal", 0)) << ")\n";
      // Show the dumping (crashed) thread's active-span stack — "what was
      // it doing" is the question a postmortem exists to answer.
      if (const JsonValue* threads = doc.find("threads");
          threads != nullptr && threads->is_array()) {
        for (const JsonValue& t : threads->as_array()) {
          const JsonValue* dumping = t.find("dumping");
          if (dumping == nullptr || !dumping->is_bool() ||
              !dumping->as_bool()) {
            continue;
          }
          join_out << "  crashed thread "
                   << static_cast<std::uint64_t>(t.number_or("id", 0));
          const std::string name = t.string_or("name", "");
          if (!name.empty()) join_out << " (" << name << ")";
          join_out << ", active spans:";
          if (const JsonValue* spans = t.find("active_spans");
              spans != nullptr && spans->is_array() &&
              !spans->as_array().empty()) {
            for (const JsonValue& span : spans->as_array()) {
              join_out << " " << span.as_string();
            }
          } else {
            join_out << " (none)";
          }
          join_out << "\n";
        }
      }
    }
  }

  return inconsistencies > 0 ? 1 : 0;
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
        std::cerr << "uld3d-report: " << arg << " needs an operand\n";
        usage(2);
      }
      return args[++i];
    };
    if (arg == "--canon") {
      opts.canon = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--metrics") {
      opts.metrics_path = operand();
    } else if (arg == "--trace") {
      opts.trace_path = operand();
    } else if (arg == "--bench") {
      opts.bench_path = operand();
    } else if (arg == "--postmortem") {
      opts.postmortem_path = operand();
    } else if (arg == "--stragglers") {
      try {
        opts.stragglers = std::stoul(operand());
      } catch (const std::exception&) {
        std::cerr << "uld3d-report: --stragglers needs a count\n";
        usage(2);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "uld3d-report: unknown flag " << arg << "\n";
      usage(2);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 1) usage(2);
  opts.events_path = positional[0];

  try {
    const EventStream stream = report::read_events(opts.events_path);
    return opts.canon ? run_canon(stream) : run_summary(opts, stream);
  } catch (const JsonParseError& e) {
    std::cerr << "uld3d-report: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    // Structurally-unexpected documents (wrong member kinds) are malformed
    // inputs, not crashes.
    std::cerr << "uld3d-report: " << e.what() << "\n";
    return 3;
  }
}
