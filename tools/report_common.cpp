#include "report_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "uld3d/util/export.hpp"  // json_escape
#include "uld3d/util/telemetry.hpp"  // kTelemetrySchemaVersion

namespace uld3d::report {

std::string number_exact(double value) {
  if (std::isnan(value)) return "\"nan\"";
  if (std::isinf(value)) return value > 0 ? "\"inf\"" : "\"-inf\"";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string render_scalar(const JsonValue& v) {
  if (v.is_string()) return "\"" + json_escape(v.as_string()) + "\"";
  return number_exact(v.as_number());
}

EventStream read_events(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw JsonParseError("cannot read events file: " + path);
  }
  EventStream stream;
  std::string line;
  std::size_t line_no = 0;
  std::size_t pending_torn_line = 0;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (pending_torn_line != 0) {
      // A parse failure is only forgivable on the FINAL line; seeing more
      // content after one means the file is corrupt, not torn.
      throw JsonParseError(path + ":" + std::to_string(pending_torn_line) +
                           ": malformed event line (not at end of file)");
    }
    JsonValue event;
    try {
      event = json_parse(line);
    } catch (const JsonParseError&) {
      pending_torn_line = line_no;
      continue;
    }
    const double schema = event.number_or("schema", -1.0);
    if (schema != static_cast<double>(kTelemetrySchemaVersion)) {
      throw JsonParseError(path + ":" + std::to_string(line_no) +
                           ": unsupported telemetry schema version");
    }
    if (event.find("ev") == nullptr || !event.at("ev").is_string()) {
      throw JsonParseError(path + ":" + std::to_string(line_no) +
                           ": event line has no \"ev\" type");
    }
    stream.events.push_back(std::move(event));
  }
  if (pending_torn_line != 0) stream.torn_lines = 1;
  return stream;
}

bool StreamSummary::has_run(const std::string& id) const {
  if (id.empty()) return false;
  return std::any_of(runs.begin(), runs.end(),
                     [&](const RunInfo& run) { return run.id == id; });
}

std::vector<PointTiming> StreamSummary::slowest(std::size_t n) const {
  std::vector<PointTiming> sorted = timings;
  std::sort(sorted.begin(), sorted.end(),
            [](const PointTiming& a, const PointTiming& b) {
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              return a.index < b.index;
            });
  sorted.resize(std::min(n, sorted.size()));
  return sorted;
}

StreamSummary summarize(const EventStream& stream) {
  StreamSummary s;
  std::map<std::string, std::size_t> run_index;  // run_id -> runs[] slot
  for (const JsonValue& event : stream.events) {
    const std::string& type = event.at("ev").as_string();
    const std::string run_id = event.string_or("run", "");
    auto it = run_index.find(run_id);
    if (it == run_index.end()) {
      it = run_index.emplace(run_id, s.runs.size()).first;
      RunInfo info;
      info.id = run_id;
      s.runs.push_back(std::move(info));
    }
    RunInfo& run = s.runs[it->second];
    if (type == "run_start") {
      run.command = event.string_or("command", "");
      if (const JsonValue* prov = event.find("provenance"); prov != nullptr) {
        run.git_sha = prov->string_or("git_sha", "");
      }
    } else if (type == "run_end") {
      run.status = event.string_or("status", "?");
      run.exit_code =
          std::to_string(integer_member<int>(event, "exit_code", -1));
    } else if (type == "sweep_start") {
      s.sweep_fingerprint = event.string_or("fingerprint", "");
      s.grid_size = integer_member<std::size_t>(event, "grid_size", 0);
      s.jobs = integer_member<int>(event, "jobs", 0);
      std::ostringstream os;
      os << "fingerprint " << event.string_or("fingerprint", "?") << ", grid "
         << s.grid_size << " points, jobs " << s.jobs;
      s.sweep_line = os.str();
    } else if (type == "point_done") {
      PointTiming timing;
      timing.index = integer_member<std::uint64_t>(event, "index");
      timing.dur_us = event.number_or("dur_us", 0.0);
      timing.ok = event.string_or("status", "") == "ok";
      timing.ok ? ++s.ok : ++s.failed;
      if (!timing.ok) {
        if (const JsonValue* f = event.find("failure");
            f != nullptr && f->is_object()) {
          ++s.failure_counts[f->string_or("code", "?")];
        }
      }
      // First observation wins in the per-index map: resume overlaps
      // re-evaluate a few points and the determinism contract makes the
      // repeats identical, so any one observation is representative.
      s.points_by_index.emplace(timing.index, timing);
      s.timings.push_back(timing);
    } else if (type == "stage") {
      StageAgg& agg = s.stages[event.string_or("name", "?")];
      ++agg.count;
      agg.wall_us += event.number_or("dur_us", 0.0);
      agg.cpu_us += event.number_or("cpu_us", 0.0);
      agg.alloc_bytes += event.number_or("alloc_bytes", 0.0);
      agg.rss_hwm_kb =
          std::max(agg.rss_hwm_kb, event.number_or("rss_kb", 0.0));
    } else if (type == "checkpoint_flush") {
      ++s.checkpoints;
    }
  }
  return s;
}

std::string summary_to_json(const StreamSummary& summary,
                            const EventStream& stream,
                            const std::string& source_path,
                            std::size_t stragglers,
                            const std::string& extra_members) {
  std::ostringstream os;
  os << "{\"schema\": 1, \"kind\": \"report\", \"source\": \""
     << json_escape(source_path) << "\", \"events\": " << stream.events.size()
     << ", \"torn_lines\": " << stream.torn_lines << ", \"runs\": [";
  for (std::size_t i = 0; i < summary.runs.size(); ++i) {
    const RunInfo& run = summary.runs[i];
    if (i > 0) os << ", ";
    os << "{\"run\": \"" << json_escape(run.id) << "\", \"status\": \""
       << json_escape(run.status) << "\", \"exit_code\": ";
    if (run.exit_code == "-") {
      os << "null";
    } else {
      os << run.exit_code;
    }
    os << ", \"command\": \"" << json_escape(run.command)
       << "\", \"git_sha\": \"" << json_escape(run.git_sha) << "\"}";
  }
  os << "], \"sweep\": ";
  if (summary.sweep_line.empty()) {
    os << "null";
  } else {
    os << "{\"fingerprint\": \"" << json_escape(summary.sweep_fingerprint)
       << "\", \"grid_size\": " << summary.grid_size
       << ", \"jobs\": " << summary.jobs << "}";
  }
  os << ", \"points\": {\"evaluated\": " << summary.ok + summary.failed
     << ", \"ok\": " << summary.ok << ", \"failed\": " << summary.failed
     << ", \"checkpoint_flushes\": " << summary.checkpoints
     << "}, \"failures\": {";
  bool first = true;
  for (const auto& [code, count] : summary.failure_counts) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << json_escape(code) << "\": " << count;
  }
  os << "}, \"stages\": [";
  first = true;
  for (const auto& [name, agg] : summary.stages) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << json_escape(name)
       << "\", \"count\": " << agg.count
       << ", \"wall_us\": " << number_exact(agg.wall_us)
       << ", \"cpu_us\": " << number_exact(agg.cpu_us)
       << ", \"alloc_bytes\": " << number_exact(agg.alloc_bytes)
       << ", \"rss_hwm_kb\": " << number_exact(agg.rss_hwm_kb) << "}";
  }
  os << "], \"stragglers\": [";
  const std::vector<PointTiming> timings = summary.slowest(stragglers);
  for (std::size_t i = 0; i < timings.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"index\": " << timings[i].index << ", \"status\": \""
       << (timings[i].ok ? "ok" : "failed")
       << "\", \"dur_us\": " << number_exact(timings[i].dur_us) << "}";
  }
  os << "]";
  if (!extra_members.empty()) os << ", " << extra_members;
  os << "}\n";
  return os.str();
}

ReuseCounters reuse_counters(const JsonValue& metrics_doc) {
  ReuseCounters reuse;
  const JsonValue* metrics = metrics_doc.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) return reuse;
  const auto grab = [&](const JsonValue& m, const char* name, double& out) {
    if (m.string_or("name", "") != name) return;
    out = m.number_or("value", 0.0);
    reuse.any = true;
  };
  for (const JsonValue& m : metrics->as_array()) {
    grab(m, "mapper.mapcache.hits", reuse.hits);
    grab(m, "mapper.mapcache.misses", reuse.misses);
    grab(m, "mapper.mapcache.file_hits", reuse.file_hits);
    grab(m, "mapper.mapcache.file_loads", reuse.file_loads);
    grab(m, "mapper.mapcache.file_appends", reuse.file_appends);
    grab(m, "dse.sweep.dedup_unique", reuse.dedup_unique);
    grab(m, "dse.sweep.dedup_aliased", reuse.dedup_aliased);
  }
  return reuse;
}

std::string reuse_to_json(const ReuseCounters& reuse) {
  std::ostringstream os;
  os << "\"reuse\": {\"mapcache\": {\"hits\": " << number_exact(reuse.hits)
     << ", \"misses\": " << number_exact(reuse.misses)
     << ", \"file_hits\": " << number_exact(reuse.file_hits)
     << ", \"file_loads\": " << number_exact(reuse.file_loads)
     << ", \"file_appends\": " << number_exact(reuse.file_appends)
     << ", \"warm\": " << (reuse.warm() ? "true" : "false")
     << "}, \"dedup\": {\"unique\": " << number_exact(reuse.dedup_unique)
     << ", \"aliased\": " << number_exact(reuse.dedup_aliased) << "}}";
  return os.str();
}

}  // namespace uld3d::report
