// Shared machinery of uld3d-report's three modes (summary, --canon,
// --diff): the NDJSON event-stream loader with its crash-tolerance rules,
// the checked integer reader every integral event member goes through, the
// per-run/per-stage/per-point aggregation, and the machine-readable summary
// emitter (`uld3d-report --json`).
//
// This is a tools-local library (compiled into the tool and its mutation
// test), not part of uld3d::util: it depends on the *reader-side* contract
// of the event schema, which should stay free to evolve with the tool.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "uld3d/util/jsonv.hpp"

namespace uld3d::report {

/// Parsed event lines (header-validated), in file order.
struct EventStream {
  std::vector<JsonValue> events;
  std::size_t torn_lines = 0;  ///< 0 or 1 (only the final line may tear)
};

/// Load an NDJSON event stream.  Schema-checked per line; exactly one
/// unparseable *final* line is tolerated (a process killed mid-write can
/// tear the last write(2)) and counted in `torn_lines`; a malformed line
/// anywhere else throws JsonParseError.
EventStream read_events(const std::string& path);

/// Member `key` of `object` as an Int; `fallback` when the member is
/// absent, and JsonParseError when it is absent without a fallback.  A
/// present member must pass `json_integer` (a finite, integral number
/// within Int's range): anything else is malformed input (JsonParseError).
template <typename Int>
Int integer_member(const JsonValue& object, const std::string& key,
                   std::optional<Int> fallback = std::nullopt) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) {
    if (fallback.has_value()) return *fallback;
    throw JsonParseError("no \"" + key + "\" member");
  }
  if (const std::optional<Int> value = json_integer<Int>(*member)) {
    return *value;
  }
  throw JsonParseError("\"" + key + "\" is not an integer in range");
}

/// Exact double rendering — MUST match util/telemetry's writer so canon
/// re-renders reproduce the original bytes (doubles round-trip through the
/// parser bit-exactly at 17 significant digits).
std::string number_exact(double value);

/// Render one element of a params/metrics array: numbers exactly, and the
/// writer's non-finite string spellings ("nan"/"inf"/"-inf") verbatim.
std::string render_scalar(const JsonValue& v);

/// One run's identity row (a stream may hold several: resume appends).
struct RunInfo {
  std::string id;
  std::string command;
  std::string git_sha;
  std::string status = "(no run_end)";  ///< crash/kill leaves no run_end
  std::string exit_code = "-";
};

/// Aggregate over all `stage` events with one name, including the resource
/// attribution fields (0 when the stream predates them — they are additive).
struct StageAgg {
  std::size_t count = 0;
  double wall_us = 0.0;
  double cpu_us = 0.0;
  double alloc_bytes = 0.0;
  double rss_hwm_kb = 0.0;  ///< max over events, not a sum
};

/// One point_done observation (file order; duplicates from resume included).
struct PointTiming {
  std::uint64_t index = 0;
  double dur_us = 0.0;
  bool ok = false;
};

/// Everything the modes need from one pass over a stream.
struct StreamSummary {
  std::vector<RunInfo> runs;  ///< insertion order
  std::string sweep_fingerprint;
  std::size_t grid_size = 0;
  int jobs = 0;
  std::string sweep_line;  ///< human-readable sweep identity ("" = none)
  std::map<std::string, std::size_t> failure_counts;  ///< code -> count
  std::map<std::string, StageAgg> stages;             ///< name -> aggregate
  std::vector<PointTiming> timings;  ///< file order, duplicates included
  std::map<std::uint64_t, PointTiming> points_by_index;  ///< first win
  std::size_t ok = 0;      ///< point_done events with status ok
  std::size_t failed = 0;  ///< point_done events with any other status
  std::size_t checkpoints = 0;

  /// True when `id` labels a run recorded in this stream (the RunId join
  /// check shared by every artifact join).
  [[nodiscard]] bool has_run(const std::string& id) const;

  /// The `n` slowest point observations, slowest first (ties by index).
  [[nodiscard]] std::vector<PointTiming> slowest(std::size_t n) const;
};

/// One aggregation pass over a stream.
StreamSummary summarize(const EventStream& stream);

/// Machine-readable rendering of a summary (one JSON object, trailing
/// newline): runs with exit status, sweep identity, point counts, the
/// failure taxonomy, per-stage wall/cpu/alloc/rss, and the `stragglers`
/// slowest points (`uld3d-report --json`).  `extra_members`, when
/// non-empty, is spliced verbatim as additional top-level members (caller
/// renders them, e.g. the `"reuse"` object from a joined metrics export).
std::string summary_to_json(const StreamSummary& summary,
                            const EventStream& stream,
                            const std::string& source_path,
                            std::size_t stragglers,
                            const std::string& extra_members = {});

/// The computation-reuse counters of one run's metrics export — the
/// MapCache (in-process and persistent-file layers) and sweep-point dedup.
/// Zeros when the export predates a counter; `any` distinguishes "all
/// zero" from "no metrics at all".
struct ReuseCounters {
  double hits = 0.0;          ///< mapper.mapcache.hits
  double misses = 0.0;        ///< mapper.mapcache.misses
  double file_hits = 0.0;     ///< mapper.mapcache.file_hits
  double file_loads = 0.0;    ///< mapper.mapcache.file_loads
  double file_appends = 0.0;  ///< mapper.mapcache.file_appends
  double dedup_unique = 0.0;   ///< dse.sweep.dedup_unique
  double dedup_aliased = 0.0;  ///< dse.sweep.dedup_aliased
  bool any = false;            ///< at least one of the above was present

  /// A run that loaded a persistent store ran warm: its mapper timings are
  /// not comparable to a cold run's even though its VALUES are identical.
  [[nodiscard]] bool warm() const { return file_loads > 0.0; }
};

/// Extract the reuse counters from a parsed metrics export document.
ReuseCounters reuse_counters(const JsonValue& metrics_doc);

/// Render a ReuseCounters as the `"reuse": {...}` member body (no trailing
/// comma) for summary_to_json's extra_members.
std::string reuse_to_json(const ReuseCounters& reuse);

}  // namespace uld3d::report
