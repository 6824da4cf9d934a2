// Run provenance: which commit, compiler, machine, and configuration
// produced an artifact.  Captured once per process and embedded in every
// BENCH_*.json document (util/bench) so results are comparable across runs
// and commits — the same discipline architectural simulators like ZigZag
// and Timeloop apply to their evaluation outputs.
//
// Build-time facts (git SHA, compiler, flags, build type) come from a
// CMake-configured header; runtime facts (hostname, timestamp) are read at
// capture time.  Config-file *content* hashes are recorded alongside so a
// changed experiment configuration is distinguishable from a code change.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uld3d {

struct Provenance {
  std::string git_sha;        ///< 40-hex HEAD commit, or "unknown"
  bool git_dirty = false;     ///< uncommitted changes at configure time
  std::string compiler;       ///< e.g. "GNU 13.2.0"
  std::string compiler_flags; ///< effective CXX flags for the build type
  std::string build_type;     ///< e.g. "Release"
  std::string system;         ///< e.g. "Linux-x86_64"
  std::string project_version;
  std::string hostname;       ///< captured at runtime
  std::string timestamp_utc;  ///< ISO-8601 UTC at capture, e.g. 2026-08-06T12:00:00Z
  std::int64_t unix_time_s = 0;
  int jobs = 1;                  ///< parallel::jobs() at capture time
  int hardware_concurrency = 1;  ///< cores visible to the process
  /// Peak resident set size in KiB (getrusage ru_maxrss; 0 where
  /// unavailable).  Lets BENCH_*.json correlate timing noise with memory
  /// pressure; bench refreshes it at finish() so it covers the run.
  std::int64_t peak_rss_kb = 0;
  /// Named configuration fingerprints: (name, fnv1a hex of the content).
  std::vector<std::pair<std::string, std::string>> config_hashes;
};

/// Current peak RSS in KiB (getrusage; 0 on platforms without it).
[[nodiscard]] std::int64_t peak_rss_kb();

/// Capture the current process's provenance (build facts + hostname +
/// timestamp).  `config_hashes` starts empty; callers append their own.
[[nodiscard]] Provenance capture_provenance();

/// 64-bit FNV-1a of `content` — the repo's canonical content fingerprint
/// for configs (stable, dependency-free; not cryptographic).
[[nodiscard]] std::uint64_t fnv1a_hash(std::string_view content);

/// fnv1a_hash rendered as a fixed-width 16-char lowercase hex string.
[[nodiscard]] std::string fnv1a_hex(std::string_view content);

/// Render `p` as a JSON object (no trailing newline), suitable for
/// embedding as the "provenance" member of a larger document.  `indent` is
/// the number of spaces prefixed to each member line.
[[nodiscard]] std::string provenance_json(const Provenance& p,
                                          int indent = 2);

}  // namespace uld3d
