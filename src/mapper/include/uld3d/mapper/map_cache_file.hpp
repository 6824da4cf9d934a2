// Persistent on-disk store for the MapCache — cross-run computation reuse.
//
// A sweep re-run, a `--resume` continuation, and every shard of a sharded
// sweep price the same (ConvSpec, Architecture, SystemCosts, n_cs) tuples;
// in-process the MapCache already deduplicates them, but it dies with the
// process.  This module serializes the cache to a small versioned binary
// file so the NEXT process starts warm: `load_map_cache_file` populates the
// MapCache (marking entries file-origin, so "mapper.mapcache.file_hits"
// counts the cross-run wins) and `save_map_cache_file` merges the in-memory
// entries with whatever the file already holds and rewrites it atomically —
// append-only semantics, so N shards saving into one shared file never lose
// each other's entries, and a kill mid-save never tears the file
// (write_file_atomic, util/checkpoint.hpp).
//
// File format (schema 1, little-endian, DESIGN.md §17):
//
//   magic        8 bytes  "ULD3DMCF"
//   schema       u32      kMapCacheFileSchemaVersion
//   key_words    u32      MapCache::kKeyWords (refused on mismatch)
//   entry_count  u64
//   prov_len     u32      provenance string length
//   provenance   bytes    fixed, informational (keeps saves byte-stable)
//   entries      entry_count records:
//       key          key_words x u64   the FULL exact-content key words —
//                                      never the in-process FNV hash, which
//                                      is recomputed on load
//       order_len    u32
//       order        bytes             LayerCost::mapping_order
//       9 x f64                        latency/compute/rram cycles, energy
//                                      terms, utilization (field order in
//                                      map_cache_file.cpp)
//       cs_used      i64
//   checksum     u64      FNV-1a over every byte after the magic
//
// LayerCost::layer is NOT stored: the key excludes names and lookups patch
// the caller's layer name in, so cache-file-on and -off runs stay
// byte-identical.  Load refuses corrupt input — truncated, tampered
// (checksum), wrong magic/schema/key-width — with
// StatusError(kInvalidConfig); a MISSING file is a normal cold start.
//
// `ULD3D_MAPCACHE_FILE` names a store for processes whose flags a script
// cannot edit (mirrors `--mapcache-file`); `ULD3D_NO_MAPCACHE_FILE` (set
// non-empty) is the escape hatch disabling the file layer entirely.
#pragma once

#include <cstddef>
#include <string>

namespace uld3d::mapper {

/// Bumped when the on-disk layout changes; older files are refused.
inline constexpr int kMapCacheFileSchemaVersion = 1;

/// Load `path` into MapCache::instance() (entries marked file-origin).
/// Returns the number of records loaded; 0 for a missing file (cold start).
/// Throws StatusError(kInvalidConfig) on a truncated, tampered, or
/// wrong-schema file.  Counts "mapper.mapcache.file_loads".
std::size_t load_map_cache_file(const std::string& path);

/// Merge the current MapCache contents with the records already in `path`
/// (re-read best-effort: a file another shard just rewrote contributes its
/// entries; a corrupt one is overwritten with a warning) and atomically
/// rewrite the file in canonical key order — the same inputs always produce
/// byte-identical files.  A file that parsed cleanly and gains no record is
/// left as it is.  Returns the number of NEWLY appended records and
/// counts them as "mapper.mapcache.file_appends".  Throws
/// StatusError(kInternal) when the file cannot be written.
std::size_t save_map_cache_file(const std::string& path);

/// False once ULD3D_NO_MAPCACHE_FILE is set non-empty (read per call so
/// tests can flip it); callers skip both load and save.
[[nodiscard]] bool mapcache_file_enabled();

/// ULD3D_MAPCACHE_FILE, or "" when unset.
[[nodiscard]] std::string mapcache_file_path_from_env();

/// RAII session: load on construction (throwing on a corrupt file, BEFORE
/// any work runs on stale assumptions), save-merged on destruction
/// (best-effort: a save failure is logged, never thrown mid-unwind).
class MapCacheFileSession {
 public:
  explicit MapCacheFileSession(std::string path);
  ~MapCacheFileSession();
  MapCacheFileSession(const MapCacheFileSession&) = delete;
  MapCacheFileSession& operator=(const MapCacheFileSession&) = delete;

  [[nodiscard]] std::size_t loaded() const { return loaded_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::size_t loaded_ = 0;
};

}  // namespace uld3d::mapper
