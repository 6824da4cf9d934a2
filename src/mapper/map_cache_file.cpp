#include "uld3d/mapper/map_cache_file.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <utility>
#include <vector>

#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/status.hpp"

namespace uld3d::mapper {

namespace {

constexpr char kMagic[8] = {'U', 'L', 'D', '3', 'D', 'M', 'C', 'F'};

/// Fixed provenance line: informational for `strings`/hexdump forensics,
/// deliberately free of run identity so the same entries always serialize
/// to byte-identical files (tests and shard merges rely on that).
const char kProvenance[] = "uld3d map-cache store; layercost v1";

using KeyWords = std::array<std::uint64_t, MapCache::kKeyWords>;

/// One persisted record: the exact key words plus the name-free LayerCost.
struct Record {
  std::string mapping_order;
  double numerics[9] = {};
  std::int64_t cs_used = 1;
};

/// Entries are held in a flat vector sorted ascending by key words (the
/// canonical file order), not a std::map: a sweep-scale store holds tens of
/// thousands of 416-byte keys, and tree inserts with per-node allocations
/// made load slower than recomputing the entries from scratch.  A sorted
/// vector parses in file order (already canonical for every file we write),
/// merges with a linear two-pointer pass, and serializes by iteration — the
/// same canonical order std::map produced, so files stay byte-stable.
using Entries = std::vector<std::pair<KeyWords, Record>>;

bool key_less(const std::pair<KeyWords, Record>& a,
              const std::pair<KeyWords, Record>& b) {
  return a.first < b.first;
}

/// LayerCost <-> the fixed numeric field order of the file format.
Record record_from_cost(const LayerCost& cost) {
  Record r;
  r.mapping_order = cost.mapping_order;
  r.numerics[0] = cost.latency_cycles;
  r.numerics[1] = cost.compute_cycles;
  r.numerics[2] = cost.rram_cycles;
  r.numerics[3] = cost.energy_pj;
  r.numerics[4] = cost.mac_energy_pj;
  r.numerics[5] = cost.buffer_energy_pj;
  r.numerics[6] = cost.rram_energy_pj;
  r.numerics[7] = cost.idle_energy_pj;
  r.numerics[8] = cost.utilization;
  r.cs_used = cost.cs_used;
  return r;
}

LayerCost cost_from_record(const Record& r) {
  LayerCost cost;
  cost.mapping_order = r.mapping_order;
  cost.latency_cycles = r.numerics[0];
  cost.compute_cycles = r.numerics[1];
  cost.rram_cycles = r.numerics[2];
  cost.energy_pj = r.numerics[3];
  cost.mac_energy_pj = r.numerics[4];
  cost.buffer_energy_pj = r.numerics[5];
  cost.rram_energy_pj = r.numerics[6];
  cost.idle_energy_pj = r.numerics[7];
  cost.utilization = r.numerics[8];
  cost.cs_used = r.cs_used;
  return cost;
}

/// The file checksum: FNV-1a folding eight bytes per step (little-endian
/// words, byte-wise over any tail).  One multiply per word instead of per
/// byte makes checksumming a megabyte-scale store ~8x cheaper than classic
/// byte-wise FNV while still catching any single-bit flip or truncation.
/// This exact definition is part of the file format (schema 1).
std::uint64_t fnv1a_words(const char* data, std::size_t size) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= size; i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, sizeof word);
    h ^= word;
    h *= kPrime;
  }
  for (; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kPrime;
  }
  return h;
}

[[noreturn]] void refuse(std::string what, const std::string& path) {
  throw StatusError(Failure(ErrorCode::kInvalidConfig, std::move(what))
                        .with("mapcache", path));
}

/// Little-endian scalar append.  The format is defined as little-endian;
/// every platform this repo targets is, so memcpy IS the LE encoding.
template <typename T>
void put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// Bounds-checked scalar read; refuses on truncation.
template <typename T>
T take(const std::string& data, std::size_t& offset, const std::string& path) {
  if (offset + sizeof(T) > data.size()) {
    refuse("map-cache file is truncated", path);
  }
  T value;
  std::memcpy(&value, data.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

std::string serialize(const Entries& entries) {
  std::string out(kMagic, sizeof kMagic);
  // Pre-size: fixed header + per-entry key/order-length/numerics/cs_used
  // plus the order strings themselves, so the append loop never reallocates.
  std::size_t bytes = sizeof kMagic + 20 + sizeof kProvenance - 1 +
                      entries.size() * (MapCache::kKeyWords * 8 + 4 + 80) + 8;
  for (const auto& [words, record] : entries) bytes += record.mapping_order.size();
  out.reserve(bytes);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(kMapCacheFileSchemaVersion));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(MapCache::kKeyWords));
  put<std::uint64_t>(out, entries.size());
  put<std::uint32_t>(out, static_cast<std::uint32_t>(sizeof kProvenance - 1));
  out.append(kProvenance, sizeof kProvenance - 1);
  for (const auto& [words, record] : entries) {
    for (const std::uint64_t w : words) put<std::uint64_t>(out, w);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(record.mapping_order.size()));
    out.append(record.mapping_order);
    for (const double v : record.numerics) put<double>(out, v);
    put<std::int64_t>(out, record.cs_used);
  }
  put<std::uint64_t>(out, fnv1a_words(out.data() + sizeof kMagic,
                                      out.size() - sizeof kMagic));
  return out;
}

/// Verify a complete file image and stream its entries out.  Refuses wrong
/// magic/schema/key width, truncation, trailing garbage, and checksum
/// mismatches (tampering or torn copies — the atomic writer never produces
/// one, but files travel between machines).  `reserve(n)` is called once
/// with a bound on the entry count; `entry(words, record)` once per entry
/// in file order.  Streaming lets the load path build its final vectors
/// directly instead of paying an intermediate copy of every ~500-byte
/// entry (a warm start is pure overhead, so its constant factor matters).
template <typename ReserveFn, typename EntryFn>
void walk_entries(const std::string& data, const std::string& path,
                  ReserveFn&& reserve, EntryFn&& entry) {
  if (data.size() < sizeof kMagic ||
      std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
    refuse("file is not a uld3d map-cache store (wrong or missing magic)",
           path);
  }
  if (data.size() < sizeof kMagic + sizeof(std::uint64_t)) {
    refuse("map-cache file is truncated", path);
  }
  const std::size_t checksum_at = data.size() - sizeof(std::uint64_t);
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, data.data() + checksum_at,
              sizeof stored_checksum);
  if (fnv1a_words(data.data() + sizeof kMagic,
                  checksum_at - sizeof kMagic) != stored_checksum) {
    refuse("map-cache file checksum mismatch (tampered or torn file)", path);
  }
  std::size_t offset = sizeof kMagic;
  const auto schema = take<std::uint32_t>(data, offset, path);
  if (schema != static_cast<std::uint32_t>(kMapCacheFileSchemaVersion)) {
    refuse("unsupported map-cache schema " + std::to_string(schema) +
               " (this build reads " +
               std::to_string(kMapCacheFileSchemaVersion) + ")",
           path);
  }
  const auto key_words = take<std::uint32_t>(data, offset, path);
  if (key_words != static_cast<std::uint32_t>(MapCache::kKeyWords)) {
    refuse("map-cache key width " + std::to_string(key_words) +
               " does not match this build's " +
               std::to_string(MapCache::kKeyWords),
           path);
  }
  const auto entry_count = take<std::uint64_t>(data, offset, path);
  const auto prov_len = take<std::uint32_t>(data, offset, path);
  if (offset + prov_len > checksum_at) {
    refuse("map-cache file is truncated", path);
  }
  offset += prov_len;  // informational only

  // entry_count is checksum-validated, but cap the reserve at what the file
  // could physically hold so a crafted header cannot force a huge alloc.
  reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(entry_count, data.size() / 100)));
  for (std::uint64_t e = 0; e < entry_count; ++e) {
    KeyWords words;
    if (offset + sizeof words > data.size()) {
      refuse("map-cache file is truncated", path);
    }
    std::memcpy(words.data(), data.data() + offset, sizeof words);
    offset += sizeof words;
    const auto order_len = take<std::uint32_t>(data, offset, path);
    if (offset + order_len > checksum_at) {
      refuse("map-cache file is truncated", path);
    }
    Record record;
    record.mapping_order.assign(data, offset, order_len);
    offset += order_len;
    for (double& v : record.numerics) v = take<double>(data, offset, path);
    record.cs_used = take<std::int64_t>(data, offset, path);
    entry(words, std::move(record));
  }
  if (offset != checksum_at) {
    refuse("map-cache file has trailing bytes after the last entry", path);
  }
}

/// Parse + verify into canonically ordered, duplicate-free Entries.
Entries parse(const std::string& data, const std::string& path) {
  Entries entries;
  bool sorted = true;
  walk_entries(
      data, path, [&entries](std::size_t n) { entries.reserve(n); },
      [&entries, &sorted](const KeyWords& words, Record&& record) {
        if (!entries.empty() && !(entries.back().first < words)) {
          sorted = false;
        }
        entries.emplace_back(words, std::move(record));
      });
  if (!sorted) {
    // Every file this writer produces is in canonical order; tolerate an
    // unsorted (but otherwise valid) one anyway rather than widen the
    // refusal surface.
    std::stable_sort(entries.begin(), entries.end(), key_less);
  }
  if (std::adjacent_find(entries.begin(), entries.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }) != entries.end()) {
    refuse("map-cache file repeats a key", path);
  }
  return entries;
}

/// Whole-file read (one sized read, not a stream copy); nullopt when the
/// file does not exist or cannot be read.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamsize size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string data(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(data.data(), size);
  if (!in) return std::nullopt;
  return data;
}

}  // namespace

bool mapcache_file_enabled() {
  const char* env = std::getenv("ULD3D_NO_MAPCACHE_FILE");
  return env == nullptr || *env == '\0';
}

std::string mapcache_file_path_from_env() {
  const char* env = std::getenv("ULD3D_MAPCACHE_FILE");
  return env != nullptr ? env : "";
}

std::size_t load_map_cache_file(const std::string& path) {
  const std::optional<std::string> data = read_file(path);
  if (!data.has_value()) return 0;  // cold start
  // Stream straight into the tier's backing vectors — no intermediate
  // Entries pass.  Sortedness/duplicate checks ride along: writer files
  // are canonically sorted, so the adjacent compare covers them for free.
  std::vector<MapCache::Key> keys;
  std::vector<LayerCost> costs;
  bool sorted = true;
  walk_entries(
      *data, path,
      [&](std::size_t n) {
        keys.reserve(n);
        costs.reserve(n);
      },
      [&](const KeyWords& words, Record&& record) {
        if (!keys.empty()) {
          const KeyWords& prev = keys.back().words;
          if (!(prev < words)) {
            if (prev == words) refuse("map-cache file repeats a key", path);
            sorted = false;
          }
        }
        keys.push_back(MapCache::key_from_words(words));
        costs.push_back(cost_from_record(record));
      });
  if (!sorted) {
    // Hand-crafted unsorted file: the adjacent compare above can miss
    // duplicates, so do the full check before handing the batch over.
    std::vector<std::uint32_t> order(keys.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&keys](std::uint32_t a, std::uint32_t b) {
                return keys[a].words < keys[b].words;
              });
    for (std::size_t i = 1; i < order.size(); ++i) {
      if (keys[order[i - 1]].words == keys[order[i]].words) {
        refuse("map-cache file repeats a key", path);
      }
    }
  }
  const std::size_t loaded = keys.size();
  MapCache::instance().load_tier(std::move(keys), std::move(costs));
  MetricsRegistry::instance()
      .counter("mapper.mapcache.file_loads")
      .add(loaded);
  return loaded;
}

std::size_t save_map_cache_file(const std::string& path) {
  // Append-only merge: start from what the file holds NOW (another shard
  // may have rewritten it since we loaded), union our in-memory entries in.
  // Equal keys carry bit-identical costs by the determinism contract, so
  // first-in wins is a no-op choice.
  Entries preexisting_entries;
  bool preexisting_clean = false;
  if (const std::optional<std::string> data = read_file(path)) {
    try {
      preexisting_entries = parse(*data, path);
      preexisting_clean = true;
    } catch (const StatusError& error) {
      std::cerr << "mapcache: existing file is unreadable, rewriting: "
                << error.what() << "\n";
    }
  }
  const std::size_t preexisting = preexisting_entries.size();

  Entries ours;
  {
    const auto snapshot = MapCache::instance().snapshot();
    ours.reserve(snapshot.size());
    // Sort 4-byte slots, then gather once: sorting the ~500-byte entry
    // pairs directly spends most of the save shuffling payload bytes.
    std::vector<std::uint32_t> order(snapshot.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&snapshot](std::uint32_t a, std::uint32_t b) {
                return snapshot[a].first.words < snapshot[b].first.words;
              });
    for (const std::uint32_t i : order) {
      ours.emplace_back(snapshot[i].first.words,
                        record_from_cost(snapshot[i].second));
    }
  }

  // Two-pointer union in canonical order; on a shared key the FILE's record
  // wins (it is bit-identical by the determinism contract anyway).
  Entries merged;
  merged.reserve(preexisting + ours.size());
  auto file_it = preexisting_entries.begin();
  auto ours_it = ours.begin();
  while (file_it != preexisting_entries.end() || ours_it != ours.end()) {
    if (ours_it == ours.end()) {
      merged.push_back(std::move(*file_it++));
    } else if (file_it == preexisting_entries.end()) {
      merged.push_back(std::move(*ours_it++));
    } else if (file_it->first < ours_it->first) {
      merged.push_back(std::move(*file_it++));
    } else if (ours_it->first < file_it->first) {
      merged.push_back(std::move(*ours_it++));
    } else {
      merged.push_back(std::move(*file_it++));
      ++ours_it;
    }
  }
  const std::size_t appended = merged.size() - preexisting;
  // A store that parsed cleanly and gains nothing already holds every entry:
  // a warm run leaves it untouched instead of rewriting, syncing and
  // renaming the same records.
  if (!preexisting_clean || appended > 0) {
    if (!write_file_atomic(path, serialize(merged))) {
      throw StatusError(
          Failure(ErrorCode::kInternal, "could not write map-cache store")
              .with("mapcache", path));
    }
  }
  MetricsRegistry::instance()
      .counter("mapper.mapcache.file_appends")
      .add(appended);
  return appended;
}

MapCacheFileSession::MapCacheFileSession(std::string path)
    : path_(std::move(path)) {
  loaded_ = load_map_cache_file(path_);
  if (loaded_ > 0) {
    std::cerr << "mapcache: loaded " << loaded_ << " entr"
              << (loaded_ == 1 ? "y" : "ies") << " from " << path_ << "\n";
  }
}

MapCacheFileSession::~MapCacheFileSession() {
  try {
    const std::size_t appended = save_map_cache_file(path_);
    std::cerr << "mapcache: " << path_ << " updated (" << appended
              << " appended)\n";
  } catch (const std::exception& error) {
    std::cerr << "mapcache: could not save " << path_ << ": " << error.what()
              << "\n";
  }
}

}  // namespace uld3d::mapper
