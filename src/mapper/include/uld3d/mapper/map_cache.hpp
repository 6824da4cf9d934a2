// Sharded memoization cache for fixed-dataflow layer costs.
//
// `evaluate_conv` memoizes `price_conv` here: the pricing of one layer
// shape under the architecture's own PE-array unrolling, which
// `evaluate_network` and the spatial search's fixed-dataflow baseline both
// repeat per layer, and which the persistent store
// (uld3d/mapper/map_cache_file.hpp) carries across runs.  The search prices
// its candidate unrollings with ConvPricer's kernel and never probes the
// cache: a probe costs more than one kernel call, and caching candidates
// would add ~150 k entries of ~600 B and lock traffic to every searched
// sweep (DESIGN.md §10, §17).
//
// The cache keys on the EXACT content of price_conv's (ConvSpec,
// Architecture, SystemCosts, n_cs) inputs — every numeric field captured
// bit-for-bit in a fixed word array, names excluded — so a hit returns a
// cost that is bit-identical to recomputation (no hash-collision risk:
// equality compares the full word array; the hash only picks a
// shard/bucket).  The cached LayerCost carries the first
// computing layer's name; lookups patch in the caller's name, keeping
// cache-on and cache-off outputs byte-equal.
//
// The key is deliberately a flat POD (no heap allocation, hash computed
// once at build time): a std::string key with per-lookup rehashing would
// cost even more per probe.
//
// Sharded (16 ways) so parallel sweep/search threads rarely contend on one
// mutex.  Racing inserts of the same key are benign: both threads computed
// the same value, first-in wins, the duplicate is dropped.
//
// `ULD3D_NO_MAPCACHE` (set non-empty) disables the cache at startup;
// `set_enabled` toggles it at runtime (tests, cache-off baselines).
// Hit/miss totals are mirrored into the MetricsRegistry as
// "mapper.mapcache.hits"/"mapper.mapcache.misses"; hits on entries that
// came from an on-disk store (uld3d/mapper/map_cache_file.hpp) are
// additionally counted as "mapper.mapcache.file_hits".
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "uld3d/mapper/cost_model.hpp"

namespace uld3d::mapper {

class MapCache {
 public:
  /// Number of 64-bit words of exact key content (ConvSpec 7, spatial 4,
  /// 3 operand buffers x 3 levels x 3 fields, RRAM/MAC energies 5, bit
  /// widths 3, SystemCosts 5, n_cs 1).
  static constexpr std::size_t kKeyWords = 52;

  /// Exact-content cache key: every numeric input bit-for-bit, plus a hash
  /// computed once at construction.  Equality ignores the hash and compares
  /// the full content, so colliding hashes can never alias two pricings.
  struct Key {
    std::array<std::uint64_t, kKeyWords> words{};
    std::uint64_t hash = 0;

    [[nodiscard]] bool operator==(const Key& other) const {
      return words == other.words;
    }
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };

  /// Process-wide instance (lazy; reads ULD3D_NO_MAPCACHE once on first use).
  static MapCache& instance();

  MapCache(const MapCache&) = delete;
  MapCache& operator=(const MapCache&) = delete;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Build the key for one pricing call; `conv.name`/`arch.name` are
  /// excluded so same-shape layers share entries.
  [[nodiscard]] static Key key(const nn::ConvSpec& conv,
                               const Architecture& arch,
                               const SystemCosts& sys, std::int64_t n_cs);

  /// Rebuild a Key from its persisted word array: the hash is recomputed
  /// locally (the on-disk store never persists it — a future hash-function
  /// change must not invalidate old files).
  [[nodiscard]] static Key key_from_words(
      const std::array<std::uint64_t, kKeyWords>& words);

  /// Cached cost for `key`, or nullopt.  Probes the sharded maps first,
  /// then the loaded tier.  Counts a hit or a miss (and a file_hit when the
  /// entry was served by the loaded tier).
  [[nodiscard]] std::optional<LayerCost> lookup(const Key& key);

  /// Insert-if-absent (racing inserts carry identical values; first wins).
  void insert(const Key& key, const LayerCost& cost);

  /// Bulk-register entries loaded from an on-disk store.  They land in an
  /// immutable side table ("loaded tier") probed on shard miss rather than
  /// in the sharded maps: loading N entries is two flat vector fills plus
  /// an open-addressing index build — no per-entry map inserts — which
  /// keeps a warm start an order of magnitude cheaper than re-inserting.
  /// Keys already present in the tier keep their first value; a key that is
  /// also computed in-process hits the shard map first and keeps its
  /// in-memory origin (the values are identical anyway).
  void load_tier(std::vector<Key> keys, std::vector<LayerCost> costs);

  /// Copy every entry (any origin) out, for persistence: the sharded maps
  /// plus any loaded-tier entries not shadowed by them (the result never
  /// repeats a key).  The `layer` field of the returned costs is whatever
  /// the first computing caller stamped — the on-disk store drops it
  /// (lookups re-patch the caller's name).
  [[nodiscard]] std::vector<std::pair<Key, LayerCost>> snapshot() const;

  void clear();           ///< drop every entry + loaded tier (counters untouched)
  void reset_counters();  ///< zero the hit/miss/file-hit counters
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Hits served by entries that were loaded from an on-disk store.
  [[nodiscard]] std::uint64_t file_hits() const {
    return file_hits_.load(std::memory_order_relaxed);
  }

 private:
  MapCache();

  struct Entry {
    LayerCost cost;
  };

  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, Entry, KeyHash> map;
  };

  /// Entries loaded from an on-disk store: parallel key/cost vectors plus a
  /// linear-probing index of slots into them.  Immutable once built (the
  /// shared_ptr is swapped whole under tier_mutex_), so lookups probe it
  /// without any locking beyond one shared_ptr copy.  Hits served from here
  /// are the "mapper.mapcache.file_hits" — the observable warm-start
  /// benefit of a persistent cache, separate from ordinary same-process
  /// memoization (which lands in the sharded maps).
  struct LoadedTier {
    std::vector<Key> keys;
    std::vector<LayerCost> costs;
    std::vector<std::uint32_t> index;
    std::uint64_t mask = 0;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  [[nodiscard]] Shard& shard_for(const Key& key);
  [[nodiscard]] const Shard& shard_for(const Key& key) const;
  [[nodiscard]] std::shared_ptr<const LoadedTier> tier() const;

  std::array<Shard, kShards> shards_;
  mutable std::mutex tier_mutex_;
  std::shared_ptr<const LoadedTier> tier_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> file_hits_{0};
};

}  // namespace uld3d::mapper
