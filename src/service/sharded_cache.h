// Sharded LRU cache of sub-plan estimates, keyed by Query::Fingerprint.
//
// Sharding (mutex per shard, fingerprint bits pick the shard) keeps the
// cache off the critical path under a worker pool: threads estimating
// different sub-plans touch different shards and never serialize on one
// global lock. Because the fingerprint is canonical, the same sub-plan
// reached from different parent queries hits the same entry.
//
// Flat shards: each shard keeps its entries in one slot array threaded by an
// intrusive, exact LRU list (uint32 prev/next links) and a free list, and
// finds them through an open-addressed uint32 index (linear probing,
// backward-shift deletion, load factor <= 0.5) positioned by fingerprint
// bits the shard selection does not use. After construction nothing is
// allocated: a lookup is a few probes into two arrays, an insert reuses a
// freed slot or appends into reserved storage, and an eviction unlinks the
// LRU tail in place. An entry costs 48 bytes of slot plus 8-16 bytes of
// index.
//
// Versioned entries: each entry carries the statistics epoch it was computed
// under and a bitmap of the base tables its sub-plan touches (see
// TableEpochRegistry). A lookup that finds an entry predating a later update
// to any touched table erases it and reports a miss — lazy, per-entry
// invalidation instead of a global Clear().
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "query/query.h"
#include "service/table_epochs.h"

namespace fj {

/// Aggregate counters across all shards (monotonic except `entries`).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Entries dropped at lookup time because a touched table was updated
  /// after the entry was cached (each also counts as a miss).
  uint64_t invalidations = 0;
  size_t entries = 0;

  double HitRate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(lookups);
  }
};

class ShardedEstimateCache {
 public:
  /// `capacity` is the total entry budget, split evenly across `num_shards`
  /// (rounded up to a power of two so shard selection is a bit mask).
  /// `epochs`, when given (not owned, must outlive the cache), enables
  /// staleness checks against the registry's per-table epochs; without it
  /// entries never go stale (the pre-invalidation behavior). Slot storage
  /// is reserved here but only touched as entries arrive, so resident
  /// memory follows use. Throws std::invalid_argument when a shard's share
  /// exceeds 2^30 entries.
  explicit ShardedEstimateCache(size_t capacity, size_t num_shards = 16,
                                const TableEpochRegistry* epochs = nullptr);

  ShardedEstimateCache(const ShardedEstimateCache&) = delete;
  ShardedEstimateCache& operator=(const ShardedEstimateCache&) = delete;

  /// Returns the cached estimate and refreshes its LRU position, or nullopt
  /// on a miss. A found-but-stale entry is erased, counted under
  /// `invalidations`, and reported as a miss. Thread-safe (per-shard mutex);
  /// counts a hit or miss either way.
  std::optional<double> Lookup(const QueryFingerprint& key);

  /// Inserts or overwrites; evicts the shard's least-recently-used entry
  /// when the shard is at capacity. `table_bits` is the bitmap of base
  /// tables the sub-plan touches and `epoch` the TableEpochRegistry::Epoch()
  /// snapshot taken BEFORE the estimate was computed — snapshotting before
  /// guarantees an update racing the computation invalidates the entry.
  /// Thread-safe (per-shard mutex).
  void Insert(const QueryFingerprint& key, double value,
              uint64_t table_bits = 0, uint64_t epoch = 0);

  /// Drops every entry in every shard (stop-the-world; prefer epoch-based
  /// invalidation via TableEpochRegistry for data updates). Thread-safe.
  void Clear();

  /// Aggregated counters over all shards. Thread-safe snapshot.
  CacheStats Stats() const;
  size_t num_shards() const { return num_shards_; }
  size_t capacity() const { return num_shards_ * per_shard_capacity_; }

 private:
  /// No slot: ends the LRU and free lists.
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One cached estimate with its staleness tag and LRU links.
  struct Slot {
    QueryFingerprint key;
    double value;
    uint64_t epoch;       // registry epoch when the estimate started
    uint64_t table_bits;  // base tables the sub-plan touches
    uint32_t prev;        // toward the most recently used end
    uint32_t next;        // toward the least recently used end; free list
  };

  struct alignas(64) Shard {
    std::mutex mu;
    // Live and freed slots; never grows past the shard's capacity, so the
    // reservation made at construction is never reallocated.
    std::vector<Slot> slots;
    // Open-addressed index: slot + 1, or 0 for an empty position.
    std::unique_ptr<uint32_t[]> index;
    uint32_t head = kNil;       // most recently used
    uint32_t tail = kNil;       // least recently used: the next victim
    uint32_t free_list = kNil;  // slots erased by invalidation
    size_t size = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  Shard& ShardFor(const QueryFingerprint& key) {
    // The fingerprint is already well mixed; low bits of lo^hi pick a shard.
    return shards_[(key.lo ^ key.hi) & shard_mask_];
  }
  /// Index position where the probe for `key` starts: the lo^hi bits above
  /// the ones that picked the shard.
  size_t Home(const QueryFingerprint& key) const {
    return ((key.lo ^ key.hi) >> shard_bits_) & index_mask_;
  }
  /// Index position holding `key`, or the empty position ending its probe.
  size_t Find(const Shard& shard, const QueryFingerprint& key) const;
  /// Erases the entry at index position `pos`: backward-shifts the probe
  /// run behind it, unlinks its slot from the LRU list and frees the slot.
  void Erase(Shard& shard, size_t pos) const;
  static void Unlink(Shard& shard, uint32_t slot);
  static void PushFront(Shard& shard, uint32_t slot);

  std::unique_ptr<Shard[]> shards_;
  size_t num_shards_;
  size_t shard_mask_;
  unsigned shard_bits_;
  size_t per_shard_capacity_;
  size_t index_mask_;  // index positions per shard, minus one
  const TableEpochRegistry* epochs_;  // not owned; may be nullptr
};

}  // namespace fj
