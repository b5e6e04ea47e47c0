// Sharded LRU cache of sub-plan estimates, keyed by Query::Fingerprint.
//
// Sharding (mutex per shard, fingerprint bits pick the shard) keeps the
// cache off the critical path under a worker pool: threads estimating
// different sub-plans touch different shards and never serialize on one
// global lock. Because the fingerprint is canonical, the same sub-plan
// reached from different parent queries hits the same entry.
//
// Versioned entries: each entry carries the statistics epoch it was computed
// under and a bitmap of the base tables its sub-plan touches (see
// TableEpochRegistry). A lookup that finds an entry predating a later update
// to any touched table erases it and reports a miss — lazy, per-entry
// invalidation instead of a global Clear().
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
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
  /// entries never go stale (the pre-invalidation behavior).
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
  size_t num_shards() const { return shards_.size(); }
  size_t capacity() const { return shards_.size() * per_shard_capacity_; }

 private:
  /// One cached estimate with its staleness tag.
  struct CachedEstimate {
    double value = 0.0;
    uint64_t epoch = 0;       // registry epoch when the estimate started
    uint64_t table_bits = 0;  // base tables the sub-plan touches
  };
  using LruList = std::list<std::pair<QueryFingerprint, CachedEstimate>>;

  struct Shard {
    std::mutex mu;
    // Front = most recently used. The map stores list iterators, which stay
    // valid across splice-based LRU refreshes.
    LruList lru;
    std::unordered_map<QueryFingerprint, LruList::iterator,
                       QueryFingerprintHash>
        index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  /// Removes the shard's least-recently-used entry to make room.
  void EvictOne(Shard& shard);

  Shard& ShardFor(const QueryFingerprint& key) {
    // The fingerprint is already well mixed; low bits of lo^hi pick a shard.
    return *shards_[(key.lo ^ key.hi) & shard_mask_];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_;
  size_t per_shard_capacity_;
  const TableEpochRegistry* epochs_;  // not owned; may be nullptr
};

}  // namespace fj
