#include "service/sharded_cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace fj {

ShardedEstimateCache::ShardedEstimateCache(size_t capacity, size_t num_shards,
                                           const TableEpochRegistry* epochs)
    : epochs_(epochs) {
  num_shards_ = std::bit_ceil(num_shards == 0 ? size_t{1} : num_shards);
  shard_mask_ = num_shards_ - 1;
  shard_bits_ = static_cast<unsigned>(std::countr_zero(num_shards_));
  per_shard_capacity_ = (capacity + num_shards_ - 1) / num_shards_;
  if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  if (per_shard_capacity_ > (size_t{1} << 30)) {
    throw std::invalid_argument(
        "ShardedEstimateCache: more than 2^30 entries per shard");
  }
  // At least two index positions per entry keeps the load factor <= 0.5.
  size_t positions = std::bit_ceil(2 * per_shard_capacity_);
  index_mask_ = positions - 1;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].slots.reserve(per_shard_capacity_);
    shards_[i].index = std::make_unique<uint32_t[]>(positions);
  }
}

size_t ShardedEstimateCache::Find(const Shard& shard,
                                  const QueryFingerprint& key) const {
  for (size_t pos = Home(key);; pos = (pos + 1) & index_mask_) {
    uint32_t entry = shard.index[pos];
    if (entry == 0 || shard.slots[entry - 1].key == key) return pos;
  }
}

void ShardedEstimateCache::Unlink(Shard& shard, uint32_t slot) {
  Slot& s = shard.slots[slot];
  (s.prev == kNil ? shard.head : shard.slots[s.prev].next) = s.next;
  (s.next == kNil ? shard.tail : shard.slots[s.next].prev) = s.prev;
}

void ShardedEstimateCache::PushFront(Shard& shard, uint32_t slot) {
  Slot& s = shard.slots[slot];
  s.prev = kNil;
  s.next = shard.head;
  (shard.head == kNil ? shard.tail : shard.slots[shard.head].prev) = slot;
  shard.head = slot;
}

void ShardedEstimateCache::Erase(Shard& shard, size_t pos) const {
  uint32_t slot = shard.index[pos] - 1;
  // Backward-shift deletion: walk the probe run past the hole and pull back
  // every entry whose home is not between the hole and its position, so
  // probes never need tombstones.
  size_t hole = pos;
  for (size_t i = (pos + 1) & index_mask_; shard.index[i] != 0;
       i = (i + 1) & index_mask_) {
    size_t home = Home(shard.slots[shard.index[i] - 1].key);
    if (((i - home) & index_mask_) >= ((i - hole) & index_mask_)) {
      shard.index[hole] = shard.index[i];
      hole = i;
    }
  }
  shard.index[hole] = 0;
  Unlink(shard, slot);
  shard.slots[slot].next = shard.free_list;
  shard.free_list = slot;
  --shard.size;
}

std::optional<double> ShardedEstimateCache::Lookup(const QueryFingerprint& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  size_t pos = Find(shard, key);
  if (shard.index[pos] == 0) {
    ++shard.misses;
    return std::nullopt;
  }
  uint32_t slot = shard.index[pos] - 1;
  const Slot& entry = shard.slots[slot];
  if (epochs_ != nullptr &&
      epochs_->IsStale(entry.table_bits, entry.epoch)) {
    // Lazy invalidation: the entry predates an update to a table it touches.
    Erase(shard, pos);
    ++shard.invalidations;
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  if (shard.head != slot) {
    Unlink(shard, slot);
    PushFront(shard, slot);
  }
  return entry.value;
}

void ShardedEstimateCache::Insert(const QueryFingerprint& key, double value,
                                  uint64_t table_bits, uint64_t epoch) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  size_t pos = Find(shard, key);
  if (shard.index[pos] != 0) {
    uint32_t slot = shard.index[pos] - 1;
    Slot& entry = shard.slots[slot];
    entry.value = value;
    entry.epoch = epoch;
    entry.table_bits = table_bits;
    if (shard.head != slot) {
      Unlink(shard, slot);
      PushFront(shard, slot);
    }
    return;
  }
  if (shard.size >= per_shard_capacity_) {
    ++shard.evictions;
    Erase(shard, Find(shard, shard.slots[shard.tail].key));
    pos = Find(shard, key);  // the backward shift may have moved its hole
  }
  uint32_t slot;
  if (shard.free_list != kNil) {
    slot = shard.free_list;
    shard.free_list = shard.slots[slot].next;
    shard.slots[slot] = Slot{key, value, epoch, table_bits, kNil, kNil};
  } else {
    // Within the reservation: live plus free slots never exceed capacity.
    slot = static_cast<uint32_t>(shard.slots.size());
    shard.slots.push_back(Slot{key, value, epoch, table_bits, kNil, kNil});
  }
  shard.index[pos] = slot + 1;
  PushFront(shard, slot);
  ++shard.size;
}

void ShardedEstimateCache::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.slots.clear();
    std::fill_n(shard.index.get(), index_mask_ + 1, uint32_t{0});
    shard.head = shard.tail = shard.free_list = kNil;
    shard.size = 0;
  }
}

CacheStats ShardedEstimateCache::Stats() const {
  CacheStats stats;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.invalidations += shard.invalidations;
    stats.entries += shard.size;
  }
  return stats;
}

}  // namespace fj
