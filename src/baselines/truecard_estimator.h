// Oracle baseline: returns the true cardinality (computed by executing the
// query, cached). Represents the paper's TrueCard "optimal" row; the bench
// harness charges it zero planning latency.
//
// Updates: the oracle has no trained state — its "statistics" are the live
// table plus the memoized results. ApplyInsert/ApplyDelete therefore only
// drop cached results touching the updated table (the next Estimate
// re-executes against the current data) and bump the statistics epoch.
#pragma once

#include <algorithm>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/true_card.h"
#include "stats/cardinality_estimator.h"
#include "storage/database.h"
#include "util/timer.h"

namespace fj {

class TrueCardEstimator : public CardinalityEstimator {
 public:
  explicit TrueCardEstimator(const Database& db) : db_(&db) {}

  std::string Name() const override { return "truecard"; }

  double Estimate(const Query& query) const override {
    // Keyed by content, not by the rendered SQL: ToString rounds doubles
    // and does not escape quotes, so distinct filters could share a key.
    QueryFingerprint key = query.Fingerprint();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = cache_.find(key);
      if (it != cache_.end()) return it->second.value;
    }
    // Execute outside the lock: concurrent misses on the same query do
    // redundant work but stay correct (both compute the same value).
    auto card = TrueCardinality(*db_, query);
    // On executor overflow fall back to the cap (still a huge number that
    // steers the optimizer away).
    double value = card.has_value()
                       ? static_cast<double>(*card)
                       : static_cast<double>(TrueCardOptions{}.max_output_tuples);
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.emplace(key, Entry{value, query.BaseTables()});
    return value;
  }

  /// The oracle absorbs any update by re-executing on demand.
  bool SupportsUpdates() const override { return true; }

  /// The oracle has no trained state (its memo cache is a performance
  /// artifact, not a model): the snapshot payload is empty, and a loaded
  /// estimator re-executes against the bound database — trivially
  /// bit-identical to the original.
  bool SupportsSnapshot() const override { return true; }
  void Save(ByteWriter& /*w*/) const override {}
  void Load(ByteReader& /*r*/) override {}

  /// Drops memoized results touching `table_name`; subsequent estimates
  /// re-execute against the already-updated table. Same exclusivity contract
  /// as every update method: no estimate may run concurrently — an in-flight
  /// Estimate scans the mutating table (a data race) and could re-memoize a
  /// pre-update truth after the invalidation ran.
  double ApplyInsert(const std::string& table_name,
                     size_t /*first_new_row*/) override {
    return Invalidate(table_name);
  }

  /// Same as ApplyInsert: tail deletions are absorbed by re-execution.
  double ApplyDelete(const std::string& table_name,
                     size_t /*first_deleted_row*/) override {
    return Invalidate(table_name);
  }

 private:
  struct Entry {
    double value = 0.0;
    std::vector<std::string> tables;  // base tables the query touches
  };

  double Invalidate(const std::string& table_name) {
    WallTimer timer;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = cache_.begin(); it != cache_.end();) {
        const auto& tables = it->second.tables;
        if (std::find(tables.begin(), tables.end(), table_name) !=
            tables.end()) {
          it = cache_.erase(it);
        } else {
          ++it;
        }
      }
    }
    BumpStatsVersion();
    return timer.Seconds();
  }

  const Database* db_;  // not owned
  mutable std::mutex mutex_;
  mutable std::unordered_map<QueryFingerprint, Entry, QueryFingerprintHash>
      cache_;
};

}  // namespace fj
