// Micro-benchmark for the paper's headline efficiency claim: FactorJoin can
// estimate ~10,000 sub-plan queries within one second (Section 6.2).
// Measures per-sub-plan estimation latency of FactorJoin's progressive
// algorithm vs estimating every sub-plan independently (the >10x saving of
// Section 5.2), vs the shared-leaf session path (PrepareSubplans, then the
// session's EstimateSubplans), and vs Postgres/PessEst per-estimate costs.
// A second table times sub-plan keying (the serving cache's key per
// sub-plan) on STATS-CEB and IMDB-JOB masks: SubplanKeyer as the service
// uses it, against materialising each sub-query and fingerprinting it.
// A third times the serving cache itself, full at the service's default
// size: a lookup that misses plus the insert that evicts, and a hit.
//
// Self-timed passes over the whole workload (no external benchmark library):
// each case is warmed once, then repeated until kMinSeconds of wall time or
// kMaxPasses passes, whichever comes first. Deterministic workload; numbers
// vary with the machine but ratios are stable.
//
// Environment knobs: FJ_BENCH_SCALE, FJ_BENCH_QUERIES (bench_util.h).
// `--json out.json` writes the headline metrics machine-readably.
//
//   $ ./bench_micro_latency [--json micro.json]
#include <functional>

#include "baselines/pessimistic_estimator.h"
#include "baselines/postgres_estimator.h"
#include "factorjoin/estimator.h"
#include "method_zoo.h"
#include "service/sharded_cache.h"
#include "util/rng.h"

using namespace fj;
using namespace fj::bench;

namespace {

constexpr double kMinSeconds = 0.4;
constexpr int kMaxPasses = 200;

struct CaseResult {
  double ms_per_pass = 0.0;
  double subplans_per_sec = 0.0;
};

/// Times `pass` (one full-workload sweep producing `subplans_per_pass`
/// estimates): one warmup, then repeat to kMinSeconds / kMaxPasses.
CaseResult TimeCase(size_t subplans_per_pass,
                    const std::function<void()>& pass) {
  pass();  // warmup
  WallTimer timer;
  int passes = 0;
  do {
    pass();
    ++passes;
  } while (timer.Seconds() < kMinSeconds && passes < kMaxPasses);
  double seconds = timer.Seconds();
  CaseResult result;
  result.ms_per_pass = seconds / passes * 1e3;
  result.subplans_per_sec =
      static_cast<double>(subplans_per_pass) * passes / seconds;
  return result;
}

struct KeyingResult {
  size_t subplans = 0;
  double keyer_ns = 0.0;         // per sub-plan, SubplanKeyer
  double materialised_ns = 0.0;  // per sub-plan, InducedSubquery + Fingerprint
};

/// Keys every connected sub-plan of `queries` the way the service does (one
/// SubplanKeyer per query, one Key per mask), and by materialising each
/// sub-query and fingerprinting it.
KeyingResult TimeKeying(const std::vector<Query>& queries) {
  std::vector<std::vector<uint64_t>> masks;
  KeyingResult result;
  for (const Query& q : queries) {
    masks.push_back(EnumerateConnectedSubsets(q, 1));
    result.subplans += masks.back().size();
  }
  CaseResult keyer = TimeCase(result.subplans, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      SubplanKeyer k(queries[i]);
      for (uint64_t mask : masks[i]) DoNotOptimizeAway(k.Key(mask).lo);
    }
  });
  CaseResult materialised = TimeCase(result.subplans, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      for (uint64_t mask : masks[i]) {
        DoNotOptimizeAway(queries[i].InducedSubquery(mask).Fingerprint().lo);
      }
    }
  });
  result.keyer_ns = 1e9 / keyer.subplans_per_sec;
  result.materialised_ns = 1e9 / materialised.subplans_per_sec;
  return result;
}

struct CacheOpResult {
  double miss_insert_ns = 0.0;  // per key: a missing lookup + evicting insert
  double hit_ns = 0.0;          // per key: a lookup that hits
};

/// `per_shard` random keys for each shard of a 16-shard cache, so inserting
/// them fills every shard exactly.
std::vector<QueryFingerprint> BalancedKeys(size_t per_shard, Rng* rng) {
  constexpr size_t kShards = 16;
  std::vector<std::vector<QueryFingerprint>> by_shard(kShards);
  size_t filled = 0;
  while (filled < kShards) {
    QueryFingerprint key{rng->Next64(), rng->Next64()};
    auto& shard = by_shard[(key.lo ^ key.hi) & (kShards - 1)];
    if (shard.size() == per_shard) continue;
    shard.push_back(key);
    if (shard.size() == per_shard) ++filled;
  }
  std::vector<QueryFingerprint> keys;
  for (const auto& shard : by_shard) {
    keys.insert(keys.end(), shard.begin(), shard.end());
  }
  rng->Shuffle(&keys);
  return keys;
}

/// Times the service's cache (65,536 entries over 16 shards) kept full.
/// The miss case alternates two disjoint key sets of one cache-full each:
/// every lookup misses and every insert evicts the shard's LRU entry. The
/// hit case then looks up the resident set in shuffled order.
CacheOpResult TimeCacheOps() {
  constexpr size_t kEntries = size_t{1} << 16;
  ShardedEstimateCache cache(kEntries, 16);
  Rng rng(1);
  std::vector<QueryFingerprint> sets[2] = {BalancedKeys(kEntries / 16, &rng),
                                           BalancedKeys(kEntries / 16, &rng)};
  for (const QueryFingerprint& key : sets[0]) cache.Insert(key, 1.0);
  size_t next = 1;
  CaseResult miss = TimeCase(kEntries, [&] {
    for (const QueryFingerprint& key : sets[next]) {
      if (!cache.Lookup(key).has_value()) cache.Insert(key, 1.0);
    }
    next ^= 1;
  });
  const std::vector<QueryFingerprint>& resident = sets[next ^ 1];
  CaseResult hit = TimeCase(kEntries, [&] {
    double sum = 0.0;
    for (const QueryFingerprint& key : resident) {
      sum += cache.Lookup(key).value_or(0.0);
    }
    DoNotOptimizeAway(sum);
  });
  CacheStats stats = cache.Stats();
  if (stats.entries != kEntries || stats.hits == 0 || stats.evictions == 0) {
    std::fprintf(stderr, "micro_latency: cache case did not stay full\n");
  }
  CacheOpResult result;
  result.miss_insert_ns = 1e9 / miss.subplans_per_sec;
  result.hit_ns = 1e9 / hit.subplans_per_sec;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport report = JsonReport::FromArgs(argc, argv, "micro_latency");

  ImdbJobOptions options;
  options.scale = EnvScale();
  options.num_queries = EnvQueries(30);
  auto workload = MakeImdbJob(options);
  auto factorjoin = MakeFactorJoinImdb(workload->db);
  PostgresEstimator postgres(workload->db);
  PessimisticEstimator pessest(workload->db);

  std::vector<std::vector<uint64_t>> masks;
  size_t total_subplans = 0;
  for (const Query& q : workload->queries) {
    masks.push_back(EnumerateConnectedSubsets(q, 1));
    total_subplans += masks.back().size();
  }
  std::printf("%s: %zu queries, %zu sub-plans per pass (scale %.2f)\n\n",
              workload->name.c_str(), workload->queries.size(),
              total_subplans, options.scale);

  const auto& queries = workload->queries;

  // Progressive batches: the optimizer-facing EstimateSubplans hot path
  // (cold — leaf factors rebuilt per batch).
  CaseResult progressive = TimeCase(total_subplans, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto cards = factorjoin->EstimateSubplans(queries[i], masks[i]);
      DoNotOptimizeAway(cards.size());
    }
  });

  // Shared-leaf session: leaves prepared once per query, masks estimated
  // against them — the two halves the traced benchmark run times apart.
  CaseResult session = TimeCase(total_subplans, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto s = factorjoin->PrepareSubplans(queries[i]);
      auto cards = s->EstimateSubplans(masks[i]);
      DoNotOptimizeAway(cards.size());
    }
  });

  // Every sub-plan independently (the >10x saving of Section 5.2).
  CaseResult independent = TimeCase(total_subplans, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      for (uint64_t mask : masks[i]) {
        DoNotOptimizeAway(
            factorjoin->Estimate(queries[i].InducedSubquery(mask)));
      }
    }
  });

  CaseResult pg = TimeCase(total_subplans, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto cards = postgres.EstimateSubplans(queries[i], masks[i]);
      DoNotOptimizeAway(cards.size());
    }
  });

  // PessEst is orders of magnitude slower; only the first few queries.
  size_t pessest_queries = std::min<size_t>(3, queries.size());
  size_t pessest_subplans = 0;
  for (size_t i = 0; i < pessest_queries; ++i) {
    pessest_subplans += masks[i].size();
  }
  CaseResult pe = TimeCase(pessest_subplans, [&] {
    for (size_t i = 0; i < pessest_queries; ++i) {
      auto cards = pessest.EstimateSubplans(queries[i], masks[i]);
      DoNotOptimizeAway(cards.size());
    }
  });

  TablePrinter tp({"Case", "ms/pass", "Sub-plans/s"});
  tp.AddRow({"factorjoin progressive", Fmt(progressive.ms_per_pass, 2),
             Fmt(progressive.subplans_per_sec, 0)});
  tp.AddRow({"factorjoin session (shared leaves)", Fmt(session.ms_per_pass, 2),
             Fmt(session.subplans_per_sec, 0)});
  tp.AddRow({"factorjoin independent", Fmt(independent.ms_per_pass, 2),
             Fmt(independent.subplans_per_sec, 0)});
  tp.AddRow({"postgres", Fmt(pg.ms_per_pass, 2), Fmt(pg.subplans_per_sec, 0)});
  tp.AddRow({"pessest (3 queries)", Fmt(pe.ms_per_pass, 2),
             Fmt(pe.subplans_per_sec, 0)});
  tp.Print();
  std::printf("\nprogressive vs independent speedup: %.1fx\n",
              independent.ms_per_pass / progressive.ms_per_pass);

  KeyingResult stats_keys = TimeKeying(StatsWorkload()->queries);
  KeyingResult imdb_keys = TimeKeying(queries);
  std::printf("\n");
  TablePrinter kp({"Sub-plan key", "Sub-plans", "ns/sub-plan (keyer)",
                   "ns/sub-plan (materialised)"});
  kp.AddRow({"STATS-CEB", std::to_string(stats_keys.subplans),
             Fmt(stats_keys.keyer_ns, 1), Fmt(stats_keys.materialised_ns, 1)});
  kp.AddRow({"IMDB-JOB", std::to_string(imdb_keys.subplans),
             Fmt(imdb_keys.keyer_ns, 1), Fmt(imdb_keys.materialised_ns, 1)});
  kp.Print();

  CacheOpResult cache_ops = TimeCacheOps();
  std::printf("\n");
  TablePrinter cp({"Cache op (65,536 entries, full)", "ns/op"});
  cp.AddRow({"miss + evicting insert", Fmt(cache_ops.miss_insert_ns, 1)});
  cp.AddRow({"hit", Fmt(cache_ops.hit_ns, 1)});
  cp.Print();

  report.Add("progressive_ms_per_pass", progressive.ms_per_pass, "ms");
  report.Add("progressive_subplans_per_sec", progressive.subplans_per_sec,
             "1/s");
  report.Add("session_ms_per_pass", session.ms_per_pass, "ms");
  report.Add("independent_ms_per_pass", independent.ms_per_pass, "ms");
  report.Add("postgres_ms_per_pass", pg.ms_per_pass, "ms");
  report.Add("pessest_ms_per_pass", pe.ms_per_pass, "ms");
  report.Add("key_ns_per_subplan_stats", stats_keys.keyer_ns, "ns");
  report.Add("key_ns_per_subplan_imdb", imdb_keys.keyer_ns, "ns");
  report.Add("key_materialised_ns_per_subplan_stats",
             stats_keys.materialised_ns, "ns");
  report.Add("key_materialised_ns_per_subplan_imdb", imdb_keys.materialised_ns,
             "ns");
  report.Add("cache_miss_insert_ns", cache_ops.miss_insert_ns, "ns");
  report.Add("cache_hit_ns", cache_ops.hit_ns, "ns");
  report.Write();
  return 0;
}
