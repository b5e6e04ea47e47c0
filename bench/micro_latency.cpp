// Micro-benchmark for the paper's headline efficiency claim: FactorJoin can
// estimate ~10,000 sub-plan queries within one second (Section 6.2).
// Measures per-sub-plan estimation latency of FactorJoin's progressive
// algorithm vs estimating every sub-plan independently (the >10x saving of
// Section 5.2), vs the shared-leaf session path (PrepareSubplans, then the
// session's EstimateSubplans), and vs Postgres/PessEst per-estimate costs.
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

  report.Add("progressive_ms_per_pass", progressive.ms_per_pass, "ms");
  report.Add("progressive_subplans_per_sec", progressive.subplans_per_sec,
             "1/s");
  report.Add("session_ms_per_pass", session.ms_per_pass, "ms");
  report.Add("independent_ms_per_pass", independent.ms_per_pass, "ms");
  report.Add("postgres_ms_per_pass", pg.ms_per_pass, "ms");
  report.Add("pessest_ms_per_pass", pe.ms_per_pass, "ms");
  report.Write();
  return 0;
}
