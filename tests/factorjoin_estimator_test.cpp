#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <thread>

#include "exec/true_card.h"
#include "factorjoin/estimator.h"
#include "query/subplan.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/imdb_job.h"
#include "workload/stats_ceb.h"

namespace fj {
namespace {

// Figure 2 data (see exec_test); true join cardinality is 83.
Database Figure2Database() {
  Database db;
  Table* a = db.AddTable("A");
  Column* aid = a->AddColumn("id", ColumnType::kInt64);
  Column* a1 = a->AddColumn("a1", ColumnType::kInt64);
  auto add_many = [](Column* col, int64_t v, int times) {
    for (int i = 0; i < times; ++i) col->AppendInt(v);
  };
  add_many(aid, 0, 8);
  add_many(aid, 1, 4);
  add_many(aid, 2, 1);
  add_many(aid, 5, 3);
  for (int i = 0; i < 16; ++i) a1->AppendInt(i);
  Table* b = db.AddTable("B");
  Column* baid = b->AddColumn("aid", ColumnType::kInt64);
  Column* b1 = b->AddColumn("b1", ColumnType::kInt64);
  add_many(baid, 0, 6);
  add_many(baid, 1, 5);
  add_many(baid, 4, 2);
  add_many(baid, 5, 5);
  for (int i = 0; i < 18; ++i) b1->AppendInt(i);
  db.AddJoinRelation({"A", "id"}, {"B", "aid"});
  return db;
}

Query Figure2Query() {
  Query q;
  q.AddTable("A").AddTable("B");
  q.AddJoin("A", "id", "B", "aid");
  return q;
}

FactorJoinConfig TrueScanConfig(uint32_t k,
                                BinningStrategy strategy = BinningStrategy::kGbsa) {
  FactorJoinConfig cfg;
  cfg.num_bins = k;
  cfg.binning = strategy;
  cfg.estimator = TableEstimatorKind::kTrueScan;
  return cfg;
}

TEST(FactorJoinTest, Figure5SingleBinBound) {
  // One bin over the whole domain reproduces the paper's 96 >= 83 bound.
  Database db = Figure2Database();
  FactorJoinEstimator fj(db, TrueScanConfig(1));
  double est = fj.Estimate(Figure2Query());
  EXPECT_DOUBLE_EQ(est, 96.0);
}

TEST(FactorJoinTest, PerValueBinsAreExact) {
  // With as many bins as distinct values and exact single-table stats, the
  // bound collapses to the exact cardinality (zero within-bin variance).
  Database db = Figure2Database();
  FactorJoinEstimator fj(db, TrueScanConfig(64));
  double est = fj.Estimate(Figure2Query());
  EXPECT_DOUBLE_EQ(est, 83.0);
}

TEST(FactorJoinTest, MoreBinsTightenTheBound) {
  Database db = Figure2Database();
  Query q = Figure2Query();
  double prev = std::numeric_limits<double>::max();
  for (uint32_t k : {1u, 2u, 4u, 64u}) {
    FactorJoinEstimator fj(db, TrueScanConfig(k));
    double est = fj.Estimate(q);
    EXPECT_LE(est, prev + 1e-9) << "k=" << k;
    EXPECT_GE(est, 83.0 - 1e-9) << "k=" << k;
    prev = est;
  }
}

TEST(FactorJoinTest, FilteredQueryBoundStillValid) {
  Database db = Figure2Database();
  Query q = Figure2Query();
  q.SetFilter("A", Predicate::Cmp("a1", CmpOp::kLt, Literal::Int(8)));
  auto truth = TrueCardinality(db, q);
  ASSERT_TRUE(truth.has_value());
  FactorJoinEstimator fj(db, TrueScanConfig(64));
  EXPECT_GE(fj.Estimate(q), static_cast<double>(*truth) - 1e-9);
}

TEST(FactorJoinTest, SingleTableEstimateIsFilteredRows) {
  Database db = Figure2Database();
  FactorJoinEstimator fj(db, TrueScanConfig(8));
  Query q;
  q.AddTable("A");
  q.SetFilter("A", Predicate::Cmp("a1", CmpOp::kLt, Literal::Int(4)));
  EXPECT_DOUBLE_EQ(fj.Estimate(q), 4.0);
}

// ---------------------------------------------------------------------------
// Random-schema property test: FactorJoin with the exact (TrueScan)
// single-table estimator must upper-bound the true cardinality of chain,
// star, self-join and cyclic queries.
// ---------------------------------------------------------------------------

struct RandomCase {
  Database db;
  std::vector<Query> queries;
};

std::unique_ptr<RandomCase> MakeRandomCase(uint64_t seed) {
  auto out = std::make_unique<RandomCase>();
  Rng rng(seed);
  Database& db = out->db;

  // Dimension table D(id, attr), facts F1(did, a), F2(did, b), F3(id2, did).
  Table* d = db.AddTable("D");
  Column* did = d->AddColumn("id", ColumnType::kInt64);
  Column* dattr = d->AddColumn("attr", ColumnType::kInt64);
  int n_dim = 40;
  for (int i = 0; i < n_dim; ++i) {
    did->AppendInt(i);
    dattr->AppendInt(rng.Range(0, 9));
  }
  ZipfSampler zipf(static_cast<size_t>(n_dim), 1.1);
  for (const char* name : {"F1", "F2", "F3"}) {
    Table* f = db.AddTable(name);
    Column* fk = f->AddColumn("did", ColumnType::kInt64);
    Column* attr = f->AddColumn("a", ColumnType::kInt64);
    int rows = static_cast<int>(rng.Range(60, 150));
    for (int i = 0; i < rows; ++i) {
      fk->AppendInt(static_cast<int64_t>(zipf.Sample(&rng)));
      attr->AppendInt(rng.Range(0, 4));
    }
  }
  db.AddJoinRelation({"D", "id"}, {"F1", "did"});
  db.AddJoinRelation({"D", "id"}, {"F2", "did"});
  db.AddJoinRelation({"D", "id"}, {"F3", "did"});

  // Chain/star query: D join F1 join F2 with filters.
  {
    Query q;
    q.AddTable("D").AddTable("F1").AddTable("F2");
    q.AddJoin("D", "id", "F1", "did");
    q.AddJoin("D", "id", "F2", "did");
    q.SetFilter("F1", Predicate::Cmp("a", CmpOp::kLe, Literal::Int(rng.Range(0, 4))));
    q.SetFilter("D", Predicate::Cmp("attr", CmpOp::kGe, Literal::Int(rng.Range(0, 5))));
    out->queries.push_back(q);
  }
  // Star over the FK group directly: F1.did = F2.did = F3.did.
  {
    Query q;
    q.AddTable("F1").AddTable("F2").AddTable("F3");
    q.AddJoin("F1", "did", "F2", "did");
    q.AddJoin("F2", "did", "F3", "did");
    q.SetFilter("F2", Predicate::Cmp("a", CmpOp::kEq, Literal::Int(rng.Range(0, 4))));
    out->queries.push_back(q);
  }
  // Self join of F1 with itself on the FK.
  {
    Query q;
    q.AddTable("F1", "x").AddTable("F1", "y");
    q.AddJoin("x", "did", "y", "did");
    q.SetFilter("x", Predicate::Cmp("a", CmpOp::kLe, Literal::Int(1)));
    out->queries.push_back(q);
  }
  return out;
}

class FactorJoinBoundProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FactorJoinBoundProperty, TrueScanBoundHoldsOnRandomQueries) {
  auto c = MakeRandomCase(GetParam());
  FactorJoinEstimator fj(c->db, TrueScanConfig(32));
  for (const Query& q : c->queries) {
    auto truth = TrueCardinality(c->db, q);
    ASSERT_TRUE(truth.has_value());
    double est = fj.Estimate(q);
    // Exact single-table stats + offline-exact MFVs: the per-group bound is
    // a true upper bound (filters can only lower the MFV counts).
    EXPECT_GE(est * (1.0 + 1e-9) + 1e-6, static_cast<double>(*truth))
        << q.ToString() << " seed=" << GetParam();
  }
}

TEST_P(FactorJoinBoundProperty, SubplanEstimatesMatchStandalone) {
  // The progressive algorithm must agree with independent estimation for
  // two-table sub-plans (they share the same leaf factors and one join step).
  auto c = MakeRandomCase(GetParam());
  FactorJoinEstimator fj(c->db, TrueScanConfig(16));
  const Query& q = c->queries[0];
  auto masks = EnumerateConnectedSubsets(q, 1);
  auto ests = fj.EstimateSubplans(q, masks);
  for (uint64_t mask : masks) {
    if (std::popcount(mask) != 2) continue;
    double standalone = fj.Estimate(q.InducedSubquery(mask));
    EXPECT_NEAR(ests.at(mask), standalone, 1e-6 + standalone * 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactorJoinBoundProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(FactorJoinTest, CyclicQueryBoundValid) {
  // Two join conditions between the same pair of tables (appendix Case 5).
  Database db;
  Rng rng(31);
  Table* a = db.AddTable("A");
  Column* id1 = a->AddColumn("id", ColumnType::kInt64);
  Column* id2 = a->AddColumn("id2", ColumnType::kInt64);
  Table* b = db.AddTable("B");
  Column* aid1 = b->AddColumn("aid", ColumnType::kInt64);
  Column* aid2 = b->AddColumn("aid2", ColumnType::kInt64);
  for (int i = 0; i < 80; ++i) {
    id1->AppendInt(rng.Range(0, 9));
    id2->AppendInt(rng.Range(0, 5));
    aid1->AppendInt(rng.Range(0, 9));
    aid2->AppendInt(rng.Range(0, 5));
  }
  db.AddJoinRelation({"A", "id"}, {"B", "aid"});
  db.AddJoinRelation({"A", "id2"}, {"B", "aid2"});

  Query q;
  q.AddTable("A").AddTable("B");
  q.AddJoin("A", "id", "B", "aid");
  q.AddJoin("A", "id2", "B", "aid2");

  auto truth = TrueCardinality(db, q);
  ASSERT_TRUE(truth.has_value());
  FactorJoinEstimator fj(db, TrueScanConfig(16));
  EXPECT_GE(fj.Estimate(q) + 1e-6, static_cast<double>(*truth));
}

TEST(FactorJoinTest, IncrementalInsertUpdatesEstimates) {
  Database db = Figure2Database();
  FactorJoinEstimator fj(db, TrueScanConfig(64));
  Query q = Figure2Query();
  double before = fj.Estimate(q);

  // Append 4 more rows with id=a to table A; join grows by 4*6 = 24.
  Table* a = db.MutableTable("A");
  size_t first_new = a->num_rows();
  for (int i = 0; i < 4; ++i) {
    a->MutableCol("id")->AppendInt(0);
    a->MutableCol("a1")->AppendInt(100 + i);
  }
  double update_seconds = fj.ApplyInsert("A", first_new);
  EXPECT_GE(update_seconds, 0.0);

  auto truth = TrueCardinality(db, q);
  ASSERT_TRUE(truth.has_value());
  EXPECT_EQ(*truth, 107u);
  double after = fj.Estimate(q);
  EXPECT_GT(after, before);
  EXPECT_GE(after + 1e-6, 107.0);
}

TEST(FactorJoinTest, ModelSizeAndTrainingTimeReported) {
  Database db = Figure2Database();
  FactorJoinEstimator fj(db, TrueScanConfig(8));
  EXPECT_GT(fj.ModelSizeBytes(), 0u);
  EXPECT_GE(fj.TrainSeconds(), 0.0);
  EXPECT_EQ(fj.num_key_groups(), 1u);
}

TEST(FactorJoinTest, WorkloadAwareBudgetRuns) {
  Database db = Figure2Database();
  std::vector<Query> workload{Figure2Query()};
  FactorJoinConfig cfg = TrueScanConfig(16);
  cfg.workload_aware_budget = true;
  FactorJoinEstimator fj(db, cfg, &workload);
  EXPECT_GE(fj.Estimate(Figure2Query()), 83.0 - 1e-9);
}

// ---------------------------------------------------------------------------
// One evaluation order: Estimate is the progressive bound of the full mask.
// Both benchmark workloads at a small scale, with FactorJoin configured as in
// bench/method_zoo.h (BayesNet for STATS-CEB, sampling for IMDB-JOB).
// ---------------------------------------------------------------------------

const Workload& StatsCeb004() {
  static const std::unique_ptr<Workload> w = [] {
    StatsCebOptions o;
    o.scale = 0.04;
    return MakeStatsCeb(o);
  }();
  return *w;
}

const Workload& ImdbJob004() {
  static const std::unique_ptr<Workload> w = [] {
    ImdbJobOptions o;
    o.scale = 0.04;
    return MakeImdbJob(o);
  }();
  return *w;
}

FactorJoinConfig ZooConfig(TableEstimatorKind kind, const Database& db) {
  FactorJoinConfig cfg;
  cfg.num_bins = 100;
  cfg.binning = BinningStrategy::kGbsa;
  cfg.estimator = kind;
  cfg.sampling_rate = std::clamp(
      50000.0 / (static_cast<double>(db.TotalRows()) + 1.0), 0.01, 0.5);
  return cfg;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void ExpectEstimateIsFullMask(const Workload& w, TableEstimatorKind kind) {
  FactorJoinEstimator fj(w.db, ZooConfig(kind, w.db));
  ASSERT_FALSE(w.queries.empty());
  for (const Query& q : w.queries) {
    auto batch = fj.EstimateSubplans(q, EnumerateConnectedSubsets(q, 1));
    EXPECT_EQ(Bits(fj.Estimate(q)), Bits(batch.at(q.AllAliases())))
        << w.name << ": " << q.ToString();
    for (size_t i = 0; i < q.NumTables(); ++i) {
      uint64_t alias = uint64_t{1} << i;
      EXPECT_EQ(Bits(fj.Estimate(q.InducedSubquery(alias))),
                Bits(batch.at(alias)))
          << w.name << ": alias " << i << " of " << q.ToString();
    }
  }
}

TEST(FactorJoinEstimatorTest, EstimateIsTheFullSubplanMask) {
  ExpectEstimateIsFullMask(StatsCeb004(), TableEstimatorKind::kBayesNet);
  ExpectEstimateIsFullMask(ImdbJob004(), TableEstimatorKind::kSampling);
}

// Concurrent reads of one trained model must equal serial reads bit for bit.
// IMDB-JOB's LIKE and OR filters push BayesNet leaves to the sampling
// fallback, so both models build the sampling estimator's lazy bin-code memo
// on the read path while four threads race on it. The serial values come
// from a separately trained, identical model, so the threads start cold.
TEST(FactorJoinEstimatorTest, ConcurrentReadsMatchSerial) {
  const Workload& w = ImdbJob004();
  const size_t n = std::min<size_t>(w.queries.size(), 24);
  for (TableEstimatorKind kind :
       {TableEstimatorKind::kSampling, TableEstimatorKind::kBayesNet}) {
    FactorJoinConfig cfg = ZooConfig(kind, w.db);
    FactorJoinEstimator shared(w.db, cfg);
    FactorJoinEstimator serial(w.db, cfg);

    constexpr size_t kThreads = 4;
    struct Read {
      double estimate;
      std::unordered_map<uint64_t, double> batch;
    };
    std::vector<std::vector<Read>> got(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t k = 0; k < n; ++k) {
          const Query& q = w.queries[(k + t * 5) % n];
          got[t].push_back({shared.Estimate(q),
                            shared.EstimateSubplans(
                                q, EnumerateConnectedSubsets(q, 1))});
        }
      });
    }
    for (std::thread& th : threads) th.join();

    for (size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(got[t].size(), n);
      for (size_t k = 0; k < n; ++k) {
        const Query& q = w.queries[(k + t * 5) % n];
        const Read& r = got[t][k];
        EXPECT_EQ(Bits(r.estimate), Bits(serial.Estimate(q))) << q.ToString();
        auto want = serial.EstimateSubplans(q, EnumerateConnectedSubsets(q, 1));
        ASSERT_EQ(r.batch.size(), want.size());
        for (const auto& [mask, value] : want) {
          EXPECT_EQ(Bits(r.batch.at(mask)), Bits(value))
              << "mask " << mask << " of " << q.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace fj
