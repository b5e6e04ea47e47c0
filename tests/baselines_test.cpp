#include <gtest/gtest.h>

#include <cmath>

#include "baselines/fanout_denorm.h"
#include "baselines/joinhist_estimator.h"
#include "baselines/mscn_estimator.h"
#include "baselines/nn.h"
#include "baselines/pessimistic_estimator.h"
#include "baselines/postgres_estimator.h"
#include "baselines/truecard_estimator.h"
#include "baselines/ublock_estimator.h"
#include "baselines/wander_join.h"
#include "exec/true_card.h"
#include "util/math_stats.h"
#include "util/zipf.h"

namespace fj {
namespace {

// Shared fixture: D(dim) - F(fact, skewed FK) - S(selective dim) schema with
// attribute correlation inside F.
struct Fixture {
  Database db;
  Query two_way;    // D join F
  Query three_way;  // D join F join S
};

std::unique_ptr<Fixture> MakeFixture(uint64_t seed = 55) {
  auto f = std::make_unique<Fixture>();
  Rng rng(seed);
  Database& db = f->db;

  Table* d = db.AddTable("D");
  Column* d_id = d->AddColumn("id", ColumnType::kInt64);
  Column* d_a = d->AddColumn("a", ColumnType::kInt64);
  for (int i = 0; i < 300; ++i) {
    d_id->AppendInt(i);
    d_a->AppendInt(rng.Range(0, 9));
  }
  Table* fact = db.AddTable("F");
  Column* f_did = fact->AddColumn("did", ColumnType::kInt64);
  Column* f_sid = fact->AddColumn("sid", ColumnType::kInt64);
  Column* f_x = fact->AddColumn("x", ColumnType::kInt64);
  ZipfSampler zipf(300, 1.2);
  for (int i = 0; i < 8000; ++i) {
    int64_t did = static_cast<int64_t>(zipf.Sample(&rng));
    f_did->AppendInt(did);
    f_sid->AppendInt(did % 40);  // correlated with did
    f_x->AppendInt(did % 7);
  }
  Table* s = db.AddTable("S");
  Column* s_id = s->AddColumn("id", ColumnType::kInt64);
  Column* s_b = s->AddColumn("b", ColumnType::kInt64);
  for (int i = 0; i < 40; ++i) {
    s_id->AppendInt(i);
    s_b->AppendInt(i % 4);
  }
  db.AddJoinRelation({"D", "id"}, {"F", "did"});
  db.AddJoinRelation({"S", "id"}, {"F", "sid"});

  f->two_way.AddTable("D").AddTable("F");
  f->two_way.AddJoin("D", "id", "F", "did");
  f->two_way.SetFilter("D", Predicate::Cmp("a", CmpOp::kLe, Literal::Int(4)));

  f->three_way.AddTable("D").AddTable("F").AddTable("S");
  f->three_way.AddJoin("D", "id", "F", "did");
  f->three_way.AddJoin("S", "id", "F", "sid");
  f->three_way.SetFilter("S", Predicate::Cmp("b", CmpOp::kEq, Literal::Int(1)));
  return f;
}

TEST(PostgresEstimatorTest, ReasonableTwoWayEstimate) {
  auto f = MakeFixture();
  PostgresEstimator est(f->db);
  auto truth = TrueCardinality(f->db, f->two_way);
  ASSERT_TRUE(truth.has_value());
  double estimate = est.Estimate(f->two_way);
  // Selinger with uniform keys on skewed data: order of magnitude only.
  EXPECT_LT(QError(estimate, static_cast<double>(*truth)), 50.0);
}

TEST(PostgresEstimatorTest, SingleTableUsesHistogram) {
  auto f = MakeFixture();
  PostgresEstimator est(f->db);
  Query q;
  q.AddTable("D");
  q.SetFilter("D", Predicate::Cmp("a", CmpOp::kLe, Literal::Int(4)));
  auto truth = TrueCardinality(f->db, q);
  EXPECT_LT(QError(est.Estimate(q), static_cast<double>(*truth)), 1.5);
}

TEST(JoinHistTest, BeatsSelingerOnSkewedKeys) {
  auto f = MakeFixture();
  PostgresEstimator selinger(f->db);
  JoinHistOptions jh_opts;
  jh_opts.num_bins = 64;
  JoinHistEstimator joinhist(f->db, jh_opts);
  auto truth = TrueCardinality(f->db, f->two_way);
  ASSERT_TRUE(truth.has_value());
  double q_selinger = QError(selinger.Estimate(f->two_way),
                             static_cast<double>(*truth));
  double q_joinhist = QError(joinhist.Estimate(f->two_way),
                             static_cast<double>(*truth));
  EXPECT_LE(q_joinhist, q_selinger * 1.05);
}

TEST(JoinHistTest, VariantNamesAndOrdering) {
  auto f = MakeFixture();
  JoinHistOptions base;
  base.num_bins = 64;
  JoinHistOptions with_bound = base;
  with_bound.use_mfv_bound = true;
  JoinHistOptions with_cond = base;
  with_cond.use_conditional = true;
  with_cond.conditional_estimator = TableEstimatorKind::kTrueScan;
  JoinHistEstimator jh(f->db, base);
  JoinHistEstimator jb(f->db, with_bound);
  JoinHistEstimator jc(f->db, with_cond);
  EXPECT_EQ(jh.Name(), "joinhist");
  EXPECT_EQ(jb.Name(), "joinhist+bound");
  EXPECT_EQ(jc.Name(), "joinhist+conditional");
  auto truth = TrueCardinality(f->db, f->three_way);
  ASSERT_TRUE(truth.has_value());
  for (auto* est : std::initializer_list<CardinalityEstimator*>{&jh, &jb, &jc}) {
    double e = est->Estimate(f->three_way);
    EXPECT_GT(e, 0.0) << est->Name();
    EXPECT_TRUE(std::isfinite(e)) << est->Name();
  }
  // The MFV-bound variant must upper-bound the truth (exact stats, no
  // conditional estimation error on the unfiltered fact table).
  EXPECT_GE(jb.Estimate(f->two_way) * 1.001,
            static_cast<double>(*TrueCardinality(f->db, f->two_way)));
}

TEST(WanderJoinTest, ConvergesToTruth) {
  auto f = MakeFixture();
  WanderJoinOptions options;
  options.walks = 5000;
  WanderJoinEstimator est(f->db, options);
  auto truth = TrueCardinality(f->db, f->two_way);
  ASSERT_TRUE(truth.has_value());
  double estimate = est.Estimate(f->two_way);
  EXPECT_NEAR(estimate, static_cast<double>(*truth),
              static_cast<double>(*truth) * 0.25);
}

TEST(WanderJoinTest, ThreeWayWithFiltersPositive) {
  auto f = MakeFixture();
  WanderJoinOptions options;
  options.walks = 8000;
  WanderJoinEstimator est(f->db, options);
  auto truth = TrueCardinality(f->db, f->three_way);
  ASSERT_TRUE(truth.has_value());
  double estimate = est.Estimate(f->three_way);
  EXPECT_LT(QError(estimate, static_cast<double>(*truth)), 4.0);
}

TEST(PessimisticTest, NeverUnderestimates) {
  auto f = MakeFixture();
  PessimisticEstimator est(f->db);
  for (const Query* q : {&f->two_way, &f->three_way}) {
    auto truth = TrueCardinality(f->db, *q);
    ASSERT_TRUE(truth.has_value());
    EXPECT_GE(est.Estimate(*q) * 1.0001 + 1e-6,
              static_cast<double>(*truth))
        << q->ToString();
  }
}

TEST(PessimisticTest, TighterThanOnePartition) {
  auto f = MakeFixture();
  PessimisticOptions fine, coarse;
  fine.partitions = 256;
  coarse.partitions = 1;
  PessimisticEstimator est_fine(f->db, fine);
  PessimisticEstimator est_coarse(f->db, coarse);
  EXPECT_LE(est_fine.Estimate(f->two_way),
            est_coarse.Estimate(f->two_way) * 1.0001);
}

TEST(UBlockTest, UpperBoundsOnUnfilteredJoin) {
  auto f = MakeFixture();
  UBlockEstimator est(f->db);
  Query q;
  q.AddTable("D").AddTable("F");
  q.AddJoin("D", "id", "F", "did");
  auto truth = TrueCardinality(f->db, q);
  ASSERT_TRUE(truth.has_value());
  EXPECT_GE(est.Estimate(q) * 1.0001, static_cast<double>(*truth));
}

TEST(UBlockTest, FiniteOnThreeWay) {
  auto f = MakeFixture();
  UBlockEstimator est(f->db);
  double e = est.Estimate(f->three_way);
  EXPECT_GT(e, 0.0);
  EXPECT_TRUE(std::isfinite(e));
}

TEST(TrueCardEstimatorTest, MatchesExecutorAndCaches) {
  auto f = MakeFixture();
  TrueCardEstimator est(f->db);
  auto truth = TrueCardinality(f->db, f->two_way);
  EXPECT_DOUBLE_EQ(est.Estimate(f->two_way), static_cast<double>(*truth));
  EXPECT_DOUBLE_EQ(est.Estimate(f->two_way), static_cast<double>(*truth));
}

// Bounds that print alike (std::to_string keeps six decimals) but select
// different rows must not share a memo entry, or the oracle answers the
// second query with the first one's truth.
TEST(TrueCardEstimatorTest, MemoDistinguishesCloseDoubleBounds) {
  Database db;
  Column* x = db.AddTable("m")->AddColumn("x", ColumnType::kDouble);
  for (double v : {0.1, 0.1000002, 0.1000003, 0.1000005, 0.2}) {
    x->AppendDouble(v);
  }
  auto above = [](double bound) {
    Query q;
    q.AddTable("m");
    q.SetFilter("m", Predicate::Cmp("x", CmpOp::kGt, Literal::Double(bound)));
    return q;
  };
  Query low = above(0.1000001);
  Query high = above(0.1000004);
  ASSERT_EQ(*TrueCardinality(db, low), 4u);
  ASSERT_EQ(*TrueCardinality(db, high), 2u);
  TrueCardEstimator est(db);
  EXPECT_DOUBLE_EQ(est.Estimate(low), 4.0);
  EXPECT_DOUBLE_EQ(est.Estimate(high), 2.0);
}

TEST(MlpTest, LearnsLinearFunction) {
  Mlp mlp({2, 16, 1}, 3);
  Rng rng(4);
  std::vector<std::vector<double>> xs, ys;
  for (int i = 0; i < 256; ++i) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    xs.push_back({a, b});
    ys.push_back({0.3 * a + 0.6 * b});
  }
  double first = mlp.TrainBatch(xs, ys, 1e-2);
  double last = first;
  for (int epoch = 0; epoch < 300; ++epoch) last = mlp.TrainBatch(xs, ys, 1e-2);
  EXPECT_LT(last, first * 0.05);
  EXPECT_NEAR(mlp.Forward({0.5, 0.5})[0], 0.45, 0.08);
}

TEST(MlpTest, ParameterCount) {
  Mlp mlp({4, 8, 2});
  EXPECT_EQ(mlp.ParameterCount(), 4u * 8 + 8 + 8 * 2 + 2);
}

TEST(MscnTest, LearnsTrainingWorkload) {
  auto f = MakeFixture();
  // Training set: the two queries plus variants, with true cards.
  std::vector<TrainingExample> examples;
  for (int64_t v = 0; v <= 9; ++v) {
    Query q = f->two_way;
    q.SetFilter("D", Predicate::Cmp("a", CmpOp::kLe, Literal::Int(v)));
    auto truth = TrueCardinality(f->db, q);
    ASSERT_TRUE(truth.has_value());
    examples.push_back({q, static_cast<double>(*truth)});
  }
  MscnOptions options;
  options.epochs = 200;
  MscnEstimator est(f->db, examples, options);
  // In-distribution estimate within a modest q-error.
  Query probe = f->two_way;
  probe.SetFilter("D", Predicate::Cmp("a", CmpOp::kLe, Literal::Int(5)));
  auto truth = TrueCardinality(f->db, probe);
  EXPECT_LT(QError(est.Estimate(probe), static_cast<double>(*truth)), 5.0);
  EXPECT_GT(est.ModelSizeBytes(), 0u);
}

TEST(FanoutDenormTest, AccurateOnTrainedTemplates) {
  auto f = MakeFixture();
  std::vector<Query> workload{f->two_way, f->three_way};
  FanoutDenormOptions options;
  options.sample_tuples = 5000;
  FanoutDenormEstimator est(f->db, workload, "flat", options);
  EXPECT_GE(est.num_templates(), 2u);
  for (const Query* q : {&f->two_way, &f->three_way}) {
    auto truth = TrueCardinality(f->db, *q);
    ASSERT_TRUE(truth.has_value());
    EXPECT_LT(QError(est.Estimate(*q), static_cast<double>(*truth)), 2.0)
        << q->ToString();
  }
  EXPECT_GT(est.ModelSizeBytes(), 1000u);
  EXPECT_GT(est.TrainSeconds(), 0.0);
}

TEST(FanoutDenormTest, FallsBackOnUnknownTemplate) {
  auto f = MakeFixture();
  std::vector<Query> workload{f->two_way};  // three_way not trained
  FanoutDenormEstimator est(f->db, workload, "flat");
  double e = est.Estimate(f->three_way);
  EXPECT_GT(e, 0.0);
  EXPECT_TRUE(std::isfinite(e));
}

TEST(FanoutDenormTest, TemplateKeyCanonical) {
  Query a;
  a.AddTable("t1", "x").AddTable("t2", "y");
  a.AddJoin("x", "c1", "y", "c2");
  Query b;
  b.AddTable("t2", "y").AddTable("t1", "x");
  b.AddJoin("y", "c2", "x", "c1");
  EXPECT_EQ(FanoutDenormEstimator::TemplateKey(a),
            FanoutDenormEstimator::TemplateKey(b));
}

}  // namespace
}  // namespace fj
