// Query::Fingerprint canonicality — the property the serving layer's cache
// correctness rests on — SubplanKeyer's agreement with it, plus the struct
// hashers guarding it against collision-driven cache mixups.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "query/query.h"
#include "query/subplan.h"
#include "storage/database.h"
#include "util/hash.h"
#include "workload/imdb_job.h"
#include "workload/stats_ceb.h"

namespace fj {
namespace {

PredicatePtr AgeFilter() {
  return Predicate::Cmp("age", CmpOp::kGt, Literal::Int(30));
}

TEST(FingerprintTest, InsensitiveToConstructionOrder) {
  Query q1;
  q1.AddTable("ta", "a").AddTable("tb", "b").AddTable("tc", "c");
  q1.AddJoin("a", "id", "b", "aid");
  q1.AddJoin("b", "id", "c", "bid");
  q1.SetFilter("a", AgeFilter());

  Query q2;
  q2.AddTable("tc", "c").AddTable("ta", "a").AddTable("tb", "b");
  q2.SetFilter("a", AgeFilter());
  q2.AddJoin("b", "id", "c", "bid");
  q2.AddJoin("a", "id", "b", "aid");

  EXPECT_EQ(q1.Fingerprint(), q2.Fingerprint());
}

TEST(FingerprintTest, InsensitiveToJoinOrientation) {
  Query q1;
  q1.AddTable("ta", "a").AddTable("tb", "b");
  q1.AddJoin("a", "id", "b", "aid");

  Query q2;
  q2.AddTable("ta", "a").AddTable("tb", "b");
  q2.AddJoin("b", "aid", "a", "id");

  EXPECT_EQ(q1.Fingerprint(), q2.Fingerprint());
}

TEST(FingerprintTest, TrueFilterDigestsLikeNoFilter) {
  Query q1;
  q1.AddTable("ta", "a").AddTable("tb", "b");
  q1.AddJoin("a", "id", "b", "aid");

  Query q2 = q1;
  q2.SetFilter("a", Predicate::True());

  EXPECT_EQ(q1.Fingerprint(), q2.Fingerprint());
}

TEST(FingerprintTest, DistinguishesContent) {
  Query base;
  base.AddTable("ta", "a").AddTable("tb", "b");
  base.AddJoin("a", "id", "b", "aid");

  Query filtered = base;
  filtered.SetFilter("a", AgeFilter());
  EXPECT_NE(base.Fingerprint(), filtered.Fingerprint());

  Query other_filter = base;
  other_filter.SetFilter("a", Predicate::Cmp("age", CmpOp::kGt, Literal::Int(31)));
  EXPECT_NE(filtered.Fingerprint(), other_filter.Fingerprint());

  Query other_alias = base;
  other_alias.SetFilter("b", AgeFilter());
  EXPECT_NE(filtered.Fingerprint(), other_alias.Fingerprint());

  Query extra_join = base;
  extra_join.AddJoin("a", "id2", "b", "aid2");
  EXPECT_NE(base.Fingerprint(), extra_join.Fingerprint());

  Query other_table;
  other_table.AddTable("tx", "a").AddTable("tb", "b");
  other_table.AddJoin("a", "id", "b", "aid");
  EXPECT_NE(base.Fingerprint(), other_table.Fingerprint());
}

// The cache-sharing property: the same logical sub-plan induced from two
// different parent queries must produce identical fingerprints.
TEST(FingerprintTest, InducedSubqueryRoundTripAcrossParents) {
  Query parent1;
  parent1.AddTable("tu", "u").AddTable("to", "o").AddTable("ti", "i");
  parent1.AddJoin("u", "id", "o", "uid");
  parent1.AddJoin("o", "iid", "i", "id");
  parent1.SetFilter("u", AgeFilter());

  // Different parent: different third table, different alias bit positions
  // and an extra filter, but the {u, o} sub-plan is logically the same.
  Query parent2b;
  parent2b.AddTable("tx", "x").AddTable("tu", "u").AddTable("to", "o");
  parent2b.AddJoin("o", "xid", "x", "id");
  parent2b.AddJoin("u", "id", "o", "uid");
  parent2b.SetFilter("u", AgeFilter());
  parent2b.SetFilter("x", Predicate::Cmp("k", CmpOp::kEq, Literal::Int(7)));

  uint64_t mask1 = 0b011;  // u, o in parent1's bit order
  uint64_t mask2 = 0b110;  // u, o in parent2b's bit order
  EXPECT_EQ(parent1.InducedSubquery(mask1).Fingerprint(),
            parent2b.InducedSubquery(mask2).Fingerprint());
}

TEST(FingerprintTest, SelfJoinAliasesAreDistinguished) {
  Query q;
  q.AddTable("person", "p1").AddTable("person", "p2");
  q.AddJoin("p1", "id", "p2", "parent_id");
  q.SetFilter("p1", AgeFilter());

  Query swapped;
  swapped.AddTable("person", "p1").AddTable("person", "p2");
  swapped.AddJoin("p1", "id", "p2", "parent_id");
  swapped.SetFilter("p2", AgeFilter());

  EXPECT_NE(q.Fingerprint(), swapped.Fingerprint());

  // Round-trip: the singleton sub-plans differ from each other (one carries
  // the filter), and induction matches direct construction.
  EXPECT_NE(q.InducedSubquery(0b01).Fingerprint(),
            q.InducedSubquery(0b10).Fingerprint());
  Query direct;
  direct.AddTable("person", "p1");
  direct.SetFilter("p1", AgeFilter());
  EXPECT_EQ(q.InducedSubquery(0b01).Fingerprint(), direct.Fingerprint());
}

TEST(FingerprintTest, CyclicTemplateSubplansRoundTrip) {
  auto triangle = [] {
    Query q;
    q.AddTable("ta", "a").AddTable("tb", "b").AddTable("tc", "c");
    q.AddJoin("a", "id", "b", "aid");
    q.AddJoin("b", "id", "c", "bid");
    q.AddJoin("a", "id2", "c", "aid2");
    return q;
  };
  Query q1 = triangle();
  Query q2 = triangle();
  ASSERT_TRUE(q1.IsCyclic());

  auto masks = EnumerateConnectedSubsets(q1, 1);
  ASSERT_EQ(masks.size(), 7u);  // 3 singles + 3 pairs + triangle
  std::unordered_set<QueryFingerprint, QueryFingerprintHash> seen;
  for (uint64_t mask : masks) {
    QueryFingerprint fp1 = q1.InducedSubquery(mask).Fingerprint();
    QueryFingerprint fp2 = q2.InducedSubquery(mask).Fingerprint();
    EXPECT_EQ(fp1, fp2);
    EXPECT_TRUE(seen.insert(fp1).second) << "fingerprint collision between "
                                            "distinct sub-plans";
  }
}

TEST(FingerprintTest, ManyDistinctSubplansNoCollision) {
  // Chain of 10 tables with per-alias filters: all 55 connected sub-plans
  // plus filter variants must fingerprint distinctly, and the keyer must
  // agree with the materialised sub-query on every one.
  Query q;
  for (int i = 0; i < 10; ++i) {
    q.AddTable("t" + std::to_string(i), "a" + std::to_string(i));
  }
  for (int i = 0; i + 1 < 10; ++i) {
    q.AddJoin("a" + std::to_string(i), "id", "a" + std::to_string(i + 1),
              "pid");
  }
  std::unordered_set<QueryFingerprint, QueryFingerprintHash> seen;
  size_t total = 0;
  for (int variant = 0; variant < 4; ++variant) {
    Query v = q;
    if (variant > 0) {
      v.SetFilter("a0", Predicate::Cmp("x", CmpOp::kGt, Literal::Int(variant)));
    }
    SubplanKeyer keyer(v);
    for (uint64_t mask : EnumerateConnectedSubsets(v, 1)) {
      QueryFingerprint fp = v.InducedSubquery(mask).Fingerprint();
      EXPECT_EQ(keyer.Key(mask), fp);
      seen.insert(fp);
      ++total;
    }
  }
  // Sub-plans without a0 are shared between variants; everything else is
  // distinct. 4 variants x 55 sub-plans, 3 x 45 of them duplicates.
  EXPECT_EQ(seen.size(), total - 3 * 45);
}

// Filter pairs the old string-rendered fingerprint keyed alike although
// they select different rows: doubles printed with six decimals, and a
// string literal whose unescaped quotes mimic a second IN-list element.
std::vector<std::pair<PredicatePtr, PredicatePtr>> RenderCollisionPairs() {
  return {
      {Predicate::Cmp("x", CmpOp::kGt, Literal::Double(0.1000001)),
       Predicate::Cmp("x", CmpOp::kGt, Literal::Double(0.1000004))},
      {Predicate::In("s", {Literal::Str("a"), Literal::Str("b")}),
       Predicate::In("s", {Literal::Str("a', 'b")})},
  };
}

TEST(FingerprintTest, FiltersThatRenderAlikeDigestApart) {
  // `flipped` writes the join in the other orientation; `true_on_b` sets an
  // explicit TRUE filter on b. Neither may change the key, while the two
  // filters of a pair always must.
  auto query = [](const PredicatePtr& filter, bool flipped, bool true_on_b) {
    Query q;
    q.AddTable("ta", "a").AddTable("tb", "b");
    if (flipped) {
      q.AddJoin("b", "aid", "a", "id");
    } else {
      q.AddJoin("a", "id", "b", "aid");
    }
    q.SetFilter("a", filter);
    if (true_on_b) q.SetFilter("b", Predicate::True());
    return q;
  };
  for (const auto& [p1, p2] : RenderCollisionPairs()) {
    ASSERT_EQ(p1->ToString(), p2->ToString());
    QueryFingerprint base1 = query(p1, false, false).Fingerprint();
    QueryFingerprint base2 = query(p2, false, false).Fingerprint();
    EXPECT_NE(base1, base2) << p1->ToString();
    for (bool flipped : {false, true}) {
      for (bool true_on_b : {false, true}) {
        EXPECT_EQ(query(p1, flipped, true_on_b).Fingerprint(), base1);
        EXPECT_EQ(query(p2, flipped, true_on_b).Fingerprint(), base2);
        // The single-alias sub-plan carrying the filter differs too.
        EXPECT_NE(SubplanKeyer(query(p1, flipped, true_on_b)).Key(0b01),
                  SubplanKeyer(query(p2, flipped, true_on_b)).Key(0b01));
      }
    }
  }
}

TEST(FingerprintTest, KeyerMatchesInducedSubqueryOnEdgeShapes) {
  Query q;
  q.AddTable("ta", "a").AddTable("tb", "b").AddTable("ta", "c");
  q.AddJoin("a", "id", "b", "aid");
  q.AddJoin("a", "id", "b", "aid");  // exact duplicate: counted twice
  q.AddJoin("b", "x", "b", "y");     // condition within one alias
  q.AddJoin("c", "id", "b", "cid");
  q.SetFilter("c", AgeFilter());
  SubplanKeyer keyer(q);
  for (uint64_t mask = 0; mask < 8; ++mask) {
    EXPECT_EQ(keyer.Key(mask), q.InducedSubquery(mask).Fingerprint()) << mask;
    // Bits past NumTables() select nothing, as in InducedSubquery.
    EXPECT_EQ(keyer.Key(mask | 0xf0), keyer.Key(mask)) << mask;
  }
  Query once;
  once.AddTable("ta", "a").AddTable("tb", "b");
  once.AddJoin("a", "id", "b", "aid");
  EXPECT_NE(keyer.Key(0b011), SubplanKeyer(once).Key(0b011));
  EXPECT_EQ(keyer.Key(0b011), q.InducedSubquery(0b011).Fingerprint());
}

// Test-side canonical form of a sub-plan, independent of the digest under
// test: one string per component, every field length-prefixed, doubles as
// hex floats, components sorted.
std::string Field(const std::string& s) {
  return std::to_string(s.size()) + ":" + s;
}

std::string Canonical(const Literal& l) {
  switch (l.type) {
    case ColumnType::kInt64:
      return std::string("i") + std::to_string(l.i) + ";";
    case ColumnType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "d%a;", l.d);
      return buf;
    }
    case ColumnType::kString:
      return std::string("s") + Field(l.s);
  }
  return "?";
}

std::string Canonical(const Predicate& p) {
  std::string out = "k";
  out += std::to_string(static_cast<int>(p.kind())) + "(";
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      break;
    case Predicate::Kind::kCompare:
      out += Field(p.column()) + "o" +
             std::to_string(static_cast<int>(p.op())) + Canonical(p.value());
      break;
    case Predicate::Kind::kBetween:
      out += Field(p.column()) + Canonical(p.lo()) + Canonical(p.hi());
      break;
    case Predicate::Kind::kIn:
      out += Field(p.column()) + "n" + std::to_string(p.set().size());
      for (const Literal& v : p.set()) out += Canonical(v);
      break;
    case Predicate::Kind::kLike:
    case Predicate::Kind::kNotLike:
      out += Field(p.column()) + Field(p.pattern());
      break;
    case Predicate::Kind::kIsNull:
    case Predicate::Kind::kIsNotNull:
      out += Field(p.column());
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
    case Predicate::Kind::kNot:
      for (const PredicatePtr& c : p.children()) out += Canonical(*c);
      break;
  }
  return out + ")";
}

std::vector<std::string> CanonicalComponents(const Query& q) {
  std::vector<std::string> parts;
  for (const TableRef& t : q.tables()) {
    std::string part = "T";
    part += Field(t.alias) + Field(t.table) + Canonical(*q.FilterFor(t.alias));
    parts.push_back(std::move(part));
  }
  for (const JoinCondition& j : q.joins()) {
    std::string l = Field(j.left.alias) + Field(j.left.column);
    std::string r = Field(j.right.alias) + Field(j.right.column);
    if (r < l) std::swap(l, r);
    parts.push_back("J" + l + r);
  }
  std::sort(parts.begin(), parts.end());
  return parts;
}

/// Keys every connected sub-plan of every query both ways and checks that
/// keys agree, and that two sub-plans share a key exactly when their
/// canonical component sets are equal. Returns the number of sub-plans.
size_t CheckKeysAgainstCanonicalForm(const std::vector<Query>& queries) {
  std::unordered_map<QueryFingerprint, std::vector<std::string>,
                     QueryFingerprintHash>
      by_key;
  size_t subplans = 0;
  for (const Query& q : queries) {
    SubplanKeyer keyer(q);
    for (uint64_t mask : EnumerateConnectedSubsets(q, 1)) {
      Query sub = q.InducedSubquery(mask);
      QueryFingerprint key = keyer.Key(mask);
      EXPECT_EQ(key, sub.Fingerprint()) << q.ToString() << " mask " << mask;
      std::vector<std::string> canonical = CanonicalComponents(sub);
      auto [it, inserted] = by_key.emplace(key, canonical);
      if (!inserted) {
        EXPECT_EQ(it->second, canonical)
            << "key collision between distinct sub-plans";
      }
      ++subplans;
    }
  }
  // Conversely, equal component sets never land under two keys.
  std::set<std::vector<std::string>> distinct;
  for (const auto& [key, canonical] : by_key) distinct.insert(canonical);
  EXPECT_EQ(distinct.size(), by_key.size());
  // Templates repeat, so some sub-plans recur across queries; without that
  // the cross-parent half of the property would go unchecked.
  EXPECT_LT(by_key.size(), subplans);
  return subplans;
}

TEST(FingerprintTest, KeyerAgreesOnStatsCebSubplans) {
  StatsCebOptions options;
  options.scale = 0.04;
  auto workload = MakeStatsCeb(options);
  ASSERT_EQ(workload->queries.size(), 146u);
  EXPECT_GT(CheckKeysAgainstCanonicalForm(workload->queries), 146u);
}

TEST(FingerprintTest, KeyerAgreesOnImdbJobSubplans) {
  ImdbJobOptions options;
  options.scale = 0.04;
  auto workload = MakeImdbJob(options);
  ASSERT_EQ(workload->queries.size(), 113u);
  EXPECT_GT(CheckKeysAgainstCanonicalForm(workload->queries), 113u);
}

TEST(HashTest, AliasColumnHashIsOrderSensitive) {
  AliasColumnHash h;
  EXPECT_NE(h({"a", "b"}), h({"b", "a"}));
  EXPECT_NE(h({"mc", "movie_id"}), h({"movie_id", "mc"}));
  // Boundary shifts between the two strings must not collide.
  EXPECT_NE(h({"ab", "c"}), h({"a", "bc"}));
}

TEST(HashTest, ColumnRefHashIsOrderSensitive) {
  ColumnRefHash h;
  EXPECT_NE(h({"t", "u"}), h({"u", "t"}));
  EXPECT_NE(h({"posts", "Id"}), h({"Id", "posts"}));
  EXPECT_NE(h({"ab", "c"}), h({"a", "bc"}));
}

TEST(HashTest, NoCollisionsAcrossSchemaLikeNames) {
  // Sweep a realistic namespace of alias/column pairs; any collision here would
  // surface as a wrong bucket merge in KeyGroups or the fingerprint cache.
  std::vector<std::string> names;
  for (char c = 'a'; c <= 'z'; ++c) {
    names.push_back(std::string(1, c));
    names.push_back(std::string(1, c) + "_id");
    names.push_back("t" + std::string(1, c));
  }
  AliasColumnHash ach;
  ColumnRefHash crh;
  std::unordered_set<size_t> alias_hashes;
  std::unordered_set<size_t> ref_hashes;
  size_t pairs = 0;
  for (const auto& x : names) {
    for (const auto& y : names) {
      alias_hashes.insert(ach({x, y}));
      ref_hashes.insert(crh({x, y}));
      ++pairs;
    }
  }
  EXPECT_EQ(alias_hashes.size(), pairs);
  EXPECT_EQ(ref_hashes.size(), pairs);
}

}  // namespace
}  // namespace fj
