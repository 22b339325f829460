#include "src/data/relation_ops.h"

#include <gtest/gtest.h>

#include "src/data/relation.h"
#include "src/rings/lifting.h"
#include "src/rings/ring.h"

namespace fivm {
namespace {

/// ⊎: returns left ⊎ right (schemas must match as sets; output uses left's
/// order).
Relation<I64Ring> Union(const Relation<I64Ring>& left,
                        const Relation<I64Ring>& right) {
  EXPECT_TRUE(left.schema().SameSet(right.schema()));
  Relation<I64Ring> out(left.schema());
  left.ForEach([&](const Tuple& k, const int64_t& p) { out.Add(k, p); });
  auto positions = right.schema().PositionsOf(left.schema());
  right.ForEach([&](const Tuple& k, const int64_t& p) {
    out.Add(k.Project(positions), p);
  });
  return out;
}

// Schema vars: A=0, B=1, C=2.
constexpr VarId kA = 0, kB = 1, kC = 2;

Relation<I64Ring> MakeR() {
  // R[A,B] from Example 2.1 (payloads 1,2).
  Relation<I64Ring> r(Schema{kA, kB});
  r.Add(Tuple::Ints({1, 1}), 1);  // (a1,b1) -> r1=1
  r.Add(Tuple::Ints({2, 1}), 2);  // (a2,b1) -> r2=2
  return r;
}

Relation<I64Ring> MakeS() {
  Relation<I64Ring> s(Schema{kA, kB});
  s.Add(Tuple::Ints({2, 1}), 3);  // (a2,b1) -> s1=3
  s.Add(Tuple::Ints({3, 2}), 4);  // (a3,b2) -> s2=4
  return s;
}

Relation<I64Ring> MakeT() {
  Relation<I64Ring> t(Schema{kB, kC});
  t.Add(Tuple::Ints({1, 1}), 5);  // (b1,c1) -> t1=5
  t.Add(Tuple::Ints({2, 2}), 6);  // (b2,c2) -> t2=6
  return t;
}

// Example 2.1: union, join, aggregation over an abstract ring (here Z with
// distinguishable payload values).
TEST(RelationOpsTest, UnionMatchesExample21) {
  auto u = Union(MakeR(), MakeS());
  EXPECT_EQ(u.size(), 3u);
  EXPECT_EQ(*u.Find(Tuple::Ints({1, 1})), 1);
  EXPECT_EQ(*u.Find(Tuple::Ints({2, 1})), 2 + 3);
  EXPECT_EQ(*u.Find(Tuple::Ints({3, 2})), 4);
}

TEST(RelationOpsTest, UnionHandlesReorderedSchemas) {
  Relation<I64Ring> x(Schema{kA, kB});
  x.Add(Tuple::Ints({1, 2}), 1);
  Relation<I64Ring> y(Schema{kB, kA});
  y.Add(Tuple::Ints({2, 1}), 10);  // same logical tuple A=1,B=2
  auto u = Union(x, y);
  EXPECT_EQ(u.size(), 1u);
  EXPECT_EQ(*u.Find(Tuple::Ints({1, 2})), 11);
}

TEST(RelationOpsTest, JoinMatchesExample21) {
  auto u = Union(MakeR(), MakeS());
  auto j = Join(u, MakeT());
  // ((R ⊎ S) ⊗ T)[A,B,C]
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(*j.Find(Tuple::Ints({1, 1, 1})), 1 * 5);
  EXPECT_EQ(*j.Find(Tuple::Ints({2, 1, 1})), (2 + 3) * 5);
  EXPECT_EQ(*j.Find(Tuple::Ints({3, 2, 2})), 4 * 6);
}

TEST(RelationOpsTest, MarginalizeWithTrivialLifting) {
  auto u = Union(MakeR(), MakeS());
  auto j = Join(u, MakeT());
  LiftingMap<I64Ring> lifts;
  auto agg = Marginalize(j, Schema{kA}, lifts);
  // (⊕_A (R ⊎ S) ⊗ T)[B,C] with g_A = 1.
  EXPECT_EQ(agg.size(), 2u);
  EXPECT_EQ(*agg.Find(Tuple::Ints({1, 1})), 1 * 5 + 5 * 5);
  EXPECT_EQ(*agg.Find(Tuple::Ints({2, 2})), 24);
}

TEST(RelationOpsTest, MarginalizeWithNumericLifting) {
  // ⊕_A with g_A(x) = x multiplies each payload by its A-value.
  auto r = MakeR();
  LiftingMap<I64Ring> lifts;
  lifts.Set(kA, [](const Value& x) { return x.AsInt(); });
  auto agg = Marginalize(r, Schema{kA}, lifts);
  // (a1=1,b1)->1*1 ; (a2=2,b1)->2*2 ; grouped by B.
  EXPECT_EQ(agg.size(), 1u);
  EXPECT_EQ(*agg.Find(Tuple::Ints({1})), 1 * 1 + 2 * 2);
}

TEST(RelationOpsTest, MarginalizeAllVariables) {
  auto r = MakeR();
  LiftingMap<I64Ring> lifts;
  auto agg = Marginalize(r, Schema{kA, kB}, lifts);
  EXPECT_EQ(agg.schema().size(), 0u);
  EXPECT_EQ(*agg.Find(Tuple()), 3);  // 1 + 2
}

TEST(RelationOpsTest, JoinOnNoCommonVarsIsCartesianScaled) {
  Relation<I64Ring> x(Schema{kA});
  x.Add(Tuple::Ints({1}), 2);
  x.Add(Tuple::Ints({2}), 3);
  Relation<I64Ring> y(Schema{kB});
  y.Add(Tuple::Ints({7}), 5);
  auto j = Join(x, y);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(*j.Find(Tuple::Ints({1, 7})), 10);
  EXPECT_EQ(*j.Find(Tuple::Ints({2, 7})), 15);
}

TEST(RelationOpsTest, JoinSkipsTombstonedEntries) {
  auto t = MakeT();
  t.Add(Tuple::Ints({1, 1}), -5);  // cancel (b1,c1)
  auto j = Join(MakeR(), t);
  EXPECT_EQ(j.size(), 0u);
}

TEST(RelationOpsTest, JoinAndMarginalizeMatchesUnfused) {
  auto u = Union(MakeR(), MakeS());
  auto t = MakeT();
  LiftingMap<I64Ring> lifts;
  lifts.Set(kB, [](const Value& x) { return x.AsInt() + 1; });

  auto fused = JoinAndMarginalize(u, t, Schema{kB}, lifts);
  auto unfused = Marginalize(Join(u, t), Schema{kB}, lifts);

  EXPECT_EQ(fused.size(), unfused.size());
  unfused.ForEach([&](const Tuple& k, const int64_t& p) {
    auto pos = unfused.schema().PositionsOf(fused.schema());
    ASSERT_NE(fused.Find(k.Project(pos)), nullptr) << k.ToString();
    EXPECT_EQ(*fused.Find(k.Project(pos)), p);
  });
}

TEST(RelationOpsTest, JoinAndMarginalizeCartesianBranch) {
  Relation<I64Ring> x(Schema{kA});
  x.Add(Tuple::Ints({1}), 2);
  Relation<I64Ring> y(Schema{kB});
  y.Add(Tuple::Ints({7}), 5);
  y.Add(Tuple::Ints({8}), 1);
  LiftingMap<I64Ring> lifts;
  auto out = JoinAndMarginalize(x, y, Schema{kB}, lifts);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(*out.Find(Tuple::Ints({1})), 12);
}

// Delta rule sanity: δ(V1 ⊗ V2) = (δV1 ⊗ V2) ⊎ (V1 ⊗ δV2) ⊎ (δV1 ⊗ δV2).
TEST(RelationOpsTest, JoinDeltaRuleHolds) {
  auto r = MakeR();
  auto t = MakeT();
  Relation<I64Ring> dr(Schema{kA, kB});
  dr.Add(Tuple::Ints({9, 1}), 7);
  dr.Add(Tuple::Ints({1, 1}), -1);  // delete (a1,b1)
  Relation<I64Ring> dt(Schema{kB, kC});
  dt.Add(Tuple::Ints({1, 3}), 2);

  // New state join.
  auto r2 = Union(r, dr);
  auto t2 = Union(t, dt);
  auto full = Join(r2, t2);

  // Old join plus delta.
  auto old = Join(r, t);
  auto delta = Union(Union(Join(dr, t), Join(r, dt)), Join(dr, dt));
  auto incr = Union(old, delta);

  EXPECT_EQ(full.size(), incr.size());
  full.ForEach([&](const Tuple& k, const int64_t& p) {
    ASSERT_NE(incr.Find(k), nullptr) << k.ToString();
    EXPECT_EQ(*incr.Find(k), p);
  });
}

}  // namespace
}  // namespace fivm
