// Appendix B: GYO reduction, indicator projections, and IVM for the cyclic
// triangle query.

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/gyo.h"
#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/util/rng.h"

namespace fivm {
namespace {

TEST(GyoTest, AcyclicPathJoin) {
  // R(A,B), S(B,C), T(C,D) — acyclic.
  EXPECT_TRUE(IsAcyclic({Schema{0, 1}, Schema{1, 2}, Schema{2, 3}}));
}

TEST(GyoTest, TriangleIsCyclic) {
  auto core = GyoCyclicCore({Schema{0, 1}, Schema{1, 2}, Schema{2, 0}});
  EXPECT_EQ(core.size(), 3u);
}

TEST(GyoTest, StarJoinIsAcyclic) {
  EXPECT_TRUE(IsAcyclic({Schema{0, 1}, Schema{0, 2}, Schema{0, 3}}));
}

TEST(GyoTest, ContainedEdgeIsAbsorbed) {
  // {A,B} ⊆ {A,B,C}: ear removal absorbs it; the rest is acyclic.
  EXPECT_TRUE(IsAcyclic({Schema{0, 1}, Schema{0, 1, 2}, Schema{2, 3}}));
}

TEST(GyoTest, Loop4IsCyclic) {
  auto core = GyoCyclicCore(
      {Schema{0, 1}, Schema{1, 2}, Schema{2, 3}, Schema{3, 0}});
  EXPECT_EQ(core.size(), 4u);
}

TEST(GyoTest, Loop4WithChordReduces) {
  // Adding the chord {0, 2} splits the 4-loop into two triangles; the
  // hypergraph stays cyclic.
  auto core = GyoCyclicCore({Schema{0, 1}, Schema{1, 2}, Schema{2, 3},
                             Schema{3, 0}, Schema{0, 2}});
  EXPECT_FALSE(core.empty());
}

TEST(GyoTest, EmptyInputIsAcyclic) {
  EXPECT_TRUE(IsAcyclic({}));
}

// --------------------------------------------------------------------------
// Triangle query fixture: R(A,B), S(B,C), T(C,A) over the order A-B-C.
// --------------------------------------------------------------------------

struct TriangleFixture {
  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C;
  VariableOrder vo;

  TriangleFixture() {
    A = catalog.Intern("A");
    B = catalog.Intern("B");
    C = catalog.Intern("C");
    query.AddRelation("R", Schema{A, B});
    query.AddRelation("S", Schema{B, C});
    query.AddRelation("T", Schema{C, A});
    int a = vo.AddNode(A, -1);
    int b = vo.AddNode(B, a);
    vo.AddNode(C, b);
    std::string error;
    bool ok = vo.Finalize(query, &error);
    assert(ok);
    (void)ok;
  }
};

// Figure 9 (right): the view tree for A-B-C gets the indicator ∃_{A,B} R
// below the view at C.
TEST(IndicatorTest, TriangleGetsIndicatorProjection) {
  TriangleFixture f;
  ViewTree tree(&f.query, &f.vo);
  int added = tree.AddIndicatorProjections();
  EXPECT_EQ(added, 1);

  auto leaves = tree.IndicatorLeavesOfRelation(0);  // R
  ASSERT_EQ(leaves.size(), 1u);
  const auto& ind = tree.node(leaves[0]);
  EXPECT_TRUE(ind.out_schema.SameSet(Schema{f.A, f.B}));
  // It hangs below the C view (parent joins S and T).
  const auto& parent = tree.node(ind.parent);
  EXPECT_TRUE(parent.marg_vars.Contains(f.C));
}

TEST(IndicatorTest, AcyclicQueryGetsNoIndicators) {
  Catalog catalog;
  Query q(&catalog);
  q.AddRelation("R", Schema{catalog.Intern("A"), catalog.Intern("B")});
  q.AddRelation("S", Schema{catalog.Intern("B"), catalog.Intern("C")});
  VariableOrder vo = VariableOrder::Auto(q);
  ViewTree tree(&q, &vo);
  EXPECT_EQ(tree.AddIndicatorProjections(), 0);
}

// Example B.1 / B.3: the indicator bounds the size of the view at C to the
// size of R (instead of |S| x |T| pairings).
TEST(IndicatorTest, IndicatorBoundsViewSize) {
  TriangleFixture f;

  // S and T share C-values so that V@C_ST is quadratically large without
  // the indicator.
  Database<I64Ring> db = MakeDatabase<I64Ring>(f.query);
  const int64_t n = 30;
  for (int64_t i = 0; i < n; ++i) {
    db[1].Add(Tuple::Ints({i, 0}), 1);  // S(b_i, c0)
    db[2].Add(Tuple::Ints({0, i}), 1);  // T(c0, a_i)
  }
  db[0].Add(Tuple::Ints({1, 1}), 1);  // single R edge

  ViewTree plain(&f.query, &f.vo);
  plain.MaterializeAll();
  IvmEngine<I64Ring> plain_engine(&plain, LiftingMap<I64Ring>{});
  plain_engine.Initialize(db);

  ViewTree indexed(&f.query, &f.vo);
  indexed.AddIndicatorProjections();
  indexed.MaterializeAll();
  IvmEngine<I64Ring> ind_engine(&indexed, LiftingMap<I64Ring>{});
  ind_engine.Initialize(db);

  // Same result.
  const int64_t* a = plain_engine.result().Find(Tuple());
  const int64_t* b = ind_engine.result().Find(Tuple());
  EXPECT_EQ(a ? *a : 0, b ? *b : 0);

  // V@C_ST (parent of the S leaf) has n*n keys without the indicator but
  // only 1 with it.
  int vc_plain = plain.node(plain.LeafOfRelation(1)).parent;
  int vc_ind = indexed.node(indexed.LeafOfRelation(1)).parent;
  EXPECT_EQ(plain_engine.store(vc_plain).size(),
            static_cast<size_t>(n * n));
  EXPECT_EQ(ind_engine.store(vc_ind).size(), 1u);
}

// Randomized: triangle counts maintained with and without indicators agree
// under mixed insert/delete streams to all three relations.
class TriangleIvmTest : public ::testing::TestWithParam<int> {};

TEST_P(TriangleIvmTest, IndicatorMaintenanceMatchesPlain) {
  TriangleFixture f;
  util::Rng rng(900 + GetParam() * 31);

  ViewTree plain(&f.query, &f.vo);
  plain.MaterializeAll();
  IvmEngine<I64Ring> plain_engine(&plain, LiftingMap<I64Ring>{});

  ViewTree indexed(&f.query, &f.vo);
  ASSERT_EQ(indexed.AddIndicatorProjections(), 1);
  indexed.ComputeMaterialization({0, 1, 2});
  IvmEngine<I64Ring> ind_engine(&indexed, LiftingMap<I64Ring>{});

  Database<I64Ring> db = MakeDatabase<I64Ring>(f.query);
  plain_engine.Initialize(db);
  ind_engine.Initialize(db);

  for (int step = 0; step < 120; ++step) {
    int rel = static_cast<int>(rng.Uniform(3));
    Relation<I64Ring> delta(f.query.relation(rel).schema);
    Tuple t = Tuple::Ints(
        {rng.UniformInt(0, 3), rng.UniformInt(0, 3)});
    delta.Add(t, rng.Bernoulli(0.35) ? -1 : 1);

    plain_engine.ApplyDelta(rel, delta);
    ind_engine.ApplyDelta(rel, delta);
    db[rel].UnionWith(delta);

    const int64_t* a = plain_engine.result().Find(Tuple());
    const int64_t* b = ind_engine.result().Find(Tuple());
    ASSERT_EQ(a ? *a : 0, b ? *b : 0) << "step " << step;

    if (step % 30 == 29) {
      // Also agree with from-scratch evaluation.
      auto re = IvmEngine<I64Ring>::Evaluate(plain, LiftingMap<I64Ring>{}, db);
      const int64_t* c = re.Find(Tuple());
      ASSERT_EQ(a ? *a : 0, c ? *c : 0) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleIvmTest, ::testing::Range(0, 6));

// Example B.2: support counting — deleting one of two supporting tuples
// leaves the indicator unchanged; deleting the last one retracts it.
TEST(IndicatorTest, SupportCountingSemantics) {
  TriangleFixture f;
  ViewTree tree(&f.query, &f.vo);
  tree.AddIndicatorProjections();
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});

  Database<I64Ring> db = MakeDatabase<I64Ring>(f.query);
  // Triangle (a=1, b=2, c=3) present.
  db[1].Add(Tuple::Ints({2, 3}), 1);
  db[2].Add(Tuple::Ints({3, 1}), 1);
  engine.Initialize(db);

  // R(1,2) with multiplicity 2 via two inserts.
  Relation<I64Ring> ins(Schema{f.A, f.B});
  ins.Add(Tuple::Ints({1, 2}), 1);
  engine.ApplyDelta(0, ins);
  engine.ApplyDelta(0, ins);
  EXPECT_EQ(*engine.result().Find(Tuple()), 2);

  // Delete one copy: count 1 remains, indicator unchanged.
  Relation<I64Ring> del(Schema{f.A, f.B});
  del.Add(Tuple::Ints({1, 2}), -1);
  engine.ApplyDelta(0, del);
  EXPECT_EQ(*engine.result().Find(Tuple()), 1);

  // Delete the last copy: the triangle disappears.
  engine.ApplyDelta(0, del);
  EXPECT_EQ(engine.result().Find(Tuple()), nullptr);
}

// A fault in the base propagation of an update to an indicated relation
// leaves the support counts where they were: a retry of the same apply then
// lands exactly where a fault-free apply does, and so does a later
// retraction (which would miss its -1 if the counts had advanced twice).
TEST(IndicatorTest, RetryAfterBasePropagationFaultMatchesFaultFree) {
  TriangleFixture f;
  ViewTree tree(&f.query, &f.vo);
  ASSERT_EQ(tree.AddIndicatorProjections(), 1);
  tree.MaterializeAll();
  int fuse = 0;  // the lift on B throws on its fuse-th call once armed
  LiftingMap<I64Ring> lifts;
  lifts.Set(f.B, [&fuse](const Value&) -> int64_t {
    if (fuse > 0 && --fuse == 0) throw std::runtime_error("injected fault");
    return 1;
  });
  IvmEngine<I64Ring> engine(&tree, lifts);
  IvmEngine<I64Ring> twin(&tree, lifts);

  Database<I64Ring> db = MakeDatabase<I64Ring>(f.query);
  db[0].Add(Tuple::Ints({1, 2}), 1);  // triangle (1, 2, 3)
  db[1].Add(Tuple::Ints({2, 3}), 1);
  db[2].Add(Tuple::Ints({3, 1}), 1);
  db[1].Add(Tuple::Ints({5, 6}), 1);  // R(4, 5) would close (4, 5, 6)
  db[2].Add(Tuple::Ints({6, 4}), 1);
  engine.Initialize(db);
  twin.Initialize(db);

  // (1, 2) already has support, so the base propagation matches it and
  // calls the lift; (4, 5) is new and turns ∃R(4, 5) on.
  Relation<I64Ring> delta(Schema{f.A, f.B});
  delta.Add(Tuple::Ints({1, 2}), 1);
  delta.Add(Tuple::Ints({4, 5}), 1);
  fuse = 1;
  EXPECT_THROW(engine.ApplyDelta(0, delta), std::runtime_error);
  ASSERT_EQ(fuse, 0) << "the lift fault did not fire";

  auto expect_same = [&] {
    for (size_t i = 0; i < tree.nodes().size(); ++i) {
      int node = static_cast<int>(i);
      if (!tree.node(node).materialized) continue;
      EXPECT_TRUE(ContentEquals(engine.store(node), twin.store(node)))
          << "store of " << tree.node(node).name << " differs";
    }
  };
  engine.ApplyDelta(0, delta);
  twin.ApplyDelta(0, delta);
  expect_same();
  EXPECT_EQ(*twin.result().Find(Tuple()), 3);

  Relation<I64Ring> retract(Schema{f.A, f.B});
  retract.Add(Tuple::Ints({4, 5}), -1);
  engine.ApplyDelta(0, retract);
  twin.ApplyDelta(0, retract);
  expect_same();
  EXPECT_EQ(*twin.result().Find(Tuple()), 2);
}

}  // namespace
}  // namespace fivm
