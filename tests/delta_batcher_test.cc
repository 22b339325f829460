#include "src/exec/delta_batcher.h"

#include <gtest/gtest.h>

#include <cassert>
#include <string>
#include <vector>

#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/catalog.h"
#include "src/plan/propagation_plan.h"
#include "src/rings/ring.h"

namespace fivm::exec {
namespace {

// The paper's A-(B, C-(D,E)) query: R(A,B), S(A,C,E), T(C,D).
struct Fixture {
  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C, D, E;
  int r, s, t;
  VariableOrder vo;
  ViewTree tree;
  // Standalone plan compilation (no engine needed): the batcher only reads
  // the per-relation leaf layouts off the plan handles.
  plan::PlanSet plans;

  static Fixture Make() { return Fixture(); }

  Fixture()
      : A(catalog.Intern("A")),
        B(catalog.Intern("B")),
        C(catalog.Intern("C")),
        D(catalog.Intern("D")),
        E(catalog.Intern("E")),
        r(query.AddRelation("R", Schema{A, B})),
        s(query.AddRelation("S", Schema{A, C, E})),
        t(query.AddRelation("T", Schema{C, D})),
        tree((Build(), &query), &vo),
        plans(plan::PlanSet::Compile(tree, [](VarId) { return true; })) {}

 private:
  void Build() {
    int a = vo.AddNode(A, -1);
    vo.AddNode(B, a);
    int c = vo.AddNode(C, a);
    vo.AddNode(D, c);
    vo.AddNode(E, c);
    std::string error;
    bool ok = vo.Finalize(query, &error);
    assert(ok);
    (void)ok;
  }
};

TEST(DeltaBatcherTest, CoalescesDuplicateKeysByRingAddition) {
  Fixture f;
  DeltaBatcher<I64Ring> batcher(&f.plans, 0);
  batcher.PushInsert(f.r, Tuple::Ints({1, 2}));
  batcher.PushInsert(f.r, Tuple::Ints({1, 2}));
  batcher.Push(f.r, Tuple::Ints({1, 2}), 3);
  batcher.PushInsert(f.r, Tuple::Ints({4, 5}));
  EXPECT_EQ(batcher.pending_updates(), 4u);

  auto batches = batcher.Flush();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].relation, f.r);
  EXPECT_EQ(batches[0].delta.size(), 2u);
  EXPECT_EQ(*batches[0].delta.Find(Tuple::Ints({1, 2})), 5);
  EXPECT_EQ(*batches[0].delta.Find(Tuple::Ints({4, 5})), 1);
  EXPECT_EQ(batcher.pending_updates(), 0u);
}

TEST(DeltaBatcherTest, ZeroSumUpdatesCancelBeforeEmission) {
  Fixture f;
  DeltaBatcher<I64Ring> batcher(&f.plans, 0);
  batcher.PushInsert(f.r, Tuple::Ints({1, 2}));
  batcher.PushDelete(f.r, Tuple::Ints({1, 2}));
  auto batches = batcher.Flush();
  EXPECT_TRUE(batches.empty());

  // A cancelled key alongside a surviving one: only the survivor is
  // emitted.
  batcher.PushInsert(f.r, Tuple::Ints({1, 2}));
  batcher.PushInsert(f.r, Tuple::Ints({7, 8}));
  batcher.PushDelete(f.r, Tuple::Ints({1, 2}));
  batches = batcher.Flush();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].delta.size(), 1u);
  EXPECT_EQ(batches[0].delta.Find(Tuple::Ints({1, 2})), nullptr);
  EXPECT_EQ(*batches[0].delta.Find(Tuple::Ints({7, 8})), 1);
}

TEST(DeltaBatcherTest, FlushEmitsDeltasInTheLeafSchema) {
  Fixture f;
  DeltaBatcher<I64Ring> batcher(&f.plans, 0);
  // A flushed delta is keyed in its relation leaf's out-schema, so the
  // engine propagates it as emitted.
  batcher.PushInsert(f.s, Tuple::Ints({1, 3, 9}));
  batcher.PushInsert(f.s, Tuple::Ints({1, 3, 9}));  // coalesces
  batcher.PushInsert(f.s, Tuple::Ints({2, 4, 10}));

  auto batches = batcher.Flush();
  ASSERT_EQ(batches.size(), 1u);
  const Schema& leaf_schema =
      f.tree.node(f.tree.LeafOfRelation(f.s)).out_schema;
  EXPECT_EQ(batches[0].delta.schema(), leaf_schema);
  EXPECT_EQ(batches[0].delta.size(), 2u);
  EXPECT_EQ(*batches[0].delta.Find(Tuple::Ints({1, 3, 9})), 2);
  EXPECT_EQ(*batches[0].delta.Find(Tuple::Ints({2, 4, 10})), 1);

  // The next window starts empty and keeps the layout.
  batcher.PushInsert(f.s, Tuple::Ints({5, 6, 11}));
  batches = batcher.Flush();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].delta.schema(), leaf_schema);
  EXPECT_EQ(batches[0].delta.size(), 1u);
  EXPECT_EQ(*batches[0].delta.Find(Tuple::Ints({5, 6, 11})), 1);
}

TEST(DeltaBatcherTest, EmitsRelationsInFirstTouchOrder) {
  Fixture f;
  DeltaBatcher<I64Ring> batcher(&f.plans, 0);
  batcher.PushInsert(f.t, Tuple::Ints({1, 1}));
  batcher.PushInsert(f.r, Tuple::Ints({2, 2}));
  batcher.PushInsert(f.t, Tuple::Ints({3, 3}));
  batcher.PushInsert(f.s, Tuple::Ints({4, 4, 4}));

  auto batches = batcher.Flush();
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].relation, f.t);
  EXPECT_EQ(batches[1].relation, f.r);
  EXPECT_EQ(batches[2].relation, f.s);
}

TEST(DeltaBatcherTest, CapacityDrivesFull) {
  Fixture f;
  DeltaBatcher<I64Ring> batcher(&f.plans, 3);
  EXPECT_EQ(batcher.capacity(), 3u);
  EXPECT_FALSE(batcher.Full());
  batcher.PushInsert(f.r, Tuple::Ints({1, 1}));
  batcher.PushInsert(f.r, Tuple::Ints({1, 1}));  // duplicates still count
  EXPECT_FALSE(batcher.Full());
  batcher.PushInsert(f.r, Tuple::Ints({2, 2}));
  EXPECT_TRUE(batcher.Full());
  batcher.Flush();
  EXPECT_FALSE(batcher.Full());

  // Capacity 0 never reports full.
  DeltaBatcher<I64Ring> manual(&f.plans, 0);
  for (int i = 0; i < 100; ++i) {
    manual.PushInsert(f.r, Tuple::Ints({i, i}));
  }
  EXPECT_FALSE(manual.Full());
}

TEST(DeltaBatcherTest, PushInsertsCountsTowardCapacity) {
  Fixture f;
  DeltaBatcher<I64Ring> batcher(&f.plans, 4);
  std::vector<Tuple> keys{Tuple::Ints({1, 1}), Tuple::Ints({2, 2}),
                          Tuple::Ints({1, 1}), Tuple::Ints({3, 3})};
  batcher.PushInserts(f.r, keys);
  EXPECT_EQ(batcher.pending_updates(), 4u);
  EXPECT_TRUE(batcher.Full());
  auto batches = batcher.Flush();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].delta.size(), 3u);
  EXPECT_EQ(*batches[0].delta.Find(Tuple::Ints({1, 1})), 2);
}

}  // namespace
}  // namespace fivm::exec
