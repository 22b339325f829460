// Remaining corner coverage: larger cyclic queries (the Appendix-B loop-4
// with chord), baseline initialization from non-empty databases, a Retailer
// group-by SUM in the real ring, and Value edge semantics.

#include <gtest/gtest.h>

#include <cmath>

#include "src/baselines/recursive_ivm.h"
#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/util/rng.h"
#include "src/workloads/retailer.h"

namespace fivm {
namespace {

// Loop-4 query R(A,B), S(B,C), T(C,D), U(D,A): cyclic; the view tree over
// A-B-C-D gets indicator projections, and maintenance with them matches the
// plain engine under mixed updates.
TEST(AppendixBTest, Loop4IndicatorMaintenance) {
  Catalog catalog;
  Query query(&catalog);
  VarId A = catalog.Intern("A"), B = catalog.Intern("B"),
        C = catalog.Intern("C"), D = catalog.Intern("D");
  query.AddRelation("R", Schema{A, B});
  query.AddRelation("S", Schema{B, C});
  query.AddRelation("T", Schema{C, D});
  query.AddRelation("U", Schema{D, A});

  VariableOrder vo;
  int a = vo.AddNode(A, -1);
  int b = vo.AddNode(B, a);
  int c = vo.AddNode(C, b);
  vo.AddNode(D, c);
  std::string error;
  ASSERT_TRUE(vo.Finalize(query, &error)) << error;

  ViewTree plain(&query, &vo);
  plain.MaterializeAll();
  ViewTree indexed(&query, &vo);
  int added = indexed.AddIndicatorProjections();
  EXPECT_GE(added, 1);
  indexed.ComputeMaterialization({0, 1, 2, 3});

  IvmEngine<I64Ring> pe(&plain, LiftingMap<I64Ring>{});
  IvmEngine<I64Ring> ie(&indexed, LiftingMap<I64Ring>{});
  Database<I64Ring> db = MakeDatabase<I64Ring>(query);
  pe.Initialize(db);
  ie.Initialize(db);

  util::Rng rng(1234);
  for (int step = 0; step < 150; ++step) {
    int rel = static_cast<int>(rng.Uniform(4));
    Relation<I64Ring> delta(query.relation(rel).schema);
    delta.Add(Tuple::Ints({rng.UniformInt(0, 3), rng.UniformInt(0, 3)}),
              rng.Bernoulli(0.3) ? -1 : 1);
    pe.ApplyDelta(rel, delta);
    ie.ApplyDelta(rel, delta);
    const int64_t* x = pe.result().Find(Tuple());
    const int64_t* y = ie.result().Find(Tuple());
    ASSERT_EQ(x ? *x : 0, y ? *y : 0) << "step " << step;
  }
}

// Loop-4 with a chord R(A,B), S(B,C), T(C,D), U(D,A), X(A,C): the chord
// participates in two triangles (Appendix B's Ql discussion); the whole
// hypergraph is cyclic and maintenance still matches.
TEST(AppendixBTest, Loop4WithChordMaintenance) {
  Catalog catalog;
  Query query(&catalog);
  VarId A = catalog.Intern("A"), B = catalog.Intern("B"),
        C = catalog.Intern("C"), D = catalog.Intern("D");
  query.AddRelation("R", Schema{A, B});
  query.AddRelation("S", Schema{B, C});
  query.AddRelation("T", Schema{C, D});
  query.AddRelation("U", Schema{D, A});
  query.AddRelation("X", Schema{A, C});

  VariableOrder vo;
  int a = vo.AddNode(A, -1);
  int b = vo.AddNode(B, a);
  int c = vo.AddNode(C, b);
  vo.AddNode(D, c);
  std::string error;
  ASSERT_TRUE(vo.Finalize(query, &error)) << error;

  ViewTree plain(&query, &vo);
  plain.MaterializeAll();
  ViewTree indexed(&query, &vo);
  indexed.AddIndicatorProjections();
  indexed.MaterializeAll();

  IvmEngine<I64Ring> pe(&plain, LiftingMap<I64Ring>{});
  IvmEngine<I64Ring> ie(&indexed, LiftingMap<I64Ring>{});
  Database<I64Ring> db = MakeDatabase<I64Ring>(query);
  pe.Initialize(db);
  ie.Initialize(db);

  util::Rng rng(4321);
  for (int step = 0; step < 150; ++step) {
    int rel = static_cast<int>(rng.Uniform(5));
    Relation<I64Ring> delta(query.relation(rel).schema);
    delta.Add(Tuple::Ints({rng.UniformInt(0, 2), rng.UniformInt(0, 2)}),
              rng.Bernoulli(0.3) ? -1 : 1);
    pe.ApplyDelta(rel, delta);
    ie.ApplyDelta(rel, delta);
    const int64_t* x = pe.result().Find(Tuple());
    const int64_t* y = ie.result().Find(Tuple());
    ASSERT_EQ(x ? *x : 0, y ? *y : 0) << "step " << step;
  }
}

TEST(RecursiveIvmExtraTest, InitializeFromNonEmptyDatabase) {
  Catalog catalog;
  Query query(&catalog);
  VarId K = catalog.Intern("K"), X = catalog.Intern("X"),
        Y = catalog.Intern("Y");
  query.AddRelation("R", Schema{K, X});
  query.AddRelation("S", Schema{K, Y});

  LiftingMap<I64Ring> lifts;
  lifts.Set(X, [](const Value& v) { return v.AsInt(); });

  RecursiveIvm<I64Ring> dbt(&query, {0, 1});
  dbt.AddAggregate({lifts, {}});

  Database<I64Ring> db = MakeDatabase<I64Ring>(query);
  db[0].Add(Tuple::Ints({1, 5}), 1);
  db[0].Add(Tuple::Ints({2, 7}), 1);
  db[1].Add(Tuple::Ints({1, 0}), 2);
  dbt.Initialize(db);
  // SUM(X): K=1 joins twice (multiplicity 2): 5*2 = 10.
  EXPECT_EQ(*dbt.result().Find(Tuple()), 10);

  // Continue incrementally from the initialized state.
  Relation<I64Ring> ds(Schema{K, Y});
  ds.Add(Tuple::Ints({2, 3}), 1);
  dbt.ApplyDelta(1, ds);
  EXPECT_EQ(*dbt.result().Find(Tuple()), 17);
}

// The Section 2 query over Retailer, in the real ring:
//   SELECT locn, SUM(inventoryunits * prize) FROM Inventory NATURAL JOIN
//   Item NATURAL JOIN Weather NATURAL JOIN Location NATURAL JOIN Census
//   GROUP BY locn;
// Initialize over the generated data and insert-by-insert maintenance agree.
TEST(RetailerGroupBySumTest, SumOfUnitsTimesPrizePerLocation) {
  workloads::RetailerConfig cfg;
  cfg.inventory_rows = 10;
  cfg.locations = 2;
  cfg.dates = 2;
  cfg.products = 3;
  auto ds = workloads::RetailerDataset::Generate(cfg);

  Query query(&ds->catalog);
  for (const auto& rel : ds->query->relations()) {
    query.AddRelation(rel.name, rel.schema);
  }
  query.SetFreeVars(Schema{ds->locn});
  LiftingMap<F64Ring> lifts;
  lifts.Set(ds->catalog.Lookup("inventoryunits"), NumericLifting<F64Ring>());
  lifts.Set(ds->catalog.Lookup("prize"), NumericLifting<F64Ring>());

  VariableOrder vo = VariableOrder::Auto(query);
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();
  IvmEngine<F64Ring> engine(&tree, lifts);
  IvmEngine<F64Ring> incremental(&tree, lifts);
  Database<F64Ring> db = MakeDatabase<F64Ring>(query);
  incremental.Initialize(db);
  for (int r = 0; r < query.relation_count(); ++r) {
    for (const Tuple& t : ds->tuples[r]) {
      db[r].Add(t, 1.0);
      Relation<F64Ring> delta(query.relation(r).schema);
      delta.Add(t, 1.0);
      incremental.ApplyDelta(r, std::move(delta));
    }
  }
  engine.Initialize(db);
  EXPECT_EQ(engine.result().size(), 2u);  // one group per location
  EXPECT_EQ(incremental.result().size(), 2u);
  engine.result().ForEach([&](const Tuple& key, const double& v) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
    const double* maintained = incremental.result().Find(key);
    ASSERT_NE(maintained, nullptr);
    EXPECT_NEAR(*maintained, v, 1e-9 * v);
  });
}

TEST(ValueEdgeTest, NegativeZeroAndLargeInts) {
  // -0.0 and 0.0 differ bitwise: they are distinct group-by keys, which is
  // deterministic (if surprising) — documented behavior.
  EXPECT_NE(Value::Double(-0.0), Value::Double(0.0));
  // Large int64 values survive round trips exactly.
  int64_t big = (int64_t{1} << 62) + 12345;
  EXPECT_EQ(Value::Int(big).AsInt(), big);
  // AsDouble on ints is the numeric value.
  EXPECT_DOUBLE_EQ(Value::Int(-7).AsDouble(), -7.0);
}

TEST(ValueEdgeTest, HashStableAcrossCopies) {
  Value v = Value::Double(3.25);
  Value w = v;
  EXPECT_EQ(v.Hash(), w.Hash());
  Tuple t{v, Value::Int(1)};
  Tuple u = t;
  EXPECT_EQ(t.Hash(), u.Hash());
}

}  // namespace
}  // namespace fivm
