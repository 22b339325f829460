// Example 1.1 / Section 6.2: "one model f for each pair of values (A,C)" —
// a group-by cofactor query maintains per-group sufficient statistics, and
// models are trained per group without touching the data.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/ml/cofactor.h"
#include "src/ml/linear_regression.h"
#include "src/rings/regression_ring.h"
#include "src/util/rng.h"

namespace fivm {
namespace {

/// Trains one model per group from a group-by cofactor view: each key of
/// `grouped` maps to the sufficient statistics of its group, so training
/// never revisits the data.
std::vector<std::pair<Tuple, ml::TrainResult>> TrainPerGroup(
    const Relation<RegressionRing>& grouped,
    const std::vector<uint32_t>& feature_slots, uint32_t label_slot) {
  std::vector<std::pair<Tuple, ml::TrainResult>> models;
  grouped.ForEach([&](const Tuple& key, const RegressionPayload& payload) {
    models.emplace_back(
        key, ml::SolveLeastSquares(payload, feature_slots, label_slot));
  });
  return models;
}

TEST(PerGroupModelTest, GroupedCofactorTrainsOneModelPerGroup) {
  // R(G, X, Y): per group G, Y = slope_G * X exactly.
  Catalog catalog;
  Query query(&catalog);
  VarId G = catalog.Intern("G"), X = catalog.Intern("X"),
        Y = catalog.Intern("Y");
  query.AddRelation("R", Schema{G, X, Y});
  query.SetFreeVars(Schema{G});

  VariableOrder vo = VariableOrder::Auto(query);
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();

  LiftingMap<RegressionRing> lifts;
  lifts.Set(X, RegressionLifting(slots[X]));
  lifts.Set(Y, RegressionLifting(slots[Y]));
  IvmEngine<RegressionRing> engine(&tree, lifts);
  Database<RegressionRing> db = MakeDatabase<RegressionRing>(query);
  engine.Initialize(db);

  util::Rng rng(13);
  double slopes[] = {2.0, -1.0, 0.5};
  for (int64_t g = 0; g < 3; ++g) {
    for (int i = 0; i < 30; ++i) {
      double x = rng.UniformDouble(-4.0, 4.0);
      Relation<RegressionRing> delta(query.relation(0).schema);
      Tuple t;
      t.Append(Value::Int(g));
      t.Append(Value::Double(x));
      t.Append(Value::Double(slopes[g] * x));
      delta.Add(t, RegressionRing::One());
      engine.ApplyDelta(0, delta);
    }
  }

  // One model per group value.
  ASSERT_EQ(engine.result().size(), 3u);
  auto models =
      TrainPerGroup(engine.result(), {slots[X]}, slots[Y]);
  ASSERT_EQ(models.size(), 3u);
  for (const auto& [key, model] : models) {
    int64_t g = key[0].AsInt();
    ASSERT_EQ(model.theta.size(), 2u);
    EXPECT_NEAR(model.theta[0], 0.0, 1e-6) << "group " << g;      // bias
    EXPECT_NEAR(model.theta[1], slopes[g], 1e-6) << "group " << g;
    EXPECT_LT(model.mse, 1e-9);
  }
}

TEST(PerGroupModelTest, GroupModelsUpdateWithDeltas) {
  Catalog catalog;
  Query query(&catalog);
  VarId G = catalog.Intern("G"), X = catalog.Intern("X"),
        Y = catalog.Intern("Y");
  query.AddRelation("R", Schema{G, X, Y});
  query.SetFreeVars(Schema{G});
  VariableOrder vo = VariableOrder::Auto(query);
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();
  LiftingMap<RegressionRing> lifts;
  lifts.Set(X, RegressionLifting(slots[X]));
  lifts.Set(Y, RegressionLifting(slots[Y]));
  IvmEngine<RegressionRing> engine(&tree, lifts);
  Database<RegressionRing> db = MakeDatabase<RegressionRing>(query);
  engine.Initialize(db);

  auto add = [&](int64_t g, double x, double y, bool insert) {
    Relation<RegressionRing> delta(query.relation(0).schema);
    Tuple t;
    t.Append(Value::Int(g));
    t.Append(Value::Double(x));
    t.Append(Value::Double(y));
    delta.Add(t, insert ? RegressionRing::One()
                        : RegressionRing::Neg(RegressionRing::One()));
    engine.ApplyDelta(0, delta);
  };

  // Group 0: y = x plus one outlier; delete the outlier and the fit is
  // exact again.
  add(0, 1.0, 1.0, true);
  add(0, 2.0, 2.0, true);
  add(0, 3.0, 100.0, true);  // outlier

  auto models = TrainPerGroup(engine.result(), {slots[X]}, slots[Y]);
  ASSERT_EQ(models.size(), 1u);
  EXPECT_GT(models[0].second.mse, 1.0);

  add(0, 3.0, 100.0, false);  // retract the outlier
  models = TrainPerGroup(engine.result(), {slots[X]}, slots[Y]);
  ASSERT_EQ(models.size(), 1u);
  EXPECT_NEAR(models[0].second.theta[1], 1.0, 1e-9);
  EXPECT_LT(models[0].second.mse, 1e-12);
}

TEST(PerGroupModelTest, GroupsOverJoinKeys) {
  // Two relations joined on G; per-group models over join-produced rows.
  Catalog catalog;
  Query query(&catalog);
  VarId G = catalog.Intern("G"), X = catalog.Intern("X"),
        Y = catalog.Intern("Y");
  query.AddRelation("RX", Schema{G, X});
  query.AddRelation("RY", Schema{G, Y});
  query.SetFreeVars(Schema{G});
  VariableOrder vo = VariableOrder::Auto(query);
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();
  LiftingMap<RegressionRing> lifts;
  lifts.Set(X, RegressionLifting(slots[X]));
  lifts.Set(Y, RegressionLifting(slots[Y]));
  IvmEngine<RegressionRing> engine(&tree, lifts);
  Database<RegressionRing> db = MakeDatabase<RegressionRing>(query);
  db[0].Add(Tuple{Value::Int(1), Value::Double(2.0)}, RegressionRing::One());
  db[0].Add(Tuple{Value::Int(1), Value::Double(4.0)}, RegressionRing::One());
  db[1].Add(Tuple{Value::Int(1), Value::Double(3.0)}, RegressionRing::One());
  engine.Initialize(db);

  // Group 1 join = {(x=2,y=3), (x=4,y=3)}: count 2, SUM(X)=6, SUM(XY)=18.
  const RegressionPayload* p = engine.result().Find(Tuple::Ints({1}));
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->count(), 2.0);
  EXPECT_DOUBLE_EQ(p->Sum(slots[X]), 6.0);
  EXPECT_DOUBLE_EQ(p->Cofactor(slots[X], slots[Y]), 18.0);
}

}  // namespace
}  // namespace fivm
