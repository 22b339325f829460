// End-to-end Section 6.2: cofactor-matrix maintenance over joins with the
// regression ring, cross-checked against direct computation on the
// materialized join, the SQL-OPT sparse encoding, DBT-RING, and model
// training.

#include <gtest/gtest.h>

#include <cmath>

#include "src/baselines/recursive_ivm.h"
#include "src/core/ivm_engine.h"
#include "src/core/view_tree.h"
#include "src/ml/cofactor.h"
#include "src/ml/linear_regression.h"
#include "src/rings/regression_ring.h"
#include "src/rings/sparse_regression_ring.h"
#include "src/workloads/housing.h"
#include "src/workloads/retailer.h"
#include "src/workloads/stream.h"

namespace fivm {
namespace {

using workloads::HousingConfig;
using workloads::HousingDataset;
using workloads::RetailerConfig;
using workloads::RetailerDataset;
using workloads::UpdateStream;

// Direct reference: materialize the join, lift every tuple, and sum.
RegressionPayload DirectCofactor(const Query& query,
                                 const Database<I64Ring>& db,
                                 const std::vector<uint32_t>& slots) {
  Relation<I64Ring> acc = db[0];
  for (int i = 1; i < query.relation_count(); ++i) acc = Join(acc, db[i]);
  RegressionPayload total;
  acc.ForEach([&](const Tuple& t, const int64_t& m) {
    RegressionPayload p = RegressionPayload::Count(1.0);
    for (size_t i = 0; i < acc.schema().size(); ++i) {
      p = Mul(p, RegressionPayload::Lift(slots[acc.schema()[i]],
                                         t[i].AsDouble()));
    }
    total.AddInPlace(Mul(RegressionPayload::Count(static_cast<double>(m)), p));
  });
  return total;
}

TEST(CofactorE2ETest, HousingStreamMatchesDirectComputation) {
  HousingConfig cfg;
  cfg.postcodes = 40;
  cfg.scale = 2;
  auto ds = HousingDataset::Generate(cfg);

  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();
  auto lifts = ml::RegressionLiftings(*ds->query, slots);

  IvmEngine<RegressionRing> engine(&tree, lifts);
  Database<RegressionRing> empty = MakeDatabase<RegressionRing>(*ds->query);
  engine.Initialize(empty);

  Database<I64Ring> mirror = MakeDatabase<I64Ring>(*ds->query);
  auto stream = UpdateStream::RoundRobin(ds->tuples, 50);
  for (const auto& batch : stream.batches()) {
    engine.ApplyDelta(batch.relation,
                      UpdateStream::ToDelta<RegressionRing>(*ds->query, batch));
    auto zdelta = UpdateStream::ToDelta<I64Ring>(*ds->query, batch);
    mirror[batch.relation].UnionWith(zdelta);
  }

  ASSERT_EQ(engine.result().size(), 1u);
  const RegressionPayload* got = engine.result().Find(Tuple());
  ASSERT_NE(got, nullptr);
  RegressionPayload expected = DirectCofactor(*ds->query, mirror, slots);

  EXPECT_DOUBLE_EQ(got->count(), expected.count());
  uint32_t m = static_cast<uint32_t>(ds->catalog.size());
  for (uint32_t i = 0; i < m; ++i) {
    EXPECT_NEAR(got->Sum(i), expected.Sum(i),
                1e-6 * (1.0 + std::fabs(expected.Sum(i))))
        << "slot " << i;
    for (uint32_t j = i; j < m; ++j) {
      EXPECT_NEAR(got->Cofactor(i, j), expected.Cofactor(i, j),
                  1e-6 * (1.0 + std::fabs(expected.Cofactor(i, j))))
          << i << "," << j;
    }
  }
}

TEST(CofactorE2ETest, SparseEncodingAgreesWithDense) {
  HousingConfig cfg;
  cfg.postcodes = 25;
  cfg.scale = 1;
  auto ds = HousingDataset::Generate(cfg);

  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();

  IvmEngine<RegressionRing> dense(&tree,
                                  ml::RegressionLiftings(*ds->query, slots));
  IvmEngine<SparseRegressionRing> sparse(
      &tree, ml::SparseRegressionLiftings(*ds->query, slots));
  Database<RegressionRing> e1 = MakeDatabase<RegressionRing>(*ds->query);
  Database<SparseRegressionRing> e2 =
      MakeDatabase<SparseRegressionRing>(*ds->query);
  dense.Initialize(e1);
  sparse.Initialize(e2);

  auto stream = UpdateStream::RoundRobin(ds->tuples, 30);
  for (const auto& batch : stream.batches()) {
    dense.ApplyDelta(
        batch.relation,
        UpdateStream::ToDelta<RegressionRing>(*ds->query, batch));
    sparse.ApplyDelta(
        batch.relation,
        UpdateStream::ToDelta<SparseRegressionRing>(*ds->query, batch));
  }

  const RegressionPayload* a = dense.result().Find(Tuple());
  const SparseRegressionPayload* b = sparse.result().Find(Tuple());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(a->count(), b->count());
  uint32_t m = static_cast<uint32_t>(ds->catalog.size());
  for (uint32_t i = 0; i < m; ++i) {
    EXPECT_NEAR(a->Sum(i), b->Sum(i), 1e-6 * (1.0 + std::fabs(a->Sum(i))));
    for (uint32_t j = i; j < m; ++j) {
      EXPECT_NEAR(a->Cofactor(i, j), b->Cofactor(i, j),
                  1e-6 * (1.0 + std::fabs(a->Cofactor(i, j))));
    }
  }
}

TEST(CofactorE2ETest, DbtRingAgreesWithFIvm) {
  HousingConfig cfg;
  cfg.postcodes = 20;
  cfg.scale = 1;
  auto ds = HousingDataset::Generate(cfg);

  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();
  auto lifts = ml::RegressionLiftings(*ds->query, slots);

  IvmEngine<RegressionRing> fivm(&tree, lifts);
  Database<RegressionRing> empty = MakeDatabase<RegressionRing>(*ds->query);
  fivm.Initialize(empty);

  std::vector<int> updatable;
  for (int r = 0; r < ds->query->relation_count(); ++r) {
    updatable.push_back(r);
  }
  RecursiveIvm<RegressionRing> dbt(ds->query.get(), updatable);
  dbt.AddAggregate({lifts, {}});
  dbt.Initialize(empty);

  auto stream = UpdateStream::RoundRobin(ds->tuples, 40);
  for (const auto& batch : stream.batches()) {
    auto delta = UpdateStream::ToDelta<RegressionRing>(*ds->query, batch);
    fivm.ApplyDelta(batch.relation, delta);
    dbt.ApplyDelta(batch.relation, delta);
  }

  const RegressionPayload* a = fivm.result().Find(Tuple());
  const RegressionPayload* b = dbt.result().Find(Tuple());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(a->count(), b->count());
  uint32_t m = static_cast<uint32_t>(ds->catalog.size());
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t j = i; j < m; ++j) {
      EXPECT_NEAR(a->Cofactor(i, j), b->Cofactor(i, j),
                  1e-6 * (1.0 + std::fabs(a->Cofactor(i, j))))
          << i << "," << j;
    }
  }
}

TEST(CofactorE2ETest, TrainsHousePriceModel) {
  HousingConfig cfg;
  cfg.postcodes = 150;
  cfg.scale = 2;
  auto ds = HousingDataset::Generate(cfg);

  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();
  auto lifts = ml::RegressionLiftings(*ds->query, slots);
  IvmEngine<RegressionRing> engine(&tree, lifts);
  Database<RegressionRing> empty = MakeDatabase<RegressionRing>(*ds->query);
  engine.Initialize(empty);

  auto stream = UpdateStream::RoundRobin(ds->tuples, 200);
  for (const auto& batch : stream.batches()) {
    engine.ApplyDelta(batch.relation,
                      UpdateStream::ToDelta<RegressionRing>(*ds->query, batch));
  }

  const RegressionPayload* payload = engine.result().Find(Tuple());
  ASSERT_NE(payload, nullptr);

  // Predict price from livingarea and nbbedrooms.
  std::vector<uint32_t> features{slots[ds->livingarea], slots[ds->nbbedrooms]};
  uint32_t label = slots[ds->price];
  auto model = ml::SolveLeastSquares(*payload, features, label);
  ASSERT_EQ(model.theta.size(), 3u);

  // The generator prices at ~1500/sqm (scaled by a zone factor around 1.2
  // on average): area must be the dominant, positive coefficient, and the
  // model must beat the variance baseline (predicting the mean).
  EXPECT_GT(model.theta[1], 500.0);
  double n = payload->count();
  double mean = payload->Sum(label) / n;
  double variance = payload->Cofactor(label, label) / n - mean * mean;
  EXPECT_LT(model.mse, variance * 0.8);

  // Gradient descent lands close to the closed form.
  ml::TrainOptions opts;
  opts.max_iterations = 50000;
  // Normalize step for large feature scales.
  opts.step_size = 1e-7;
  auto gd = ml::TrainFromCofactor(*payload, features, label, opts);
  EXPECT_LT(gd.mse, variance);
}

TEST(CofactorE2ETest, RetailerFortyThreeVariablePayload) {
  RetailerConfig cfg;
  cfg.inventory_rows = 2000;
  cfg.locations = 5;
  cfg.dates = 20;
  cfg.products = 50;
  auto ds = RetailerDataset::Generate(cfg);

  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();
  auto lifts = ml::RegressionLiftings(*ds->query, slots);
  IvmEngine<RegressionRing> engine(&tree, lifts);
  Database<RegressionRing> empty = MakeDatabase<RegressionRing>(*ds->query);
  engine.Initialize(empty);

  Database<I64Ring> mirror = MakeDatabase<I64Ring>(*ds->query);
  auto stream = UpdateStream::RoundRobin(ds->tuples, 500);
  for (const auto& batch : stream.batches()) {
    engine.ApplyDelta(batch.relation,
                      UpdateStream::ToDelta<RegressionRing>(*ds->query, batch));
    mirror[batch.relation].UnionWith(
        UpdateStream::ToDelta<I64Ring>(*ds->query, batch));
  }

  const RegressionPayload* got = engine.result().Find(Tuple());
  ASSERT_NE(got, nullptr);
  EXPECT_DOUBLE_EQ(got->count(), static_cast<double>(cfg.inventory_rows));

  // Spot-check a handful of aggregates against the direct computation.
  RegressionPayload expected = DirectCofactor(*ds->query, mirror, slots);
  for (VarId v : {ds->locn, ds->ksn, ds->zip}) {
    EXPECT_NEAR(got->Sum(slots[v]), expected.Sum(slots[v]),
                1e-6 * (1.0 + std::fabs(expected.Sum(slots[v]))));
  }
  EXPECT_NEAR(
      got->Cofactor(slots[ds->locn], slots[ds->zip]),
      expected.Cofactor(slots[ds->locn], slots[ds->zip]),
      1e-6 * (1.0 + std::fabs(expected.Cofactor(slots[ds->locn],
                                                slots[ds->zip]))));
}

}  // namespace
}  // namespace fivm
