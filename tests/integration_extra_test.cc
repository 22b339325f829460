// Cross-module integration checks: slot contiguity on the wide Retailer
// schema, engine introspection, bulk-update sequencing, initialization
// semantics, and F-RE equivalence on a realistic workload.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/ivm_engine.h"
#include "src/core/view_tree.h"
#include "src/ml/cofactor.h"
#include "src/workloads/retailer.h"
#include "src/workloads/stream.h"

namespace fivm {
namespace {

using workloads::RetailerConfig;
using workloads::RetailerDataset;
using workloads::UpdateStream;

std::unique_ptr<RetailerDataset> SmallRetailer() {
  RetailerConfig cfg;
  cfg.inventory_rows = 1500;
  cfg.locations = 6;
  cfg.dates = 15;
  cfg.products = 40;
  return RetailerDataset::Generate(cfg);
}

TEST(IntegrationTest, RetailerSlotsContiguousPerRelationBranch) {
  auto ds = SmallRetailer();
  ViewTree tree(ds->query.get(), &ds->vorder);
  auto slots = tree.AssignAggregateSlots();

  // Every relation's schema must map to slots whose *branch-local* parts
  // are contiguous; in particular the locals of each dimension relation
  // form one contiguous run (this is what keeps regression payloads on
  // compact ranges).
  for (int r = 0; r < ds->query->relation_count(); ++r) {
    const Schema& sch = ds->query->relation(r).schema;
    // Collect slots of the relation's local (non-join) variables.
    Schema joins{ds->locn, ds->dateid, ds->ksn, ds->zip};
    std::vector<uint32_t> locals;
    for (VarId v : sch) {
      if (!joins.Contains(v)) locals.push_back(slots[v]);
    }
    if (locals.size() < 2) continue;
    std::sort(locals.begin(), locals.end());
    EXPECT_EQ(locals.back() - locals.front() + 1, locals.size())
        << "non-contiguous locals in " << ds->query->relation(r).name;
  }

  // All 43 slots distinct and within [0, 43).
  std::vector<bool> used(43, false);
  for (VarId v : ds->query->AllVars()) {
    ASSERT_LT(slots[v], 43u);
    EXPECT_FALSE(used[slots[v]]);
    used[slots[v]] = true;
  }
}

TEST(IntegrationTest, StatsStringListsMaterializedViews) {
  auto ds = SmallRetailer();
  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
  Database<I64Ring> db = MakeDatabase<I64Ring>(*ds->query);
  for (int r = 0; r < 5; ++r) {
    for (const Tuple& t : ds->tuples[r]) db[r].Add(t, 1);
  }
  engine.Initialize(db);
  std::string stats = engine.StatsString();
  EXPECT_NE(stats.find("Inventory"), std::string::npos);
  EXPECT_NE(stats.find("keys"), std::string::npos);
  EXPECT_NE(stats.find("bytes"), std::string::npos);
}

TEST(IntegrationTest, InitializeIsIdempotentAndResets) {
  auto ds = SmallRetailer();
  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
  Database<I64Ring> db = MakeDatabase<I64Ring>(*ds->query);
  for (int r = 0; r < 5; ++r) {
    for (const Tuple& t : ds->tuples[r]) db[r].Add(t, 1);
  }
  engine.Initialize(db);
  const int64_t* first = engine.result().Find(Tuple());
  int64_t v1 = first ? *first : 0;

  // Re-initializing with the same database resets rather than accumulates.
  engine.Initialize(db);
  const int64_t* second = engine.result().Find(Tuple());
  EXPECT_EQ(second ? *second : 0, v1);

  // Initializing with an empty database clears everything.
  Database<I64Ring> empty = MakeDatabase<I64Ring>(*ds->query);
  engine.Initialize(empty);
  EXPECT_EQ(engine.result().Find(Tuple()), nullptr);
}

TEST(IntegrationTest, StreamedEngineMatchesReevaluation) {
  auto ds = SmallRetailer();
  const Query& query = *ds->query;
  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();
  auto lifts = ml::RegressionLiftings(query, slots);

  IvmEngine<RegressionRing> engine(&tree, lifts);
  Database<RegressionRing> empty = MakeDatabase<RegressionRing>(query);
  engine.Initialize(empty);

  Database<RegressionRing> db = MakeDatabase<RegressionRing>(query);
  auto stream = UpdateStream::RoundRobin(ds->tuples, 100);
  for (const auto& batch : stream.batches()) {
    auto delta = UpdateStream::ToDelta<RegressionRing>(query, batch);
    engine.ApplyDelta(batch.relation, delta);
    db[batch.relation].UnionWith(delta);
  }

  auto reeval = IvmEngine<RegressionRing>::Evaluate(tree, lifts, db);
  const RegressionPayload* a = engine.result().Find(Tuple());
  const RegressionPayload* b = reeval.Find(Tuple());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(a->count(), b->count());
  for (uint32_t i = 0; i < 43; i += 7) {
    for (uint32_t j = i; j < 43; j += 7) {
      EXPECT_NEAR(a->Cofactor(i, j), b->Cofactor(i, j),
                  1e-6 * (1.0 + std::abs(b->Cofactor(i, j))));
    }
  }
}

TEST(IntegrationTest, TotalBytesGrowsWithData) {
  auto ds = SmallRetailer();
  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
  Database<I64Ring> empty = MakeDatabase<I64Ring>(*ds->query);
  engine.Initialize(empty);
  size_t base = engine.TotalBytes();

  Relation<I64Ring> delta(ds->query->relation(ds->inventory).schema);
  for (size_t i = 0; i < 500 && i < ds->tuples[ds->inventory].size(); ++i) {
    delta.Add(ds->tuples[ds->inventory][i], 1);
  }
  engine.ApplyDelta(ds->inventory, delta);
  EXPECT_GT(engine.TotalBytes(), base);
}

TEST(IntegrationTest, ViewTreeToStringShowsStructure) {
  auto ds = SmallRetailer();
  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.ComputeMaterialization({ds->inventory});
  std::string s = tree.ToString();
  EXPECT_NE(s.find("Inventory"), std::string::npos);
  EXPECT_NE(s.find("*"), std::string::npos);  // materialized markers
  std::string vs = ds->vorder.ToString(ds->catalog);
  EXPECT_NE(vs.find("locn"), std::string::npos);
}

}  // namespace
}  // namespace fivm
