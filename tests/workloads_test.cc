#include <gtest/gtest.h>

#include <array>
#include <tuple>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/view_tree.h"
#include "src/workloads/housing.h"
#include "src/workloads/retailer.h"
#include "src/workloads/stream.h"
#include "src/workloads/twitter.h"

namespace fivm::workloads {
namespace {

TEST(RetailerTest, SchemaHas43Attributes) {
  RetailerConfig cfg;
  cfg.inventory_rows = 100;
  cfg.locations = 5;
  cfg.dates = 10;
  cfg.products = 20;
  auto ds = RetailerDataset::Generate(cfg);
  EXPECT_EQ(ds->catalog.size(), 43u);
  EXPECT_EQ(ds->query->relation_count(), 5);
  EXPECT_EQ(ds->query->relation(ds->inventory).schema.size(), 4u);
  EXPECT_EQ(ds->query->relation(ds->location).schema.size(), 15u);
  EXPECT_EQ(ds->query->relation(ds->census).schema.size(), 16u);
  EXPECT_EQ(ds->query->relation(ds->item).schema.size(), 5u);
  EXPECT_EQ(ds->query->relation(ds->weather).schema.size(), 8u);
}

TEST(RetailerTest, VariableOrderValidAndComposed) {
  RetailerConfig cfg;
  cfg.inventory_rows = 10;
  cfg.locations = 3;
  cfg.dates = 4;
  cfg.products = 5;
  auto ds = RetailerDataset::Generate(cfg);
  EXPECT_TRUE(ds->vorder.finalized());

  // The paper's view tree for Retailer has 9 views: 5 over the input
  // relations, 3 intermediate (locn, dateid, ksn... zip), 1 root. With
  // chain composition our tree has 9 view nodes + 5 leaves.
  ViewTree tree(ds->query.get(), &ds->vorder);
  int views = 0;
  for (const auto& n : tree.nodes()) {
    if (n.relation < 0) ++views;
  }
  EXPECT_EQ(views, 9);
}

TEST(RetailerTest, JoinIsNonEmpty) {
  RetailerConfig cfg;
  cfg.inventory_rows = 500;
  cfg.locations = 5;
  cfg.dates = 10;
  cfg.products = 20;
  auto ds = RetailerDataset::Generate(cfg);

  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
  Database<I64Ring> db = MakeDatabase<I64Ring>(*ds->query);
  for (int r = 0; r < 5; ++r) {
    for (const Tuple& t : ds->tuples[r]) db[r].Add(t, 1);
  }
  engine.Initialize(db);
  ASSERT_EQ(engine.result().size(), 1u);
  // Every Inventory row joins with exactly one row of each dimension, so
  // the join count equals the Inventory multiset size.
  EXPECT_EQ(*engine.result().Find(Tuple()),
            static_cast<int64_t>(cfg.inventory_rows));
}

TEST(HousingTest, SchemaHas27Attributes) {
  HousingConfig cfg;
  cfg.postcodes = 10;
  auto ds = HousingDataset::Generate(cfg);
  EXPECT_EQ(ds->catalog.size(), 27u);
  EXPECT_EQ(ds->query->relation_count(), 6);
}

TEST(HousingTest, ScaleGrowsJoinCubically) {
  // Join count per postcode = scale^3 (House x Shop x Restaurant) with the
  // three singleton relations contributing factor 1.
  for (int scale : {1, 2, 3}) {
    HousingConfig cfg;
    cfg.postcodes = 20;
    cfg.scale = scale;
    auto ds = HousingDataset::Generate(cfg);

    ViewTree tree(ds->query.get(), &ds->vorder);
    tree.MaterializeAll();
    IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
    Database<I64Ring> db = MakeDatabase<I64Ring>(*ds->query);
    for (int r = 0; r < 6; ++r) {
      for (const Tuple& t : ds->tuples[r]) db[r].Add(t, 1);
    }
    engine.Initialize(db);
    int64_t expected = static_cast<int64_t>(cfg.postcodes) * scale * scale *
                       static_cast<int64_t>(scale);
    EXPECT_EQ(*engine.result().Find(Tuple()), expected) << "scale " << scale;
  }
}

TEST(HousingTest, TotalTuplesScaleRoughlyLinearly) {
  HousingConfig cfg;
  cfg.postcodes = 100;
  cfg.scale = 1;
  auto s1 = HousingDataset::Generate(cfg);
  cfg.scale = 4;
  auto s4 = HousingDataset::Generate(cfg);
  size_t t1 = 0, t4 = 0;
  for (const auto& rel : s1->tuples) t1 += rel.size();
  for (const auto& rel : s4->tuples) t4 += rel.size();
  // scale 1: 6 rows/postcode; scale 4: 3*4+3 = 15 rows/postcode.
  EXPECT_EQ(t1, 600u);
  EXPECT_EQ(t4, 1500u);
}

TEST(TwitterTest, EdgesSplitEvenly) {
  TwitterConfig cfg;
  cfg.nodes = 100;
  cfg.edges = 3000;
  auto ds = TwitterDataset::Generate(cfg);
  EXPECT_EQ(ds->tuples[0].size(), 1000u);
  EXPECT_EQ(ds->tuples[1].size(), 1000u);
  EXPECT_EQ(ds->tuples[2].size(), 1000u);
}

TEST(TwitterTest, TriangleCountMatchesNaive) {
  TwitterConfig cfg;
  cfg.nodes = 30;
  cfg.edges = 300;
  auto ds = TwitterDataset::Generate(cfg);

  ViewTree tree(ds->query.get(), &ds->vorder);
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
  Database<I64Ring> db = MakeDatabase<I64Ring>(*ds->query);
  for (int r = 0; r < 3; ++r) {
    for (const Tuple& t : ds->tuples[r]) db[r].Add(t, 1);
  }
  engine.Initialize(db);

  // Naive triangle count with multiplicities.
  int64_t expected = 0;
  db[0].ForEach([&](const Tuple& rab, const int64_t& m1) {
    db[1].ForEach([&](const Tuple& sbc, const int64_t& m2) {
      if (rab[1] != sbc[0]) return;
      db[2].ForEach([&](const Tuple& tca, const int64_t& m3) {
        if (sbc[1] == tca[0] && tca[1] == rab[0]) expected += m1 * m2 * m3;
      });
    });
  });
  const int64_t* got = engine.result().Find(Tuple());
  EXPECT_EQ(got ? *got : 0, expected);
}

TEST(StreamTest, RoundRobinInterleavesBatches) {
  std::vector<std::vector<Tuple>> rels(2);
  for (int64_t i = 0; i < 5; ++i) rels[0].push_back(Tuple::Ints({i}));
  for (int64_t i = 0; i < 3; ++i) rels[1].push_back(Tuple::Ints({100 + i}));
  auto stream = UpdateStream::RoundRobin(rels, 2);

  // Batches: R0[0,1], R1[100,101], R0[2,3], R1[102], R0[4].
  ASSERT_EQ(stream.batches().size(), 5u);
  EXPECT_EQ(stream.batches()[0].relation, 0);
  EXPECT_EQ(stream.batches()[1].relation, 1);
  EXPECT_EQ(stream.batches()[2].relation, 0);
  EXPECT_EQ(stream.batches()[3].relation, 1);
  EXPECT_EQ(stream.batches()[3].tuples.size(), 1u);
  EXPECT_EQ(stream.batches()[4].relation, 0);
  EXPECT_EQ(stream.total_tuples(), 8u);
}

TEST(StreamTest, SingleRelationStream) {
  std::vector<Tuple> tuples;
  for (int64_t i = 0; i < 10; ++i) tuples.push_back(Tuple::Ints({i}));
  auto stream = UpdateStream::SingleRelation(2, tuples, 4);
  ASSERT_EQ(stream.batches().size(), 3u);
  for (const auto& b : stream.batches()) EXPECT_EQ(b.relation, 2);
}

TEST(StreamTest, RebatchedPreservesOrderAndCutsAtRelationChanges) {
  std::vector<std::vector<Tuple>> rels(2);
  for (int64_t i = 0; i < 5; ++i) rels[0].push_back(Tuple::Ints({i}));
  for (int64_t i = 0; i < 3; ++i) rels[1].push_back(Tuple::Ints({100 + i}));
  auto stream = UpdateStream::RoundRobin(rels, 2);

  // Tuple-granular: one batch per tuple, same order as the source.
  auto per_tuple = stream.Rebatched(1);
  ASSERT_EQ(per_tuple.batches().size(), 8u);
  EXPECT_EQ(per_tuple.total_tuples(), 8u);
  EXPECT_EQ(per_tuple.batches()[0].tuples[0], Tuple::Ints({0}));
  EXPECT_EQ(per_tuple.batches()[2].relation, 1);
  EXPECT_EQ(per_tuple.batches()[2].tuples[0], Tuple::Ints({100}));

  // Growing the granularity merges adjacent same-relation batches but
  // never crosses a relation change: R0[0,1], R1[100,101], R0[2,3],
  // R1[102], R0[4] regrouped at 3 → R0[0,1], R1[100,101], R0[2,3],
  // R1[102], R0[4] (source batches of 2 can only merge up to the cut).
  auto coarser = stream.Rebatched(3);
  size_t tuples = 0;
  int prev_relation = -1;
  for (size_t i = 0; i < coarser.batches().size(); ++i) {
    const auto& b = coarser.batches()[i];
    EXPECT_LE(b.tuples.size(), 3u);
    if (static_cast<int>(i) > 0 && b.relation == prev_relation) {
      // A same-relation successor only exists when the previous batch
      // was full.
      EXPECT_EQ(coarser.batches()[i - 1].tuples.size(), 3u);
    }
    prev_relation = b.relation;
    tuples += b.tuples.size();
  }
  EXPECT_EQ(tuples, 8u);

  // batch_size 0 is clamped to 1 instead of looping forever.
  EXPECT_EQ(stream.Rebatched(0).batches().size(), 8u);
}

TEST(StreamTest, AdversarialSkewIsDeterministic) {
  UpdateStream::SkewConfig cfg;
  cfg.nodes = 100;
  cfg.updates = 5000;
  cfg.batch_size = 128;
  cfg.burst = 32;
  cfg.theta = 1.3;
  cfg.churn = 0.4;
  cfg.seed = 42;

  auto a = UpdateStream::AdversarialSkew(cfg);
  auto b = UpdateStream::AdversarialSkew(cfg);
  ASSERT_EQ(a.batches().size(), b.batches().size());
  ASSERT_EQ(a.total_tuples(), cfg.updates);
  for (size_t i = 0; i < a.batches().size(); ++i) {
    const auto& ba = a.batches()[i];
    const auto& bb = b.batches()[i];
    ASSERT_EQ(ba.relation, bb.relation) << "batch " << i;
    ASSERT_EQ(ba.tuples, bb.tuples) << "batch " << i;
    ASSERT_EQ(ba.signs, bb.signs) << "batch " << i;
    ASSERT_EQ(ba.signs.size(), ba.tuples.size()) << "batch " << i;
  }

  // A different seed reorders the stream.
  cfg.seed = 43;
  auto c = UpdateStream::AdversarialSkew(cfg);
  bool differs = c.batches().size() != a.batches().size();
  for (size_t i = 0; !differs && i < a.batches().size(); ++i) {
    differs = a.batches()[i].tuples != c.batches()[i].tuples ||
              a.batches()[i].signs != c.batches()[i].signs;
  }
  EXPECT_TRUE(differs);
}

TEST(StreamTest, AdversarialSkewMixesChurnAndRelations) {
  UpdateStream::SkewConfig cfg;
  cfg.nodes = 50;
  cfg.updates = 4000;
  cfg.theta = 1.2;
  cfg.churn = 0.5;
  cfg.seed = 7;

  auto stream = UpdateStream::AdversarialSkew(cfg);
  size_t inserts = 0, deletes = 0;
  std::array<size_t, 3> per_relation{};
  for (const auto& b : stream.batches()) {
    ASSERT_GE(b.relation, 0);
    ASSERT_LT(b.relation, 3);
    for (size_t i = 0; i < b.tuples.size(); ++i) {
      ASSERT_EQ(b.tuples[i].size(), 2u);
      if (b.signs[i] >= 0) {
        ++inserts;
      } else {
        ++deletes;
      }
      ++per_relation[static_cast<size_t>(b.relation)];
    }
  }
  EXPECT_EQ(inserts + deletes, cfg.updates);
  // Churn = 0.5 with warm pools: a healthy share of both kinds.
  EXPECT_GT(deletes, cfg.updates / 5);
  EXPECT_GT(inserts, cfg.updates / 5);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_GT(per_relation[r], 0u) << "relation " << r << " never updated";
  }
}

TEST(StreamTest, RebatchedPreservesSigns) {
  UpdateStream::SkewConfig cfg;
  cfg.nodes = 30;
  cfg.updates = 1000;
  cfg.batch_size = 100;
  cfg.churn = 0.5;
  cfg.seed = 5;
  auto stream = UpdateStream::AdversarialSkew(cfg);

  auto fine = stream.Rebatched(1);
  // Flatten both streams into (relation, tuple, sign) event sequences;
  // rebatching must preserve the exact event order.
  auto flatten = [](const UpdateStream& s) {
    std::vector<std::tuple<int, Tuple, int8_t>> out;
    for (const auto& b : s.batches()) {
      for (size_t i = 0; i < b.tuples.size(); ++i) {
        int8_t sign = b.signs.empty() ? int8_t{1} : b.signs[i];
        out.emplace_back(b.relation, b.tuples[i], sign);
      }
    }
    return out;
  };
  EXPECT_EQ(flatten(stream), flatten(fine));
  EXPECT_EQ(flatten(stream), flatten(stream.Rebatched(37)));
}

TEST(StreamTest, ToDeltaAggregatesDuplicates) {
  Catalog catalog;
  Query query(&catalog);
  query.AddRelation("R", Schema{catalog.Intern("A")});
  UpdateStream::Batch batch;
  batch.relation = 0;
  batch.tuples.push_back(Tuple::Ints({1}));
  batch.tuples.push_back(Tuple::Ints({1}));
  batch.tuples.push_back(Tuple::Ints({2}));
  auto delta = UpdateStream::ToDelta<I64Ring>(query, batch);
  EXPECT_EQ(*delta.Find(Tuple::Ints({1})), 2);
  EXPECT_EQ(*delta.Find(Tuple::Ints({2})), 1);
}

}  // namespace
}  // namespace fivm::workloads
