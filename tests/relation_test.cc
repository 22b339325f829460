#include "src/data/relation.h"

#include <gtest/gtest.h>

#include "src/rings/ring.h"
#include "src/util/rng.h"

namespace fivm {
namespace {

TEST(RelationTest, AddAndFind) {
  Relation<I64Ring> r(Schema{0, 1});
  r.Add(Tuple::Ints({1, 2}), 3);
  r.Add(Tuple::Ints({1, 2}), 4);
  r.Add(Tuple::Ints({5, 6}), 1);
  EXPECT_EQ(r.size(), 2u);
  ASSERT_NE(r.Find(Tuple::Ints({1, 2})), nullptr);
  EXPECT_EQ(*r.Find(Tuple::Ints({1, 2})), 7);
  EXPECT_EQ(r.Find(Tuple::Ints({9, 9})), nullptr);
}

TEST(RelationTest, ZeroDeltaIsIgnored) {
  Relation<I64Ring> r(Schema{0});
  r.Add(Tuple::Ints({1}), 0);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, CancellationTombstones) {
  Relation<I64Ring> r(Schema{0});
  r.Add(Tuple::Ints({1}), 5);
  r.Add(Tuple::Ints({1}), -5);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.Find(Tuple::Ints({1})), nullptr);
  // Revival after cancellation.
  r.Add(Tuple::Ints({1}), 2);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(*r.Find(Tuple::Ints({1})), 2);
}

TEST(RelationTest, ForEachSkipsDead) {
  Relation<I64Ring> r(Schema{0});
  for (int64_t i = 0; i < 10; ++i) r.Add(Tuple::Ints({i}), 1);
  for (int64_t i = 0; i < 10; i += 2) r.Add(Tuple::Ints({i}), -1);
  int64_t seen = 0;
  r.ForEach([&](const Tuple& t, const int64_t& p) {
    EXPECT_EQ(t[0].AsInt() % 2, 1);
    seen += p;
  });
  EXPECT_EQ(seen, 5);
}

TEST(RelationTest, UnionWith) {
  Relation<I64Ring> a(Schema{0});
  Relation<I64Ring> b(Schema{0});
  a.Add(Tuple::Ints({1}), 1);
  b.Add(Tuple::Ints({1}), 2);
  b.Add(Tuple::Ints({2}), 3);
  a.UnionWith(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(*a.Find(Tuple::Ints({1})), 3);
  EXPECT_EQ(*a.Find(Tuple::Ints({2})), 3);
}

TEST(RelationTest, SecondaryIndexProbe) {
  Relation<I64Ring> r(Schema{0, 1, 2});
  r.Add(Tuple::Ints({1, 10, 100}), 1);
  r.Add(Tuple::Ints({1, 20, 200}), 1);
  r.Add(Tuple::Ints({2, 10, 300}), 1);
  const auto& idx = r.IndexOn(Schema{0});
  const auto* slots = idx.Probe(Tuple::Ints({1}));
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(slots->size(), 2u);
  EXPECT_EQ(idx.Probe(Tuple::Ints({3})), nullptr);
}

TEST(RelationTest, SecondaryIndexMaintainedOnInsert) {
  Relation<I64Ring> r(Schema{0, 1});
  r.Add(Tuple::Ints({1, 10}), 1);
  const auto& idx = r.IndexOn(Schema{0});
  EXPECT_EQ(idx.Probe(Tuple::Ints({1}))->size(), 1u);
  r.Add(Tuple::Ints({1, 20}), 1);
  // Re-fetch: compaction may rebuild indexes.
  const auto& idx2 = r.IndexOn(Schema{0});
  EXPECT_EQ(idx2.Probe(Tuple::Ints({1}))->size(), 2u);
}

TEST(RelationTest, SecondaryIndexOnMiddleColumn) {
  Relation<I64Ring> r(Schema{7, 8, 9});
  r.Add(Tuple::Ints({1, 2, 3}), 1);
  r.Add(Tuple::Ints({4, 2, 6}), 1);
  const auto& idx = r.IndexOn(Schema{8});
  const auto* slots = idx.Probe(Tuple::Ints({2}));
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(slots->size(), 2u);
}

TEST(RelationTest, CompactionPreservesContents) {
  Relation<I64Ring> r(Schema{0});
  // Insert then delete most entries to trigger compaction.
  for (int64_t i = 0; i < 1000; ++i) r.Add(Tuple::Ints({i}), 1);
  for (int64_t i = 0; i < 900; ++i) r.Add(Tuple::Ints({i}), -1);
  EXPECT_EQ(r.size(), 100u);
  for (int64_t i = 900; i < 1000; ++i) {
    ASSERT_NE(r.Find(Tuple::Ints({i})), nullptr) << i;
  }
  for (int64_t i = 0; i < 900; ++i) {
    ASSERT_EQ(r.Find(Tuple::Ints({i})), nullptr) << i;
  }
}

TEST(RelationTest, CompactionRebuildsSecondaryIndexes) {
  Relation<I64Ring> r(Schema{0, 1});
  r.IndexOn(Schema{1});
  for (int64_t i = 0; i < 1000; ++i) r.Add(Tuple::Ints({i, i % 5}), 1);
  for (int64_t i = 0; i < 990; ++i) r.Add(Tuple::Ints({i, i % 5}), -1);
  const auto& idx = r.IndexOn(Schema{1});
  size_t total = 0;
  for (int64_t g = 0; g < 5; ++g) {
    const auto* slots = idx.Probe(Tuple::Ints({g}));
    if (slots == nullptr) continue;
    for (uint32_t s : *slots) {
      if (!I64Ring::IsZero(r.PayloadAt(s))) ++total;
    }
  }
  EXPECT_EQ(total, 10u);
}

TEST(RelationTest, DoubleRingPayloads) {
  Relation<F64Ring> r(Schema{0});
  r.Add(Tuple::Ints({1}), 0.5);
  r.Add(Tuple::Ints({1}), 0.25);
  EXPECT_DOUBLE_EQ(*r.Find(Tuple::Ints({1})), 0.75);
}

TEST(RelationTest, EmptySchemaNullaryRelation) {
  Relation<I64Ring> r(Schema{});
  r.Add(Tuple(), 42);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(*r.Find(Tuple()), 42);
}

TEST(RelationTest, ApproxBytesGrows) {
  Relation<I64Ring> r(Schema{0});
  size_t before = r.ApproxBytes();
  for (int64_t i = 0; i < 100; ++i) r.Add(Tuple::Ints({i}), 1);
  EXPECT_GT(r.ApproxBytes(), before);
}

// Keys wider than Tuple::kInlineValues keep their values on the heap, and
// ApproxBytes counts them: a 4-value key costs 4 values more than a 3-value
// one in an otherwise identical relation.
TEST(RelationTest, ApproxBytesCountsSpilledFourValueKeys) {
  Relation<I64Ring> r3(Schema{0, 1, 2});
  Relation<I64Ring> r4(Schema{0, 1, 2, 3});
  r3.Add(Tuple::Ints({1, 2, 3}), 1);
  r4.Add(Tuple::Ints({1, 2, 3, 4}), 1);
  EXPECT_EQ(r4.ApproxBytes() - r3.ApproxBytes(), 4 * sizeof(Value));
}

}  // namespace
}  // namespace fivm
