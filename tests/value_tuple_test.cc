#include <gtest/gtest.h>

#include "src/data/tuple.h"
#include "src/data/value.h"
#include "src/util/small_vector.h"

namespace fivm {
namespace {

TEST(ValueTest, IntRoundTrip) {
  Value v = Value::Int(42);
  EXPECT_EQ(v.kind(), Value::Kind::kInt);
  EXPECT_EQ(v.AsInt(), 42);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 42.0);
}

TEST(ValueTest, DoubleRoundTrip) {
  Value v = Value::Double(3.5);
  EXPECT_EQ(v.kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
}

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_EQ(v.kind(), Value::Kind::kInt);
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(ValueTest, EqualityDistinguishesKind) {
  // Int 1 and Double 1.0 are distinct key values: group-by keys are typed.
  EXPECT_NE(Value::Int(1), Value::Double(1.0));
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_EQ(Value::Double(1.5), Value::Double(1.5));
}

TEST(ValueTest, OrderingWithinKind) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Double(1.0), Value::Double(2.0));
}

TEST(ValueTest, HashDiffersForDifferentValues) {
  EXPECT_NE(Value::Int(1).Hash(), Value::Int(2).Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Double(1.0).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
}

TEST(TupleTest, EmptyTuple) {
  Tuple t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t, Tuple::Empty());
  EXPECT_EQ(t.ToString(), "()");
}

TEST(TupleTest, IntsFactory) {
  Tuple t = Tuple::Ints({1, 2, 3});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].AsInt(), 1);
  EXPECT_EQ(t[2].AsInt(), 3);
}

TEST(TupleTest, Equality) {
  EXPECT_EQ(Tuple::Ints({1, 2}), Tuple::Ints({1, 2}));
  EXPECT_NE(Tuple::Ints({1, 2}), Tuple::Ints({2, 1}));
  EXPECT_NE(Tuple::Ints({1}), Tuple::Ints({1, 2}));
}

TEST(TupleTest, HashConsistentWithEquality) {
  EXPECT_EQ(Tuple::Ints({1, 2}).Hash(), Tuple::Ints({1, 2}).Hash());
  EXPECT_NE(Tuple::Ints({1, 2}).Hash(), Tuple::Ints({2, 1}).Hash());
  EXPECT_NE(Tuple::Ints({}).Hash(), Tuple::Ints({0}).Hash());
}

TEST(TupleTest, Project) {
  Tuple t = Tuple::Ints({10, 20, 30, 40});
  util::SmallVector<uint32_t, 6> positions{2, 0};
  Tuple p = t.Project(positions);
  EXPECT_EQ(p, Tuple::Ints({30, 10}));
}

TEST(TupleTest, ProjectToEmpty) {
  Tuple t = Tuple::Ints({1});
  util::SmallVector<uint32_t, 6> positions;
  EXPECT_EQ(t.Project(positions), Tuple());
}

TEST(TupleTest, Concat) {
  Tuple a = Tuple::Ints({1, 2});
  Tuple b = Tuple::Ints({3});
  EXPECT_EQ(a.Concat(b), Tuple::Ints({1, 2, 3}));
  EXPECT_EQ(a.Concat(Tuple()), a);
  EXPECT_EQ(Tuple().Concat(b), b);
}

TEST(TupleTest, MixedKinds) {
  Tuple t{Value::Int(1), Value::Double(2.5)};
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.ToString(), "(1, 2.5)");
}

TEST(TupleTest, LexicographicOrder) {
  EXPECT_LT(Tuple::Ints({1, 2}), Tuple::Ints({1, 3}));
  EXPECT_LT(Tuple::Ints({1}), Tuple::Ints({1, 0}));
}

// Keys of up to Tuple::kInlineValues values stay inline; one more spills
// to the heap with values and cached hash intact.
TEST(TupleTest, FourthValueSpillsAndKeepsValuesAndHash) {
  Tuple t = Tuple::Ints({1, 2, 3});
  const Value* inline_values = t.begin();
  t.Append(Value::Int(4));
  EXPECT_NE(t.begin(), inline_values);
  EXPECT_EQ(t, Tuple::Ints({1, 2, 3, 4}));
  EXPECT_EQ(t.Hash(), Tuple::Ints({1, 2, 3, 4}).Hash());
  EXPECT_EQ(t.Hash(), (Tuple{Value::Int(1), Value::Int(2), Value::Int(3),
                             Value::Int(4)})
                          .Hash());
}

// A tuple can append one of its own values, also when that spills it.
TEST(TupleTest, AppendingOwnValueWhileFullKeepsValueAndHash) {
  Tuple t = Tuple::Ints({1, 2, 3});
  t.Append(t[0]);
  EXPECT_EQ(t, Tuple::Ints({1, 2, 3, 1}));
  EXPECT_EQ(t.Hash(), Tuple::Ints({1, 2, 3, 1}).Hash());
}

TEST(TupleTest, CopyLeavesInlineAndHeapSourcesIntact) {
  for (const Tuple& src : {Tuple::Ints({1, 2}), Tuple::Ints({1, 2, 3, 4, 5})}) {
    Tuple copy(src);
    Tuple assigned = Tuple::Ints({9, 9, 9, 9});
    assigned = src;
    EXPECT_EQ(copy, src);
    EXPECT_EQ(assigned, src);
    EXPECT_EQ(assigned.Hash(), src.Hash());
  }
}

// A moved-from tuple is the empty tuple, hash included, and can be refilled.
TEST(TupleTest, MoveLeavesInlineAndHeapSourcesEmptyAndReusable) {
  for (const Tuple& original :
       {Tuple::Ints({1, 2}), Tuple::Ints({1, 2, 3, 4, 5})}) {
    Tuple src = original;
    Tuple moved(std::move(src));
    EXPECT_EQ(moved, original);
    EXPECT_EQ(src, Tuple());
    src.Append(Value::Int(7));
    EXPECT_EQ(src, Tuple::Ints({7}));

    Tuple assigned = Tuple::Ints({9, 9, 9, 9});
    assigned = std::move(moved);
    EXPECT_EQ(assigned, original);
    EXPECT_EQ(moved, Tuple());
    moved.Append(Value::Int(8));
    EXPECT_EQ(moved, Tuple::Ints({8}));
  }
}

TEST(TupleTest, SelfAssignmentKeepsContentsAndHash) {
  for (const Tuple& original :
       {Tuple::Ints({1, 2}), Tuple::Ints({1, 2, 3, 4, 5})}) {
    Tuple t = original;
    Tuple& alias = t;
    t = alias;
    EXPECT_EQ(t, original);
    t = std::move(alias);
    EXPECT_EQ(t, original);
    EXPECT_EQ(t.Hash(), original.Hash());
  }
}

}  // namespace
}  // namespace fivm
