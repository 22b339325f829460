// The cached-hash invariant: Tuple::Hash() must always equal the left-fold
// of value hashes, no matter how the tuple was built (constructor, Append,
// Project, Concat, Clear-and-reuse) — and TupleView must hash and compare
// exactly like the owning tuple it stands for. Relation compaction rebuilds
// its indexes from those cached hashes, so it is covered here too.

#include "src/data/tuple.h"

#include <gtest/gtest.h>

#include "src/data/relation.h"
#include "src/rings/ring.h"
#include "src/util/rng.h"
#include "src/util/small_vector.h"

namespace fivm {
namespace {

Tuple RandomTuple(util::Rng& rng, size_t n) {
  Tuple t;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      t.Append(Value::Double(rng.UniformDouble(-100.0, 100.0)));
    } else {
      t.Append(Value::Int(rng.UniformInt(-1000, 1000)));
    }
  }
  return t;
}

// Reference: rebuild an identical tuple from scratch; equal values must give
// an equal (freshly computed) hash.
Tuple Rebuilt(const Tuple& t) {
  Tuple out;
  for (const Value& v : t) out.Append(v);
  return out;
}

TEST(TupleHashTest, ConstructorsAgreeWithAppend) {
  Tuple a{Value::Int(1), Value::Double(2.5), Value::Int(-3)};
  Tuple b;
  b.Append(Value::Int(1));
  b.Append(Value::Double(2.5));
  b.Append(Value::Int(-3));
  Tuple::Values vals;
  vals.push_back(Value::Int(1));
  vals.push_back(Value::Double(2.5));
  vals.push_back(Value::Int(-3));
  Tuple c{std::move(vals)};
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.Hash(), c.Hash());
  EXPECT_NE(a.Hash(), Tuple::Ints({0}).Hash());
}

TEST(TupleHashTest, ProjectPreservesHashInvariant) {
  util::Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 7));
    Tuple t = RandomTuple(rng, n);
    util::SmallVector<uint32_t, 6> positions;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.6)) {
        positions.push_back(static_cast<uint32_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
      }
    }
    Tuple proj = t.Project(positions);
    EXPECT_EQ(proj.Hash(), Rebuilt(proj).Hash());
  }
}

TEST(TupleHashTest, ConcatPreservesHashInvariant) {
  util::Rng rng(43);
  for (int round = 0; round < 200; ++round) {
    Tuple a = RandomTuple(rng, static_cast<size_t>(rng.UniformInt(0, 5)));
    Tuple b = RandomTuple(rng, static_cast<size_t>(rng.UniformInt(0, 5)));
    Tuple cat = a.Concat(b);
    EXPECT_EQ(cat.Hash(), Rebuilt(cat).Hash());
    EXPECT_EQ(cat.size(), a.size() + b.size());
  }
}

TEST(TupleHashTest, ClearResetsToEmptyHash) {
  Tuple t = Tuple::Ints({1, 2, 3, 4, 5, 6});  // spills inline storage
  t.Clear();
  EXPECT_EQ(t.Hash(), Tuple().Hash());
  EXPECT_TRUE(t.empty());
  // Reuse after Clear rebuilds the same hash as a fresh tuple.
  t.Append(Value::Int(7));
  t.Append(Value::Int(8));
  EXPECT_EQ(t.Hash(), Tuple::Ints({7, 8}).Hash());
  EXPECT_EQ(t, Tuple::Ints({7, 8}));
}

TEST(TupleHashTest, EqualTuplesEqualHashes) {
  util::Rng rng(44);
  for (int round = 0; round < 100; ++round) {
    Tuple t = RandomTuple(rng, static_cast<size_t>(rng.UniformInt(0, 6)));
    EXPECT_EQ(t, Rebuilt(t));
    EXPECT_EQ(t.Hash(), Rebuilt(t).Hash());
  }
}

TEST(TupleHashTest, ViewMatchesOwningProjection) {
  util::Rng rng(45);
  for (int round = 0; round < 200; ++round) {
    size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 7));
    Tuple t = RandomTuple(rng, n);
    util::SmallVector<uint32_t, 6> positions;
    size_t k = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n)));
    for (size_t i = 0; i < k; ++i) {
      positions.push_back(static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
    }
    TupleView view(t, positions);
    Tuple owned = t.Project(positions);
    EXPECT_EQ(view.Hash(), owned.Hash());
    EXPECT_TRUE(owned == view);
    EXPECT_TRUE(view == owned);
    EXPECT_EQ(view.ToTuple(), owned);
    EXPECT_EQ(view.ToTuple().Hash(), owned.Hash());
  }
}

TEST(TupleHashTest, ViewInequality) {
  Tuple t = Tuple::Ints({1, 2, 3});
  util::SmallVector<uint32_t, 6> pos{0, 1};
  TupleView view(t, pos);
  EXPECT_FALSE(Tuple::Ints({1}) == view);        // size mismatch
  EXPECT_FALSE(Tuple::Ints({1, 3}) == view);     // value mismatch
  EXPECT_TRUE(Tuple::Ints({1, 2}) == view);
}

TEST(TupleHashTest, IntAndDoubleValuesHashDistinctly) {
  // Group-by semantics: Int(1) and Double(1.0) are distinct keys, and their
  // cached hashes must be too (kind is mixed into the value hash).
  Tuple a{Value::Int(1)};
  Tuple b{Value::Double(1.0)};
  EXPECT_NE(a, b);
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(TupleHashTest, CompactionKeepsProbesConsistent) {
  // Compaction re-homes entries using cached key hashes; lookups with both
  // fresh tuples and views must still land on the surviving entries.
  Relation<I64Ring> r(Schema{0, 1});
  r.IndexOn(Schema{1});
  for (int64_t i = 0; i < 1000; ++i) r.Add(Tuple::Ints({i, i % 7}), 1);
  for (int64_t i = 0; i < 900; ++i) r.Add(Tuple::Ints({i, i % 7}), -1);
  ASSERT_EQ(r.size(), 100u);
  util::SmallVector<uint32_t, 6> identity{0, 1};
  for (int64_t i = 900; i < 1000; ++i) {
    Tuple key = Tuple::Ints({i, i % 7});
    ASSERT_NE(r.Find(key), nullptr) << i;
    TupleView view(key, identity);
    ASSERT_NE(r.Find(view), nullptr) << i;
  }
  const auto& idx = r.IndexOn(Schema{1});
  size_t live = 0;
  for (int64_t g = 0; g < 7; ++g) {
    const auto* slots = idx.Probe(Tuple::Ints({g}));
    if (slots == nullptr) continue;
    for (uint32_t s : *slots) {
      if (!I64Ring::IsZero(r.PayloadAt(s))) ++live;
    }
  }
  EXPECT_EQ(live, 100u);
}

}  // namespace
}  // namespace fivm
