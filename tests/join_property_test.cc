// Randomized property test: the view-based (TupleView + secondary- or
// primary-index) fast paths of Join / JoinAndMarginalize must be key-for-key
// equal to a naive nested-loop reference, including in the presence of tombstoned
// entries inside index buckets and duplicate-prefix buckets (many entries
// sharing the join key).

#include <gtest/gtest.h>

#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/rings/lifting.h"
#include "src/rings/ring.h"
#include "src/util/rng.h"

namespace fivm {
namespace {

using Rel = Relation<I64Ring>;

struct RandomConfig {
  size_t left_size;
  size_t right_size;
  int64_t key_domain;   // small domain → duplicate-prefix buckets
  double tombstone_p;   // fraction of entries cancelled to zero
};

// Builds a random relation; with probability `tombstone_p` an entry is
// cancelled *after* the secondary index exists, leaving a dead slot in the
// index buckets that the probe path must skip.
Rel RandomRelation(const Schema& schema, const Schema& pre_index,
                   const RandomConfig& cfg, size_t n, util::Rng& rng) {
  Rel rel(schema);
  if (!pre_index.empty()) rel.IndexOn(pre_index);
  std::vector<Tuple> keys;
  for (size_t i = 0; i < n; ++i) {
    Tuple t;
    for (size_t c = 0; c < schema.size(); ++c) {
      t.Append(Value::Int(rng.UniformInt(0, cfg.key_domain - 1)));
    }
    keys.push_back(t);
    rel.Add(std::move(t), rng.UniformInt(1, 5));
  }
  for (const Tuple& k : keys) {
    if (rng.Bernoulli(cfg.tombstone_p)) {
      if (const int64_t* p = rel.Find(k)) rel.Add(k, -*p);
    }
  }
  return rel;
}

// Reference ⊗: nested loops, no indexes, no views. Mirrors the documented
// semantics of Join (output schema = left ++ right-private, payload
// Mul(left, right)).
Rel NaiveJoin(const Rel& left, const Rel& right) {
  Schema common = left.schema().Intersect(right.schema());
  Schema right_private = right.schema().Minus(common);
  Rel out(left.schema().Union(right_private));
  auto left_common = left.schema().PositionsOf(common);
  auto right_common = right.schema().PositionsOf(common);
  auto right_private_pos = right.schema().PositionsOf(right_private);
  left.ForEach([&](const Tuple& lk, const int64_t& lp) {
    right.ForEach([&](const Tuple& rk, const int64_t& rp) {
      for (size_t i = 0; i < left_common.size(); ++i) {
        if (lk[left_common[i]] != rk[right_common[i]]) return;
      }
      out.Add(lk.Concat(rk.Project(right_private_pos)), lp * rp);
    });
  });
  return out;
}

void ExpectSameRelation(const Rel& got, const Rel& want) {
  ASSERT_EQ(got.schema(), want.schema());
  EXPECT_EQ(got.size(), want.size());
  size_t checked = 0;
  want.ForEach([&](const Tuple& k, const int64_t& p) {
    const int64_t* q = got.Find(k);
    ASSERT_NE(q, nullptr) << "missing key " << k.ToString();
    EXPECT_EQ(*q, p) << "payload mismatch at " << k.ToString();
    ++checked;
  });
  EXPECT_EQ(checked, want.size());
}

TEST(JoinPropertyTest, JoinMatchesNaiveReference) {
  util::Rng rng(7001);
  for (int round = 0; round < 40; ++round) {
    RandomConfig cfg{
        /*left_size=*/static_cast<size_t>(rng.UniformInt(0, 120)),
        /*right_size=*/static_cast<size_t>(rng.UniformInt(0, 120)),
        /*key_domain=*/rng.UniformInt(2, 6),  // heavy duplicate prefixes
        /*tombstone_p=*/round % 3 == 0 ? 0.3 : 0.0,
    };
    Rel left = RandomRelation(Schema{0, 1}, Schema{}, cfg, cfg.left_size, rng);
    Rel right = RandomRelation(Schema{1, 2}, Schema{1}, cfg, cfg.right_size,
                               rng);
    ExpectSameRelation(Join(left, right), NaiveJoin(left, right));
  }
}

TEST(JoinPropertyTest, JoinOnCompositeKeyMatchesNaive) {
  util::Rng rng(7002);
  for (int round = 0; round < 25; ++round) {
    RandomConfig cfg{80, 80, rng.UniformInt(2, 4), 0.25};
    Rel left =
        RandomRelation(Schema{0, 1, 2}, Schema{}, cfg, cfg.left_size, rng);
    Rel right =
        RandomRelation(Schema{1, 2, 3}, Schema{1, 2}, cfg, cfg.right_size,
                       rng);
    ExpectSameRelation(Join(left, right), NaiveJoin(left, right));
  }
}

// Full-key join: right's schema is a permuted subset of left's, so every
// left entry has at most one partner, found through right's primary index.
TEST(JoinPropertyTest, FullKeyJoinOnPermutedSubsetMatchesNaive) {
  util::Rng rng(7006);
  for (int round = 0; round < 25; ++round) {
    RandomConfig cfg{
        static_cast<size_t>(rng.UniformInt(0, 120)),
        static_cast<size_t>(rng.UniformInt(0, 40)),
        rng.UniformInt(2, 6),
        round % 2 == 0 ? 0.3 : 0.0,
    };
    Rel left =
        RandomRelation(Schema{0, 1, 2}, Schema{}, cfg, cfg.left_size, rng);
    Rel right = RandomRelation(Schema{2, 0}, Schema{}, cfg, cfg.right_size,
                               rng);
    ExpectSameRelation(Join(left, right), NaiveJoin(left, right));
  }
}

TEST(JoinPropertyTest, CartesianProductMatchesNaive) {
  util::Rng rng(7003);
  RandomConfig cfg{30, 30, 5, 0.2};
  Rel left = RandomRelation(Schema{0}, Schema{}, cfg, cfg.left_size, rng);
  Rel right = RandomRelation(Schema{1}, Schema{}, cfg, cfg.right_size, rng);
  ExpectSameRelation(Join(left, right), NaiveJoin(left, right));
}

TEST(JoinPropertyTest, JoinAndMarginalizeMatchesNaiveComposition) {
  util::Rng rng(7004);
  LiftingMap<I64Ring> lifts;
  lifts.Set(1, [](const Value& x) { return x.AsInt() + 1; });
  lifts.Set(2, [](const Value& x) { return 2 * x.AsInt() - 1; });
  for (int round = 0; round < 40; ++round) {
    RandomConfig cfg{
        static_cast<size_t>(rng.UniformInt(0, 100)),
        static_cast<size_t>(rng.UniformInt(0, 100)),
        rng.UniformInt(2, 6),
        round % 2 == 0 ? 0.3 : 0.0,
    };
    Rel left = RandomRelation(Schema{0, 1}, Schema{}, cfg, cfg.left_size, rng);
    Rel right = RandomRelation(Schema{1, 2}, Schema{1}, cfg, cfg.right_size,
                               rng);
    // Reference: unfused join, then marginalization of the same variables
    // with the same liftings.
    Schema marg{1, 2};
    Rel want = Marginalize(NaiveJoin(left, right), marg, lifts);
    Rel got = JoinAndMarginalize(left, right, marg, lifts);
    ExpectSameRelation(got, want);
  }
}

TEST(JoinPropertyTest, MarginalizeAllVariablesToNullary) {
  util::Rng rng(7005);
  LiftingMap<I64Ring> lifts;
  lifts.Set(0, [](const Value& x) { return x.AsInt(); });
  RandomConfig cfg{60, 60, 4, 0.3};
  Rel left = RandomRelation(Schema{0, 1}, Schema{}, cfg, cfg.left_size, rng);
  Rel right = RandomRelation(Schema{1, 2}, Schema{1}, cfg, cfg.right_size,
                             rng);
  Schema marg{0, 1, 2};
  Rel want = Marginalize(NaiveJoin(left, right), marg, lifts);
  Rel got = JoinAndMarginalize(left, right, marg, lifts);
  ExpectSameRelation(got, want);
}

}  // namespace
}  // namespace fivm
