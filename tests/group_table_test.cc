// Differential fuzzing of the SwissTable hash core (util::GroupTable) and
// the structures rebased on it: randomized insert / erase / clear / rehash /
// move / Reset streams checked op-by-op against a std::unordered_map
// reference, SSE2-vs-scalar control-group equivalence, and the rehash
// accounting that proves presized bulk paths run rehash-free. Runs in the
// plain, Release, and sanitizer CI jobs (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/rings/ring.h"
#include "src/util/flat_hash_map.h"
#include "src/util/group_table.h"
#include "src/util/hash.h"
#include "src/util/memory_tracker.h"
#include "src/util/rng.h"

namespace fivm {
namespace {

struct IntHash {
  uint64_t operator()(int64_t x) const {
    return util::Mix64(static_cast<uint64_t>(x));
  }
};

using Map = util::FlatHashMap<int64_t, int64_t, IntHash>;
using Ref = std::unordered_map<int64_t, int64_t>;

void CheckAgainstReference(const Map& m, const Ref& ref) {
  ASSERT_EQ(m.size(), ref.size());
  size_t seen = 0;
  m.ForEach([&](const int64_t& k, const int64_t& v) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "stray key " << k;
    ASSERT_EQ(v, it->second) << "value mismatch for key " << k;
    ++seen;
  });
  ASSERT_EQ(seen, ref.size());
}

// The core differential stream: every operation the table supports, with a
// key domain small enough that collisions, tombstone reuse, and
// tombstone-purging rehashes all happen constantly. Structural operations
// (clear, Reserve, move, copy) are interleaved at low probability so the
// stream crosses every lifecycle edge many times.
TEST(GroupTableFuzzTest, DifferentialStreamAgainstUnorderedMap) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    util::Rng rng(seed);
    Map m;
    Ref ref;
    for (int step = 0; step < 60000; ++step) {
      int64_t key = static_cast<int64_t>(rng.Uniform(700));
      uint64_t op = rng.Uniform(100);
      if (op < 40) {  // upsert via operator[]
        m[key] += 1;
        ref[key] += 1;
      } else if (op < 55) {  // Insert (no overwrite)
        int64_t v = static_cast<int64_t>(rng.Uniform(1000));
        bool a = m.Insert(key, v);
        bool b = ref.emplace(key, v).second;
        ASSERT_EQ(a, b) << "insert mismatch at step " << step;
      } else if (op < 85) {  // erase-heavy: tombstones dominate
        bool a = m.Erase(key);
        bool b = ref.erase(key) > 0;
        ASSERT_EQ(a, b) << "erase mismatch at step " << step;
      } else if (op < 97) {  // point lookup
        const int64_t* found = m.Find(key);
        auto it = ref.find(key);
        if (it == ref.end()) {
          ASSERT_EQ(found, nullptr) << "find mismatch at step " << step;
        } else {
          ASSERT_NE(found, nullptr) << "find mismatch at step " << step;
          ASSERT_EQ(*found, it->second);
        }
      } else if (op < 98) {  // forced rehash
        m.Reserve(ref.size() * 2 + 64);
      } else if (op == 98) {  // move chain: source must stay usable
        Map moved(std::move(m));
        Map target;
        target = std::move(moved);
        ASSERT_EQ(m.size(), 0u);
        ASSERT_EQ(m.Find(key), nullptr);  // moved-from table answers sanely
        m = std::move(target);
      } else {  // clear
        m.clear();
        ref.clear();
      }
      ASSERT_EQ(m.size(), ref.size()) << "size drift at step " << step;
    }
    CheckAgainstReference(m, ref);
  }
}

// Erase-then-reinsert storms at fixed size: the table must reclaim
// tombstones through same-capacity purges rather than grow without bound.
TEST(GroupTableFuzzTest, TombstoneChurnDoesNotGrowTheTable) {
  util::Rng rng(44);
  Map m;
  Ref ref;
  for (int64_t i = 0; i < 500; ++i) {
    m.Insert(i, i);
    ref.emplace(i, i);
  }
  size_t bytes_after_warmup = 0;
  for (int round = 0; round < 200; ++round) {
    for (int n = 0; n < 300; ++n) {
      int64_t key = static_cast<int64_t>(rng.Uniform(500));
      if (m.Erase(key)) {
        ref.erase(key);
      } else {
        m.Insert(key, key);
        ref.emplace(key, key);
      }
    }
    if (round == 50) bytes_after_warmup = m.ApproxBytes();
  }
  CheckAgainstReference(m, ref);
  // Live size never exceeded 500 keys; the footprint must stay flat after
  // warmup (tombstone-free-on-rehash), not creep with churn.
  EXPECT_EQ(m.ApproxBytes(), bytes_after_warmup);
}

// Relation-level stream: SlotIndex (primary index over pooled entries) under
// Add with zero-crossing payloads (tombstoned entries stay indexed),
// Reset-and-refill (the scratch-slot lifecycle), compaction, and moves,
// against a reference map keyed by the same pairs.
TEST(GroupTableFuzzTest, RelationPrimaryIndexDifferentialStream) {
  for (uint64_t seed : {7u, 77u}) {
    util::Rng rng(seed);
    Relation<I64Ring> rel(Schema{0, 1});
    std::unordered_map<int64_t, int64_t> ref;  // key packed as a*1000+b
    auto pack = [](int64_t a, int64_t b) { return a * 1000 + b; };
    for (int step = 0; step < 40000; ++step) {
      int64_t a = static_cast<int64_t>(rng.Uniform(60));
      int64_t b = static_cast<int64_t>(rng.Uniform(60));
      uint64_t op = rng.Uniform(100);
      if (op < 55) {
        rel.Add(Tuple::Ints({a, b}), 1);
        if (++ref[pack(a, b)] == 0) ref.erase(pack(a, b));
      } else if (op < 80) {  // ring deletion: payload crosses zero
        rel.Add(Tuple::Ints({a, b}), -1);
        if (--ref[pack(a, b)] == 0) ref.erase(pack(a, b));
      } else if (op < 97) {
        const int64_t* p = rel.Find(Tuple::Ints({a, b}));
        auto it = ref.find(pack(a, b));
        if (it == ref.end()) {
          ASSERT_EQ(p, nullptr) << "find mismatch at step " << step;
        } else {
          ASSERT_NE(p, nullptr) << "find mismatch at step " << step;
          ASSERT_EQ(*p, it->second);
        }
      } else if (op < 98) {  // move chain; moved-from must stay coherent
        Relation<I64Ring> tmp(std::move(rel));
        ASSERT_EQ(rel.size(), 0u);
        rel.Add(Tuple::Ints({a, b}), 5);  // refill the moved-from shell
        rel = std::move(tmp);             // and discard it again
        if (rel.size() != ref.size()) FAIL() << "move lost entries";
      } else {  // scratch lifecycle: Reset keeps capacity, drops contents
        rel.Reset(Schema{0, 1});
        ref.clear();
      }
      ASSERT_EQ(rel.size(), ref.size()) << "size drift at step " << step;
    }
    size_t seen = 0;
    rel.ForEach([&](const Tuple& k, const int64_t& v) {
      auto it = ref.find(pack(k[0].AsInt(), k[1].AsInt()));
      ASSERT_NE(it, ref.end());
      ASSERT_EQ(v, it->second);
      ++seen;
    });
    ASSERT_EQ(seen, ref.size());
  }
}

// The portable SWAR group must agree with the SSE2 group on every sentinel
// scan, and its H2 match must be a superset of the true matches (the
// documented false-positive allowance — callers always confirm with a full
// hash/key comparison) that still contains every real match.
TEST(GroupTableFuzzTest, ScalarGroupMatchesSse2Semantics) {
  util::Rng rng(55);
  int8_t bytes[util::kGroupWidth];
  for (int round = 0; round < 2000; ++round) {
    for (auto& b : bytes) {
      uint64_t pick = rng.Uniform(10);
      if (pick == 0) {
        b = util::kCtrlEmpty;
      } else if (pick == 1) {
        b = util::kCtrlDeleted;
      } else {
        b = static_cast<int8_t>(rng.Uniform(128));
      }
    }
    util::ScalarGroup scalar(bytes);
    uint32_t true_empty = 0, true_any = 0;
    for (size_t i = 0; i < util::kGroupWidth; ++i) {
      if (bytes[i] == util::kCtrlEmpty) true_empty |= 1u << i;
      if (bytes[i] < 0) true_any |= 1u << i;
    }
    ASSERT_EQ(scalar.MatchEmpty(), true_empty);
    ASSERT_EQ(scalar.MatchEmptyOrDeleted(), true_any);
#if defined(FIVM_GROUP_TABLE_SSE2)
    util::SseGroup sse(bytes);
    ASSERT_EQ(sse.MatchEmpty(), true_empty);
    ASSERT_EQ(sse.MatchEmptyOrDeleted(), true_any);
#endif
    for (int h2 = 0; h2 < 128; h2 += 7) {
      uint32_t truth = 0;
      for (size_t i = 0; i < util::kGroupWidth; ++i) {
        if (bytes[i] == h2) truth |= 1u << i;
      }
#if defined(FIVM_GROUP_TABLE_SSE2)
      ASSERT_EQ(sse.Match(static_cast<int8_t>(h2)), truth);
#endif
      uint32_t scalar_match = scalar.Match(static_cast<int8_t>(h2));
      ASSERT_EQ(scalar_match & truth, truth)
          << "scalar group missed a real match";
    }
  }
}

// Presize proofs for the rehash counter (MemoryTracker::RehashCount counts
// in every binary — no allocator hooks needed): a reserved table absorbs its
// advertised size with zero growth rehashes, and a presized bulk absorb
// rehashes at most once (its own up-front presize).
TEST(GroupTableFuzzTest, ReserveMakesBulkInsertRehashFree) {
  Map m;
  m.Reserve(20000);
  int64_t before = util::MemoryTracker::RehashCount();
  for (int64_t i = 0; i < 20000; ++i) m.Insert(i, i);
  EXPECT_EQ(util::MemoryTracker::RehashCount() - before, 0);
}

TEST(GroupTableFuzzTest, PresizedAbsorbRehashesAtMostOnce) {
  Relation<I64Ring> store(Schema{0, 1});
  Relation<I64Ring> delta(Schema{0, 1});
  for (int64_t i = 0; i < 30000; ++i) store.Add(Tuple::Ints({i, i}), 1);
  for (int64_t i = 20000; i < 50000; ++i) delta.Add(Tuple::Ints({i, i}), 1);
  int64_t before = util::MemoryTracker::RehashCount();
  AbsorbInto(store, std::move(delta));
  // One up-front index presize (ReserveForAbsorb); never a mid-absorb
  // growth rehash.
  EXPECT_LE(util::MemoryTracker::RehashCount() - before, 1);
  EXPECT_EQ(store.size(), 50000u);
}

// The copying and the consuming AbsorbInto overloads must agree on a delta
// large enough for the presize path, with overlapping keys, keys whose
// payload cancels against the store, and tombstones inside the delta. The
// consuming overload presizes once up front and never rehashes mid-absorb.
TEST(GroupTableFuzzTest, AbsorbOverloadsAgreeOnZeroCrossingDelta) {
  util::Rng rng(66);
  Relation<I64Ring> base(Schema{0, 1});
  Relation<I64Ring> delta(Schema{0, 1});
  for (int64_t i = 0; i < 20000; ++i) {
    base.Add(Tuple::Ints({i, i % 97}), 1 + static_cast<int64_t>(rng.Uniform(5)));
  }
  // Zero-crossing keys: the delta cancels their base payload.
  for (int64_t i = 14000; i < 15000; ++i) {
    Tuple key = Tuple::Ints({i, i % 97});
    delta.Add(key, -*base.Find(key));
  }
  for (int64_t i = 15000; i < 40000; ++i) {
    delta.Add(Tuple::Ints({i, i % 97}), 1);
  }
  // Tombstones inside the delta itself.
  for (int64_t i = 15000; i < 15200; ++i) {
    delta.Add(Tuple::Ints({i, i % 97}), -1);
  }
  ASSERT_GE(delta.size(), kPresizeAbsorbMinKeys);

  Relation<I64Ring> copied = base;
  AbsorbInto(copied, delta);
  Relation<I64Ring> consumed = base;
  int64_t before = util::MemoryTracker::RehashCount();
  AbsorbInto(consumed, Relation<I64Ring>(delta));
  EXPECT_LE(util::MemoryTracker::RehashCount() - before, 1);

  EXPECT_TRUE(ContentEquals(copied, consumed));
  // 20000 base keys - 1000 cancelled + 20000 new.
  EXPECT_EQ(consumed.size(), 39000u);
  EXPECT_EQ(consumed.Find(Tuple::Ints({14500, 14500 % 97})), nullptr);
}

}  // namespace
}  // namespace fivm
