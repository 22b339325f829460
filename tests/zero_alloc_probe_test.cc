// Verifies the acceptance criterion of the zero-allocation probe path: with
// cached tuple hashes and TupleView-based heterogeneous lookup, the Join
// inner loop performs no heap allocation per probe. This binary links
// util/memhook_new.cc (see tests/CMakeLists.txt), so every operator new is
// counted by util::MemoryTracker.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/obs/metrics.h"
#include "src/serve/snapshot_server.h"
#include "src/rings/lifting.h"
#include "src/rings/ring.h"
#include "src/util/memory_tracker.h"
#include "src/util/rng.h"

namespace fivm {
namespace {

Relation<I64Ring> RandomRelation(const Schema& schema, size_t n,
                                 int64_t domain, util::Rng& rng) {
  Relation<I64Ring> rel(schema);
  for (size_t i = 0; i < n; ++i) {
    Tuple t;
    for (size_t c = 0; c < schema.size(); ++c) {
      t.Append(Value::Int(rng.UniformInt(0, domain - 1)));
    }
    rel.Add(std::move(t), 1);
  }
  return rel;
}

TEST(ZeroAllocProbeTest, HooksAreLinked) {
  ASSERT_TRUE(util::MemoryTracker::enabled())
      << "memhook_new.cc not linked into this test binary";
}

// The raw probe sequence of the Join inner loop — view construction, index
// probe, slot walk, payload test — allocates nothing, for inline (at most
// Tuple::kInlineValues values) keys and misses alike.
TEST(ZeroAllocProbeTest, SecondaryIndexProbeIsAllocationFree) {
  util::Rng rng(91);
  auto right = RandomRelation(Schema{1, 2}, 50000, 1 << 8, rng);
  auto left = RandomRelation(Schema{0, 1}, 1024, 1 << 9, rng);  // ~50% misses
  const auto& index = right.IndexOn(Schema{1});
  auto left_common = left.schema().PositionsOf(Schema{1});

  int64_t matches = 0;
  int64_t before = util::MemoryTracker::AllocationCount();
  left.ForEach([&](const Tuple& lk, const int64_t&) {
    const auto* slots = index.Probe(TupleView(lk, left_common));
    if (slots == nullptr) return;
    for (uint32_t slot : *slots) {
      if (!I64Ring::IsZero(right.PayloadAt(slot))) ++matches;
    }
  });
  int64_t after = util::MemoryTracker::AllocationCount();
  EXPECT_EQ(after - before, 0);
  EXPECT_GT(matches, 0);
}

// The per-thread count attributes allocations to the thread that made them:
// while another thread allocates 1000 times, the calling thread's count
// stays put and only the process-wide count moves. Per-step plan profiles
// rely on this to exclude concurrent shards, readers and the WAL.
TEST(ZeroAllocProbeTest, ThreadAllocationCountExcludesOtherThreads) {
  std::atomic<int> phase{0};  // 0 wait, 1 allocate, 2 done
  std::vector<std::unique_ptr<int>> kept;  // keeps the allocations observable
  std::thread other([&phase, &kept] {
    while (phase.load(std::memory_order_acquire) == 0) {
    }
    for (int i = 0; i < 1000; ++i) kept.push_back(std::make_unique<int>(i));
    phase.store(2, std::memory_order_release);
  });
  const int64_t mine0 = util::MemoryTracker::ThreadAllocationCount();
  const int64_t all0 = util::MemoryTracker::AllocationCount();
  phase.store(1, std::memory_order_release);
  while (phase.load(std::memory_order_acquire) != 2) {
  }
  const int64_t mine1 = util::MemoryTracker::ThreadAllocationCount();
  const int64_t all1 = util::MemoryTracker::AllocationCount();
  other.join();
  EXPECT_EQ(mine1 - mine0, 0);
  EXPECT_GE(all1 - all0, 1000);
  EXPECT_EQ(kept.size(), 1000u);

  // The calling thread's own allocations do count.
  kept.push_back(std::make_unique<int>(-1));
  EXPECT_GE(util::MemoryTracker::ThreadAllocationCount() - mine1, 1);
}

// Same property through the primary index: Relation::Find with a view key.
TEST(ZeroAllocProbeTest, PrimaryIndexViewFindIsAllocationFree) {
  util::Rng rng(92);
  auto right = RandomRelation(Schema{1, 2}, 50000, 1 << 8, rng);
  auto left = RandomRelation(Schema{0, 1, 2}, 1024, 1 << 8, rng);
  auto probe_pos = left.schema().PositionsOf(Schema{1, 2});

  int64_t hits = 0;
  int64_t before = util::MemoryTracker::AllocationCount();
  left.ForEach([&](const Tuple& lk, const int64_t&) {
    if (right.Find(TupleView(lk, probe_pos)) != nullptr) ++hits;
  });
  int64_t after = util::MemoryTracker::AllocationCount();
  EXPECT_EQ(after - before, 0);
  EXPECT_GT(hits, 0);
}

// Building a key of Tuple::kInlineValues values in a reused scratch tuple
// and adding it to a relation that already holds it (the hit path of every
// emit loop) allocates nothing: the values stay inline and Add copies the
// key only when it creates an entry.
TEST(ZeroAllocProbeTest, ThreeValueScratchKeyAndAddHitAllocateNothing) {
  Relation<I64Ring> rel(Schema{0, 1, 2});
  for (int64_t i = 0; i < 1024; ++i) rel.Add(Tuple::Ints({i, i + 1, i + 2}), 1);

  Tuple scratch;
  int64_t before = util::MemoryTracker::AllocationCount();
  for (int64_t i = 0; i < 1024; ++i) {
    scratch.Clear();
    for (int64_t c = 0; c < 3; ++c) scratch.Append(Value::Int(i + c));
    rel.Add(scratch, 1);
  }
  int64_t after = util::MemoryTracker::AllocationCount();
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(rel.size(), 1024u);
  EXPECT_EQ(*rel.Find(Tuple::Ints({5, 6, 7})), 2);
}

// A full Join whose probes all miss allocates nothing at all: the probe
// loop is allocation-free and no output entry is ever created.
TEST(ZeroAllocProbeTest, JoinWithNoMatchesAllocatesNothing) {
  util::Rng rng(93);
  Relation<I64Ring> right(Schema{1, 2});
  for (int64_t i = 0; i < 20000; ++i) {
    right.Add(Tuple::Ints({i, i}), 1);
  }
  Relation<I64Ring> left(Schema{0, 1});
  for (int64_t i = 0; i < 1024; ++i) {
    left.Add(Tuple::Ints({i, 1000000 + i}), 1);  // disjoint join keys
  }
  right.IndexOn(Schema{1});  // pre-built, as in steady-state maintenance

  int64_t before = util::MemoryTracker::AllocationCount();
  auto out = Join(left, right);
  int64_t after = util::MemoryTracker::AllocationCount();
  EXPECT_EQ(after - before, 0);
  EXPECT_TRUE(out.empty());
}

// The same no-match join through the fused ⊕_{1}(left ⊗ right), a
// secondary probe with a lifted marginalized variable: the output floor is
// reserved at the first match, so a join that never matches allocates
// nothing.
TEST(ZeroAllocProbeTest, JoinAndMarginalizeWithNoMatchesAllocatesNothing) {
  Relation<I64Ring> right(Schema{1, 2});
  for (int64_t i = 0; i < 20000; ++i) {
    right.Add(Tuple::Ints({i, i}), 1);
  }
  Relation<I64Ring> left(Schema{0, 1});
  for (int64_t i = 0; i < 1024; ++i) {
    left.Add(Tuple::Ints({i, 1000000 + i}), 1);  // disjoint join keys
  }
  right.IndexOn(Schema{1});  // pre-built, as in steady-state maintenance
  LiftingMap<I64Ring> lifts;
  lifts.Set(1, [](const Value& x) { return x.AsInt(); });

  int64_t before = util::MemoryTracker::AllocationCount();
  auto out = JoinAndMarginalize(left, right, Schema{1}, lifts);
  int64_t after = util::MemoryTracker::AllocationCount();
  EXPECT_EQ(after - before, 0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.schema(), (Schema{0, 2}));
}

// The SwissTable group-probe path (control-byte scan + H2 tag match before
// any cell load, hit and miss alike, through both the primary index and a
// FlatHashMap-backed secondary) performs zero heap allocations — the PR 1
// acceptance property, re-asserted over the PR 4 hash core.
TEST(ZeroAllocProbeTest, GroupProbePathIsAllocationFree) {
  util::Rng rng(95);
  auto rel = RandomRelation(Schema{0, 1}, 60000, 1 << 9, rng);
  // Build probe keys (half hits, half misses) and the secondary index
  // before counting.
  std::vector<Tuple> keys;
  keys.reserve(2048);
  for (int i = 0; i < 1024; ++i) {
    keys.push_back(Tuple::Ints({rng.UniformInt(0, (1 << 9) - 1),
                                rng.UniformInt(0, (1 << 9) - 1)}));
    keys.push_back(Tuple::Ints({rng.UniformInt(1 << 9, 1 << 10),
                                rng.UniformInt(1 << 9, 1 << 10)}));
  }
  const auto& sec = rel.IndexOn(Schema{1});
  auto pos1 = rel.schema().PositionsOf(Schema{1});

  int64_t hits = 0;
  int64_t before = util::MemoryTracker::AllocationCount();
  for (const Tuple& k : keys) {
    if (rel.Find(k) != nullptr) ++hits;
    if (sec.Probe(TupleView(k, pos1)) != nullptr) ++hits;
  }
  int64_t after = util::MemoryTracker::AllocationCount();
  EXPECT_EQ(after - before, 0);
  EXPECT_GT(hits, 0);
}

// The metrics record path — counter adds, histogram records, scoped
// timers, and the sampled probe-length cold path — allocates nothing: the
// src/obs/ cost-model contract that lets PR 7 instrument the engine's hot
// loops. Registry lookups (mutexed, allocating) belong at construction
// time and are done before counting starts.
TEST(ZeroAllocProbeTest, MetricRecordPathIsAllocationFree) {
  auto& reg = obs::MetricRegistry::Default();
  obs::Counter* counter = reg.GetCounter("zero_alloc.counter");
  obs::Histogram* hist = reg.GetHistogram("zero_alloc.hist");
  // Warm the per-thread shard assignment, the TSC calibration (first
  // RecordTicks busy-waits ~2ms against steady_clock) and the sampled
  // probe-length histogram, so only the steady-state record path is
  // counted.
  counter->Add(1);
  hist->RecordTicks(1000);  // triggers the one-time TSC calibration
  obs::SampleProbeLength(1);

  int64_t before = util::MemoryTracker::AllocationCount();
  for (uint64_t i = 0; i < 10000; ++i) {
    counter->Add(i);
    hist->Record(i * 37);
    obs::ScopedTimer t(hist);
    obs::SampleProbeLength(static_cast<uint32_t>(i & 7) + 1);
  }
  int64_t after = util::MemoryTracker::AllocationCount();
  EXPECT_EQ(after - before, 0);
  EXPECT_GE(hist->Count(), 20001u);  // Record + timer per iteration + warmup
}

// The snapshot-serving read path — epoch pin, version load, point lookups
// against (base ⊎ differential segments), unpin — allocates nothing and
// takes no lock, for hits and misses alike: the wait-free acceptance
// property of src/serve/. Exercised with live segments so the differential
// probe loop itself is covered, not just the merged-base fast path.
TEST(ZeroAllocProbeTest, SnapshotReadPathIsAllocationFree) {
  Catalog catalog;
  Query query(&catalog);
  VarId A = catalog.Intern("A"), B = catalog.Intern("B"),
        C = catalog.Intern("C");
  query.AddRelation("R", Schema{A, B});
  query.AddRelation("S", Schema{B, C});
  query.SetFreeVars(Schema{A});
  VariableOrder vo = VariableOrder::Auto(query);
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, {});
  Database<I64Ring> db = MakeDatabase<I64Ring>(query);
  engine.Initialize(db);

  util::Rng rng(96);
  auto apply = [&](int rel, size_t n, int64_t dom_x, int64_t dom_y) {
    Relation<I64Ring> delta(query.relation(rel).schema);
    for (size_t i = 0; i < n; ++i) {
      delta.Add(Tuple::Ints({rng.UniformInt(0, dom_x - 1),
                             rng.UniformInt(0, dom_y - 1)}),
                1);
    }
    engine.ApplyDelta(rel, std::move(delta));
  };
  apply(1, 512, 64, 64);
  apply(0, 8192, 2048, 64);
  serve::SnapshotServer<I64Ring> server(&engine);
  apply(0, 1024, 2048, 64);  // segment 1
  server.Publish();
  apply(0, 1024, 2048, 64);  // segment 2
  server.Publish();

  // Probe keys (hits and misses) built before counting starts.
  std::vector<Tuple> keys;
  keys.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    keys.push_back(Tuple::Ints({rng.UniformInt(0, 4095)}));
  }

  int64_t hits = 0;
  int64_t sum = 0;
  int64_t before = util::MemoryTracker::AllocationCount();
  for (int round = 0; round < 8; ++round) {
    auto snap = server.Acquire();
    int64_t out = 0;
    for (const Tuple& k : keys) {
      if (snap.Lookup(k, &out)) {
        ++hits;
        sum += out;
      }
    }
  }
  int64_t after = util::MemoryTracker::AllocationCount();
  EXPECT_EQ(after - before, 0);
  EXPECT_GT(hits, 0);
  EXPECT_GT(sum, 0);
  auto check = server.Acquire();
  EXPECT_EQ(check.segment_count(), 2u);  // the differential loop really ran
}

// With matches, allocations are due to output materialization only
// (amortized vector/table growth), not to probing: far fewer allocations
// than probes.
TEST(ZeroAllocProbeTest, JoinAllocationsAreOutputBound) {
  util::Rng rng(94);
  auto right = RandomRelation(Schema{1, 2}, 20000, 1 << 8, rng);
  auto left = RandomRelation(Schema{0, 1}, 4096, 1 << 8, rng);
  right.IndexOn(Schema{1});

  int64_t before = util::MemoryTracker::AllocationCount();
  auto out = Join(left, right);
  int64_t after = util::MemoryTracker::AllocationCount();
  EXPECT_GT(out.size(), 0u);
  // Amortized growth of the output entry vector + hash table: logarithmic
  // number of reallocations, each counted once. 100 is generous; the
  // pre-optimization code allocated at least one projected probe key per
  // left entry (4096+).
  EXPECT_LT(after - before, 100);
}

}  // namespace
}  // namespace fivm
