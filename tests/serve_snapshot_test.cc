// Versioned snapshot serving over IVM view stores (src/serve/): epoch-pinned
// snapshots, publish-per-batch visibility, differential segments, ordered
// merges, and deferred reclamation. Mostly single-threaded semantics here;
// the concurrent reader/writer fuzz lives in serve_concurrent_test.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/relation_ops.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/parallel_executor.h"
#include "src/exec/thread_pool.h"
#include "src/rings/ring.h"
#include "src/serve/epoch.h"
#include "src/serve/snapshot_server.h"
#include "src/util/fail_point.h"
#include "src/util/rng.h"

namespace fivm::serve {
namespace {

using Rel = Relation<I64Ring>;
using Server = SnapshotServer<I64Ring>;

/// Q(A) = Σ_{B,C} R(A,B) ⋈ S(B,C) over the counting ring: a keyed root
/// store (group-by A) with one sibling join on the propagation path.
struct Fixture {
  Fixture() {
    A = catalog.Intern("A");
    B = catalog.Intern("B");
    C = catalog.Intern("C");
    query.AddRelation("R", Schema{A, B});
    query.AddRelation("S", Schema{B, C});
    query.SetFreeVars(Schema{A});
    vo = VariableOrder::Auto(query);
    tree.emplace(&query, &vo);
    tree->MaterializeAll();
    engine.emplace(&*tree, LiftingMap<I64Ring>{});
    Database<I64Ring> db = MakeDatabase<I64Ring>(query);
    engine->Initialize(db);
  }

  /// Applies {±1 · rows} to relation `rel` through the sequential engine.
  void Apply(int rel, std::vector<std::pair<int64_t, int64_t>> rows,
             int64_t mult = 1) {
    Rel delta(query.relation(rel).schema);
    for (auto [x, y] : rows) delta.Add(Tuple::Ints({x, y}), mult);
    engine->ApplyDelta(rel, std::move(delta));
  }

  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C;
  VariableOrder vo;
  std::optional<ViewTree> tree;
  std::optional<IvmEngine<I64Ring>> engine;
};

int64_t LookupCount(const Server::Snapshot& snap, int64_t a) {
  int64_t out = 0;
  return snap.Lookup(Tuple::Ints({a}), &out) ? out : 0;
}

TEST(SnapshotServerTest, ConstructionFreezesCurrentStoreState) {
  Fixture f;
  f.Apply(0, {{1, 10}, {2, 10}});
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);

  auto snap = server.Acquire();
  EXPECT_EQ(snap.seq(), 0u);
  EXPECT_EQ(snap.segment_count(), 0u);
  EXPECT_EQ(snap.base_gen(), 0u);
  EXPECT_EQ(LookupCount(snap, 1), 1);
  EXPECT_EQ(LookupCount(snap, 2), 1);
  EXPECT_EQ(LookupCount(snap, 3), 0);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, UpdatesInvisibleUntilPublish) {
  Fixture f;
  f.Apply(0, {{1, 10}});
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);

  // Delta absorbed by the engine but not yet published: staged only.
  f.Apply(0, {{2, 10}});
  auto before = server.Acquire();
  EXPECT_EQ(before.seq(), 0u);
  EXPECT_EQ(LookupCount(before, 2), 0);

  uint64_t seq = server.Publish();
  EXPECT_EQ(seq, 1u);
  auto after = server.Acquire();
  EXPECT_EQ(after.seq(), 1u);
  EXPECT_EQ(LookupCount(after, 2), 1);
  EXPECT_EQ(after.segment_count(), 1u);

  // The earlier snapshot still reads its pinned version.
  EXPECT_EQ(LookupCount(before, 2), 0);
  EXPECT_EQ(before.segment_count(), 0u);
  EXPECT_EQ(server.PublishCount(), 1u);

  // Publishing with nothing staged does not advance the sequence.
  EXPECT_EQ(server.Publish(), 1u);
  EXPECT_EQ(server.PublishCount(), 1u);
}

TEST(SnapshotServerTest, LookupSumsBaseAndAllSegments) {
  Fixture f;
  f.Apply(1, {{10, 5}});
  f.Apply(0, {{1, 10}});  // base: Q(1) = 1
  Server server(&*f.engine);

  f.Apply(0, {{1, 10}});  // segment 1: +1
  server.Publish();
  f.Apply(0, {{1, 10}});  // segment 2: +1
  server.Publish();

  auto snap = server.Acquire();
  EXPECT_EQ(snap.segment_count(), 2u);
  EXPECT_EQ(LookupCount(snap, 1), 3);
  EXPECT_EQ(snap.Size(), 1u);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, DeleteInSegmentCancelsBaseKey) {
  Fixture f;
  f.Apply(1, {{10, 5}});
  f.Apply(0, {{1, 10}, {2, 10}});
  Server server(&*f.engine);

  f.Apply(0, {{1, 10}}, /*mult=*/-1);  // delete group 1 entirely
  server.Publish();

  auto snap = server.Acquire();
  int64_t absent = 0;
  EXPECT_FALSE(snap.Lookup(Tuple::Ints({1}), &absent));
  EXPECT_EQ(LookupCount(snap, 2), 1);
  EXPECT_EQ(snap.Size(), 1u);
  size_t seen = 0;
  snap.ForEach([&](const Tuple& k, const int64_t& v) {
    EXPECT_EQ(k[0].AsInt(), 2);
    EXPECT_EQ(v, 1);
    ++seen;
  });
  EXPECT_EQ(seen, 1u);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, InsertThenDeleteAcrossSegmentsStaysDead) {
  Fixture f;
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);

  f.Apply(0, {{7, 10}});
  server.Publish();
  f.Apply(0, {{7, 10}}, /*mult=*/-1);
  server.Publish();

  auto snap = server.Acquire();
  EXPECT_EQ(snap.segment_count(), 2u);
  int64_t absent = 0;
  EXPECT_FALSE(snap.Lookup(Tuple::Ints({7}), &absent));
  EXPECT_EQ(snap.Size(), 0u);
  snap.ForEach([](const Tuple&, const int64_t&) { FAIL(); });
}

TEST(SnapshotServerTest, MergeFoldsSegmentsIntoNextGeneration) {
  Fixture f;
  f.Apply(1, {{10, 5}, {11, 6}});
  f.Apply(0, {{1, 10}});
  Server server(&*f.engine);

  for (int64_t a = 2; a <= 5; ++a) {
    f.Apply(0, {{a, 10}, {a, 11}});
    server.Publish();
  }
  EXPECT_EQ(server.SegmentCount(), 4u);

  EXPECT_EQ(server.MergeNow(), 1u);
  EXPECT_EQ(server.MergeCount(), 1u);
  EXPECT_GT(server.MergedKeys(), 0u);

  auto snap = server.Acquire();
  EXPECT_EQ(snap.segment_count(), 0u);
  EXPECT_EQ(snap.base_gen(), 1u);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
  EXPECT_EQ(LookupCount(snap, 3), 2);

  // Nothing differential left: another merge is a no-op.
  EXPECT_EQ(server.MergeNow(), 0u);
}

/// Applies `rows` random R(A, 10) insertions over A in [0, domain) and
/// publishes them as one segment.
void PublishRandomBatch(Fixture& f, Server& server, util::Rng& rng,
                        int rows, int64_t domain) {
  std::vector<std::pair<int64_t, int64_t>> batch;
  for (int i = 0; i < rows; ++i) {
    batch.emplace_back(rng.UniformInt(0, domain - 1), 10);
  }
  f.Apply(0, std::move(batch));
  server.Publish();
}

TEST(SnapshotServerTest, RecycledMergesMatchEngineRoot) {
  // Merges alternate between two base generations: each folds into the
  // drained one the previous merge displaced. The first merges clone (no
  // spare yet; the construction-time base has no pool headroom), the rest
  // must recycle, and every merged generation must equal the engine root.
  Fixture f;
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);

  util::Rng rng(99);
  for (int merge = 0; merge < 8; ++merge) {
    PublishRandomBatch(f, server, rng, 40, 64);
    ASSERT_EQ(server.MergeNow(), 1u);
    auto snap = server.Acquire();
    EXPECT_EQ(snap.segment_count(), 0u);
    ASSERT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()))
        << "merge " << merge;
  }
  EXPECT_GE(server.ClonedGenerations(), 1u);
  EXPECT_LT(server.ClonedGenerations(), server.MergeCount());
}

TEST(SnapshotServerTest, MergeStepHonorsPolicyBounds) {
  Fixture f;
  f.Apply(1, {{10, 5}});
  {
    MergePolicy policy;
    policy.max_segments = 3;
    policy.max_diff_keys = 1u << 30;
    Server server(&*f.engine, policy);

    f.Apply(0, {{1, 10}});
    server.Publish();
    f.Apply(0, {{2, 10}});
    server.Publish();
    EXPECT_EQ(server.MergeStep(), 0u) << "below both bounds";
    EXPECT_EQ(server.SegmentCount(), 2u);

    f.Apply(0, {{3, 10}});
    server.Publish();
    EXPECT_EQ(server.MergeStep(), 1u) << "segment bound reached";
    EXPECT_EQ(server.SegmentCount(), 0u);
  }

  // The key-count bound triggers independently of the segment bound.
  MergePolicy policy;
  policy.max_segments = 1u << 20;
  policy.max_diff_keys = 2;
  Server server(&*f.engine, policy);
  f.Apply(0, {{4, 10}, {5, 10}, {6, 10}});
  server.Publish();
  EXPECT_EQ(server.MergeStep(), 1u);
  auto snap = server.Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, MergeSmallFoldsOnlySmallDifferentials) {
  // Far below both policy bounds, MergeSmall folds a differential of at
  // most kSmallFoldKeys keys and leaves one key more for MergeStep.
  Fixture f;
  f.Apply(1, {{10, 5}});
  MergePolicy policy;
  policy.max_segments = 1u << 20;
  policy.max_diff_keys = 1u << 30;
  Server server(&*f.engine, policy);
  int64_t next_a = 1;
  auto publish_keys = [&](size_t n) {  // n new root keys, one segment
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (size_t i = 0; i < n; ++i) rows.emplace_back(next_a++, 10);
    f.Apply(0, std::move(rows));
    server.Publish();
  };

  publish_keys(1);
  publish_keys(Server::kSmallFoldKeys - 1);
  EXPECT_EQ(server.MergeStep(), 0u) << "below both bounds";
  EXPECT_EQ(server.MergeSmall(), 1u);
  EXPECT_EQ(server.SegmentCount(), 0u);

  publish_keys(Server::kSmallFoldKeys + 1);
  EXPECT_EQ(server.MergeSmall(), 0u);
  EXPECT_EQ(server.SegmentCount(), 1u);
  auto snap = server.Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, ReclamationWaitsForPinnedSnapshots) {
  Fixture f;
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);

  uint64_t freed_before = server.ReclaimedGenerations();
  {
    auto pinned = server.Acquire();  // pins the construction-time version
    f.Apply(0, {{1, 10}});
    server.Publish();
    f.Apply(0, {{2, 10}});
    server.Publish();
    server.MergeNow();
    server.Reclaim();
    // Every retired set is at or after the pinned epoch: nothing freed.
    EXPECT_GT(server.RetiredCount(), 0u);
    EXPECT_EQ(server.ReclaimedGenerations(), freed_before);
    // The pinned snapshot still reads pre-update state.
    EXPECT_EQ(LookupCount(pinned, 1), 0);
  }
  server.Reclaim();
  EXPECT_EQ(server.RetiredCount(), 0u);
  // The merge displaced the generation-0 base; with no snapshot pinning
  // it, it is released (held back as the next merge's spare).
  EXPECT_GT(server.ReclaimedGenerations(), freed_before);

  auto snap = server.Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, RandomizedPublishMergeEquivalence) {
  Fixture f;
  MergePolicy policy;
  policy.max_segments = 3;
  policy.max_diff_keys = 64;
  Server server(&*f.engine, policy);

  util::Rng rng(2024);
  std::vector<std::pair<int, Tuple>> inserted;
  for (int batch = 0; batch < 40; ++batch) {
    Rel delta_r(f.query.relation(0).schema);
    Rel delta_s(f.query.relation(1).schema);
    for (int i = 0; i < 20; ++i) {
      int rel = static_cast<int>(rng.UniformInt(0, 1));
      Rel& d = rel == 0 ? delta_r : delta_s;
      if (!inserted.empty() && rng.Bernoulli(0.3)) {
        size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(inserted.size()) - 1));
        auto [prel, key] = inserted[pick];
        (prel == 0 ? delta_r : delta_s).Add(key, -1);
        inserted[pick] = inserted.back();
        inserted.pop_back();
        continue;
      }
      Tuple t = Tuple::Ints(
          {rng.UniformInt(0, 30), rng.UniformInt(0, 10)});
      d.Add(t, 1);
      inserted.emplace_back(rel, std::move(t));
    }
    if (!delta_r.empty()) f.engine->ApplyDelta(0, std::move(delta_r));
    if (!delta_s.empty()) f.engine->ApplyDelta(1, std::move(delta_s));
    server.Publish();
    server.MergeStep();

    auto snap = server.Acquire();
    ASSERT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()))
        << "batch " << batch;
  }
  server.MergeNow();
  auto snap = server.Acquire();
  EXPECT_EQ(snap.segment_count(), 0u);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
  EXPECT_GT(server.MergeCount(), 1u);
}

TEST(SnapshotServerTest, MultiStoreSnapshotsAreCrossStoreConsistent) {
  Fixture f;
  f.Apply(1, {{10, 5}});
  int root = f.tree->root();
  int leaf_r = f.tree->LeafOfRelation(0);
  Server server(&*f.engine, std::vector<int>{root, leaf_r});

  auto s0 = server.Acquire();
  ASSERT_EQ(s0.store_count(), 2u);
  EXPECT_TRUE(ContentEquals(s0.Materialize(0), f.engine->result()));
  EXPECT_TRUE(ContentEquals(s0.Materialize(1), f.engine->store(leaf_r)));

  // One batch touches both stores; one publish exposes both together.
  f.Apply(0, {{1, 10}});
  auto stale = server.Acquire();
  server.Publish();
  auto fresh = server.Acquire();
  EXPECT_EQ(stale.Size(0), 0u);
  EXPECT_EQ(stale.Size(1), 0u);
  EXPECT_EQ(fresh.Size(0), 1u);
  EXPECT_EQ(fresh.Size(1), 1u);
  EXPECT_TRUE(ContentEquals(fresh.Materialize(0), f.engine->result()));
  EXPECT_TRUE(ContentEquals(fresh.Materialize(1), f.engine->store(leaf_r)));

  server.MergeNow();
  auto merged = server.Acquire();
  EXPECT_TRUE(ContentEquals(merged.Materialize(0), f.engine->result()));
  EXPECT_TRUE(ContentEquals(merged.Materialize(1), f.engine->store(leaf_r)));
}

TEST(SnapshotServerTest, ExecutorPostBatchHookPublishesEveryBatch) {
  Fixture f;
  f.Apply(1, {{10, 5}, {11, 5}});
  Server server(&*f.engine);

  exec::ThreadPool pool(2);
  exec::ParallelExecutor<I64Ring> executor(&*f.engine, &pool, {.shards = 2});
  executor.SetPostBatchHook([&server] { server.Publish(); });
  exec::DeltaBatcher<I64Ring> batcher(&f.engine->plans(), /*capacity=*/128);

  util::Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    batcher.PushInsert(0, Tuple::Ints({rng.UniformInt(0, 50),
                                       rng.UniformInt(10, 11)}));
    if (batcher.Full()) executor.Drain(batcher);
  }
  executor.Drain(batcher);

  EXPECT_GE(server.PublishCount(), 3u);
  auto snap = server.Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, FactorizedDeltaFlowsIntoSnapshots) {
  Fixture f;
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);

  // δR = {A=1,A=2} ⊗ {B=10}: the factorized path's store absorbs must tee
  // into the differential exactly like expanded deltas.
  Rel fa(Schema{f.A});
  fa.Add(Tuple::Ints({1}), 1);
  fa.Add(Tuple::Ints({2}), 1);
  Rel fb(Schema{f.B});
  fb.Add(Tuple::Ints({10}), 1);
  std::vector<Rel> factors;
  factors.push_back(std::move(fa));
  factors.push_back(std::move(fb));
  f.engine->ApplyFactorizedDelta(0, std::move(factors));
  server.Publish();

  auto snap = server.Acquire();
  EXPECT_EQ(LookupCount(snap, 1), 1);
  EXPECT_EQ(LookupCount(snap, 2), 1);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, PinnedSpareForcesClonePath) {
  // A snapshot pinned across several merges keeps its generation reachable
  // — as the spare of the merge after next, then through retired sets —
  // so those merges clone instead of folding into it, and the snapshot
  // keeps materializing its pinned state throughout.
  Fixture f;
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);
  util::Rng rng(17);
  for (int merge = 0; merge < 3; ++merge) {
    PublishRandomBatch(f, server, rng, 8, 24);
    server.MergeNow();
  }

  std::optional<Server::Snapshot> pinned(server.Acquire());
  Rel pinned_ref = Rel(f.engine->result());
  PublishRandomBatch(f, server, rng, 8, 24);
  server.MergeNow();  // its spare predates the pin: may recycle
  const uint64_t clones = server.ClonedGenerations();
  for (int merge = 0; merge < 3; ++merge) {
    PublishRandomBatch(f, server, rng, 8, 24);
    ASSERT_EQ(server.MergeNow(), 1u);
    EXPECT_EQ(server.ClonedGenerations(), clones + merge + 1)
        << "a merge folded into a generation a pinned snapshot can reach";
    EXPECT_TRUE(ContentEquals(pinned->Materialize(), pinned_ref));
    auto snap = server.Acquire();
    EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
  }

  // Once the pin drains, merges recycle again.
  pinned.reset();
  server.Reclaim();
  const uint64_t clones_after_pin = server.ClonedGenerations();
  for (int merge = 0; merge < 2; ++merge) {
    PublishRandomBatch(f, server, rng, 8, 24);
    server.MergeNow();
  }
  EXPECT_EQ(server.ClonedGenerations(), clones_after_pin);
  auto snap = server.Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, TryAcquireReportsReaderSlotSaturation) {
  // Saturate the epoch registry: hold kMaxReaders live snapshots. The 65th
  // acquisition must fail cleanly via TryAcquire (Acquire would spin until
  // a reader releases), and releasing any one snapshot frees a slot.
  Fixture f;
  f.Apply(0, {{1, 10}});
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);

  std::vector<Server::Snapshot> held;
  held.reserve(EpochRegistry::kMaxReaders);
  for (uint32_t i = 0; i < EpochRegistry::kMaxReaders; ++i) {
    auto snap = server.TryAcquire();
    ASSERT_TRUE(snap.has_value()) << "slot " << i;
    held.push_back(std::move(*snap));
  }
  EXPECT_EQ(server.PinnedCount(),
            static_cast<int64_t>(EpochRegistry::kMaxReaders));
  EXPECT_FALSE(server.TryAcquire().has_value());

  // Saturated snapshots still read consistently.
  EXPECT_EQ(LookupCount(held.back(), 1), 1);

  held.pop_back();  // release one slot
  auto snap = server.TryAcquire();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(LookupCount(*snap, 1), 1);
}

TEST(SnapshotServerTest, MergeNeverWaitsForAReaderSlot) {
  // Readers hold every epoch slot; a merge (run inside the ingest
  // service's post-publish hook) must still finish, since it reads the
  // current set without pinning one.
  Fixture f;
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);

  std::vector<Server::Snapshot> held;
  held.reserve(EpochRegistry::kMaxReaders);
  for (uint32_t i = 0; i < EpochRegistry::kMaxReaders; ++i) {
    auto snap = server.TryAcquire();
    ASSERT_TRUE(snap.has_value()) << "slot " << i;
    held.push_back(std::move(*snap));
  }
  f.Apply(0, {{1, 10}});
  server.Publish();

  auto merged = std::async(std::launch::async, [&server] {
    return server.MergeNow();
  });
  EXPECT_EQ(merged.wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "the merge waited for a reader to release its snapshot";
  held.clear();  // lets a merge that waits for a slot finish
  EXPECT_EQ(merged.get(), 1u);
  auto snap = server.Acquire();
  EXPECT_EQ(snap.segment_count(), 0u);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(EpochRegistryTest, TryAcquireSlotReturnsSentinelWhenSaturated) {
  EpochRegistry reg;
  for (uint32_t i = 0; i < EpochRegistry::kMaxReaders; ++i) {
    ASSERT_NE(reg.TryAcquireSlot(), EpochRegistry::kNoSlot);
  }
  EXPECT_EQ(reg.TryAcquireSlot(), EpochRegistry::kNoSlot);
  reg.ReleaseSlot(7);
  EXPECT_EQ(reg.TryAcquireSlot(), 7u);  // the freed slot is reclaimed
  EXPECT_EQ(reg.TryAcquireSlot(), EpochRegistry::kNoSlot);
}

TEST(SnapshotServerTest, FailedPublishLeavesStagingRetryable) {
  // A publish that throws (failpoint at entry) must leave staged segments
  // intact: the retry publishes exactly once, with nothing lost or
  // duplicated.
  Fixture f;
  Server server(&*f.engine);
  f.Apply(0, {{1, 10}});
  f.Apply(1, {{10, 5}});

  auto& fp = util::FailPointRegistry::Default();
  fp.Arm("serve.publish", 1.0, /*seed=*/5, /*max_fires=*/1);
  EXPECT_THROW(server.Publish(), util::InjectedFault);
  fp.DisarmAll();
  {
    auto snap = server.Acquire();
    EXPECT_EQ(snap.seq(), 0u);  // failed publish changed nothing
    EXPECT_EQ(LookupCount(snap, 1), 0);
  }
  EXPECT_EQ(server.Publish(), 1u);
  auto snap = server.Acquire();
  EXPECT_EQ(LookupCount(snap, 1), 1);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(SnapshotServerTest, AbortedMergeInstallKeepsVersionChainConsistent) {
  // "serve.merge.install" aborts the merge between fold and install: the
  // built generation must unwind without corrupting the chain, and a
  // subsequent merge retry folds the same segments successfully.
  Fixture f;
  Server server(&*f.engine);
  f.Apply(0, {{1, 10}, {2, 20}});
  f.Apply(1, {{10, 5}, {20, 6}});
  server.Publish();

  auto& fp = util::FailPointRegistry::Default();
  fp.Arm("serve.merge.install", 1.0, /*seed=*/6, /*max_fires=*/1);
  EXPECT_THROW(server.MergeNow(), util::InjectedFault);
  fp.DisarmAll();
  EXPECT_EQ(server.MergeCount(), 0u);
  EXPECT_EQ(server.MergedKeys(), 0u);  // aborted merges count nothing
  {
    auto snap = server.Acquire();
    EXPECT_EQ(snap.segment_count(), 1u);  // segments still differential
    EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
  }
  EXPECT_EQ(server.MergeNow(), 1u);
  auto snap = server.Acquire();
  EXPECT_EQ(snap.segment_count(), 0u);
  EXPECT_EQ(snap.base_gen(), 1u);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}
TEST(SnapshotServerTest, AbortedRecyclingMergeKeepsLaterMergesExact) {
  // An install abort after the fold consumed the spare: the half-built
  // generation unwinds with it, so the next merge clones, and every later
  // merge (recycling again) still equals the engine root.
  Fixture f;
  f.Apply(1, {{10, 5}});
  Server server(&*f.engine);
  util::Rng rng(41);
  for (int merge = 0; merge < 3; ++merge) {
    PublishRandomBatch(f, server, rng, 8, 24);
    server.MergeNow();
  }
  PublishRandomBatch(f, server, rng, 8, 24);
  const uint64_t clones = server.ClonedGenerations();

  auto& fp = util::FailPointRegistry::Default();
  fp.Arm("serve.merge.install", 1.0, /*seed=*/8, /*max_fires=*/1);
  EXPECT_THROW(server.MergeNow(), util::InjectedFault);
  fp.DisarmAll();
  {
    auto snap = server.Acquire();
    EXPECT_EQ(snap.segment_count(), 1u);
    EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
  }

  ASSERT_EQ(server.MergeNow(), 1u);
  EXPECT_EQ(server.ClonedGenerations(), clones + 1)
      << "the aborted merge had taken the spare";
  for (int merge = 0; merge < 4; ++merge) {
    PublishRandomBatch(f, server, rng, 8, 24);
    ASSERT_EQ(server.MergeNow(), 1u);
    auto snap = server.Acquire();
    ASSERT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()))
        << "merge " << merge;
  }
  EXPECT_EQ(server.ClonedGenerations(), clones + 1);
}

}  // namespace
}  // namespace fivm::serve
