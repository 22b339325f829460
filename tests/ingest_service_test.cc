// IngestService semantics: admission policies (block/shed/drop, counted),
// flush-by-size and flush-by-deadline triggers, graceful degradation under a
// visibility SLO, supervised retry of injected faults, and the clean-shutdown
// drain. Chaos sweeps (randomized faults + differential checks) live in
// ingest_chaos_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
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
#include "src/ingest/ingest_service.h"
#include "src/obs/metrics.h"
#include "src/rings/ring.h"
#include "src/serve/snapshot_server.h"
#include "src/util/fail_point.h"

namespace fivm::ingest {
namespace {

using Rel = Relation<I64Ring>;

/// Q(A) = Σ_{B,C} R(A,B) ⋈ S(B,C) with the full service pipeline behind it:
/// pool → executor → batcher → snapshot server → ingest service.
struct Pipeline {
  explicit Pipeline(ServiceOptions opts = {}, bool with_server = true,
                    LiftingMap<I64Ring> lifts = {}) {
    A = catalog.Intern("A");
    B = catalog.Intern("B");
    C = catalog.Intern("C");
    query.AddRelation("R", Schema{A, B});
    query.AddRelation("S", Schema{B, C});
    query.SetFreeVars(Schema{A});
    vo = VariableOrder::Auto(query);
    tree.emplace(&query, &vo);
    tree->MaterializeAll();
    engine.emplace(&*tree, std::move(lifts));
    Database<I64Ring> db = MakeDatabase<I64Ring>(query);
    engine->Initialize(db);
    pool.emplace(2);
    executor.emplace(&*engine, &*pool,
                     typename exec::ParallelExecutor<I64Ring>::Options{
                         .shards = 2});
    batcher.emplace(&engine->plans(), /*capacity=*/0);
    if (with_server) server.emplace(&*engine);
    service.emplace(&*engine, &*executor, &*batcher,
                    with_server ? &*server : nullptr, opts);
  }

  /// Reference result of applying `updates` (relation, x, y, mult) to a
  /// fresh engine sequentially.
  Rel ReferenceResult(
      const std::vector<std::tuple<int, int64_t, int64_t, int64_t>>& updates) {
    IvmEngine<I64Ring> ref(&*tree, LiftingMap<I64Ring>{});
    Database<I64Ring> db = MakeDatabase<I64Ring>(query);
    ref.Initialize(db);
    for (auto [r, x, y, m] : updates) {
      Rel delta(query.relation(r).schema);
      delta.Add(Tuple::Ints({x, y}), m);
      ref.ApplyDelta(r, std::move(delta));
    }
    return Rel(ref.result());
  }

  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C;
  VariableOrder vo;
  std::optional<ViewTree> tree;
  std::optional<IvmEngine<I64Ring>> engine;
  std::optional<exec::ThreadPool> pool;
  std::optional<exec::ParallelExecutor<I64Ring>> executor;
  std::optional<exec::DeltaBatcher<I64Ring>> batcher;
  std::optional<serve::SnapshotServer<I64Ring>> server;
  std::optional<IngestService<I64Ring>> service;
};

TEST(IngestServiceTest, ThreadedServiceDrainsEverythingOnStop) {
  Pipeline p;
  std::vector<std::tuple<int, int64_t, int64_t, int64_t>> updates;
  for (int64_t i = 0; i < 500; ++i) {
    updates.emplace_back(0, i % 40, i % 7, 1);
    updates.emplace_back(1, i % 7, i % 11, 1);
  }
  p.service->Start();
  for (auto [r, x, y, m] : updates) {
    ASSERT_TRUE(p.service->Offer(r, Tuple::Ints({x, y}), m));
  }
  p.service->Stop();

  auto stats = p.service->GetStats();
  EXPECT_EQ(stats.admitted, updates.size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_EQ(p.service->queue_depth(), 0u);

  // Everything admitted is applied AND published.
  Rel expect = p.ReferenceResult(updates);
  EXPECT_TRUE(ContentEquals(p.engine->result(), expect));
  auto snap = p.server->Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), expect));
}

TEST(IngestServiceTest, FlushBySizeTriggersAtEffectiveWindow) {
  ServiceOptions opts;
  opts.flush_updates = 64;
  opts.flush_deadline = std::chrono::microseconds(1000000);  // effectively off
  Pipeline p(opts);
  for (int64_t i = 0; i < 63; ++i) {
    p.service->Offer(0, Tuple::Ints({i, i % 5}), 1);
  }
  EXPECT_FALSE(p.service->PumpOnce());  // below the window, deadline far away
  EXPECT_EQ(p.service->GetStats().flushes, 0u);

  p.service->Offer(0, Tuple::Ints({63, 3}), 1);
  EXPECT_TRUE(p.service->PumpOnce());
  auto stats = p.service->GetStats();
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.size_flushes, 1u);
  EXPECT_EQ(p.engine->result().size(), 0u);  // no S rows yet: empty join
  // An empty root delta stages nothing, so the per-batch publish no-ops.
  EXPECT_EQ(p.server->PublishCount(), 0u);
}

TEST(IngestServiceTest, FlushByDeadlineTriggersOnAge) {
  ServiceOptions opts;
  opts.flush_updates = 1 << 20;  // size trigger effectively off
  opts.flush_deadline = std::chrono::microseconds(2000);
  Pipeline p(opts);
  p.service->Offer(0, Tuple::Ints({1, 2}), 1);
  p.service->Offer(1, Tuple::Ints({2, 9}), 1);
  EXPECT_FALSE(p.service->PumpOnce());  // too young
  std::this_thread::sleep_for(std::chrono::milliseconds(4));
  EXPECT_TRUE(p.service->PumpOnce());
  auto stats = p.service->GetStats();
  EXPECT_EQ(stats.deadline_flushes, 1u);
  auto snap = p.server->Acquire();
  // The flush emitted one batch per touched relation; only the S batch
  // produced a non-empty root delta (the R batch joined against an empty S),
  // so exactly one publish created a version.
  EXPECT_EQ(snap.seq(), 1u);
  int64_t out = 0;
  EXPECT_TRUE(snap.Lookup(Tuple::Ints({1}), &out));
  EXPECT_EQ(out, 1);
}

TEST(IngestServiceTest, ShedNewestRejectsWhenQueueFull) {
  ServiceOptions opts;
  opts.default_queue = {AdmissionPolicy::kShedNewest, /*capacity=*/8};
  Pipeline p(opts);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(p.service->Offer(0, Tuple::Ints({i, 0}), 1));
  }
  EXPECT_FALSE(p.service->Offer(0, Tuple::Ints({99, 0}), 1));  // shed
  EXPECT_TRUE(p.service->Offer(1, Tuple::Ints({0, 0}), 1));  // other queue
  auto stats = p.service->GetStats();
  EXPECT_EQ(stats.admitted, 9u);
  EXPECT_EQ(stats.shed, 1u);

  p.service->DrainNow();
  // The shed update is not in the engine: only keys 0..7 are live in R.
  EXPECT_EQ(p.engine->store(p.tree->LeafOfRelation(0)).size(), 8u);
}

TEST(IngestServiceTest, DropOldestEvictsQueueHead) {
  ServiceOptions opts;
  opts.default_queue = {AdmissionPolicy::kDropOldest, /*capacity=*/4};
  Pipeline p(opts);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(p.service->Offer(0, Tuple::Ints({i, 0}), 1));
  }
  auto stats = p.service->GetStats();
  EXPECT_EQ(stats.admitted, 10u);
  EXPECT_EQ(stats.dropped, 6u);

  p.service->DrainNow();
  // The four newest (6..9) survived.
  const Rel& store = p.engine->store(p.tree->LeafOfRelation(0));
  EXPECT_EQ(store.size(), 4u);
  EXPECT_NE(store.Find(Tuple::Ints({9, 0})), nullptr);
  EXPECT_EQ(store.Find(Tuple::Ints({0, 0})), nullptr);
}

TEST(IngestServiceTest, BlockBackpressuresProducerUntilDrained) {
  ServiceOptions opts;
  opts.default_queue = {AdmissionPolicy::kBlock, /*capacity=*/16};
  opts.flush_updates = 8;
  Pipeline p(opts);
  p.service->Start();
  std::atomic<int> offered{0};
  std::thread producer([&] {
    for (int64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(p.service->Offer(0, Tuple::Ints({i % 50, i % 7}), 1));
      offered.fetch_add(1, std::memory_order_relaxed);
    }
  });
  producer.join();
  p.service->Stop();
  auto stats = p.service->GetStats();
  EXPECT_EQ(stats.admitted, 2000u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  // With capacity 16 and a 2000-update burst the producer must have hit
  // backpressure at least once.
  EXPECT_GT(stats.blocks, 0u);
  // Nothing lost: total multiplicity in the leaf store equals offers.
  const Rel& store = p.engine->store(p.tree->LeafOfRelation(0));
  int64_t total = 0;
  store.ForEach([&](const Tuple&, const int64_t& m) { total += m; });
  EXPECT_EQ(total, 2000);
}

TEST(IngestServiceTest, OffersAfterStopAreShedNotLost) {
  Pipeline p;
  p.service->Start();
  ASSERT_TRUE(p.service->Offer(0, Tuple::Ints({1, 1}), 1));
  p.service->Stop();
  EXPECT_FALSE(p.service->Offer(0, Tuple::Ints({2, 2}), 1));
  EXPECT_EQ(p.service->GetStats().shed, 1u);
  EXPECT_EQ(p.engine->store(p.tree->LeafOfRelation(0)).size(), 1u);
}

TEST(IngestServiceTest, SustainedSloViolationWidensWindowThenRecovers) {
  ServiceOptions opts;
  opts.flush_updates = 4;
  opts.visibility_slo = std::chrono::microseconds(1);  // impossible SLO
  opts.slo_window = 4;
  opts.max_degrade_level = 2;
  Pipeline p(opts);

  int64_t next = 0;
  auto offer_window = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      p.service->Offer(0, Tuple::Ints({next++ % 64, 0}), 1);
    }
  };
  // 8 flushes violating the 1µs SLO: degrade at each 4-flush window edge.
  for (int w = 0; w < 8; ++w) {
    offer_window(p.service->EffectiveFlushUpdates());
    ASSERT_TRUE(p.service->PumpOnce());
  }
  EXPECT_EQ(p.service->degrade_level(), 2u);  // capped at max_degrade_level
  auto stats = p.service->GetStats();
  EXPECT_EQ(stats.degrade_enters, 2u);
  // The effective window doubled per level.
  EXPECT_EQ(p.service->EffectiveFlushUpdates(), 16u);

  // Clean windows (generous SLO) narrow it back one level per window.
  p.service.emplace(&*p.engine, &*p.executor, &*p.batcher, &*p.server, opts);
  EXPECT_EQ(p.service->degrade_level(), 0u);
}

TEST(IngestServiceTest, DegradationRecoversAfterCleanWindows) {
  // Violation is measured against real visibility latency, so an SLO of
  // 50ms is violated by aging the window 60ms before pumping and met by
  // pumping immediately — enter and exit on one service instance.
  ServiceOptions opts;
  opts.flush_updates = 2;
  opts.visibility_slo = std::chrono::milliseconds(50);
  opts.slo_window = 2;
  opts.max_degrade_level = 1;
  Pipeline p(opts);
  int64_t next = 0;
  for (int w = 0; w < 2; ++w) {  // two violating flushes: degrade
    p.service->Offer(0, Tuple::Ints({next++, 0}), 1);
    p.service->Offer(0, Tuple::Ints({next++, 0}), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE(p.service->PumpOnce(true));
  }
  ASSERT_EQ(p.service->degrade_level(), 1u);
  ASSERT_EQ(p.service->GetStats().degrade_enters, 1u);

  for (int w = 0; w < 2; ++w) {  // two clean flushes: recover
    p.service->Offer(0, Tuple::Ints({next++, 0}), 1);
    p.service->Offer(0, Tuple::Ints({next++, 0}), 1);
    ASSERT_TRUE(p.service->PumpOnce(true));
  }
  EXPECT_EQ(p.service->degrade_level(), 0u);
  EXPECT_EQ(p.service->GetStats().degrade_exits, 1u);
}

TEST(IngestServiceTest, WorksWithoutSnapshotServer) {
  Pipeline p(ServiceOptions{}, /*with_server=*/false);
  for (int64_t i = 0; i < 100; ++i) {
    p.service->Offer(0, Tuple::Ints({i % 10, i % 5}), 1);
    p.service->Offer(1, Tuple::Ints({i % 5, i % 3}), 1);
  }
  p.service->DrainNow();
  std::vector<std::tuple<int, int64_t, int64_t, int64_t>> updates;
  for (int64_t i = 0; i < 100; ++i) {
    updates.emplace_back(0, i % 10, i % 5, 1);
    updates.emplace_back(1, i % 5, i % 3, 1);
  }
  EXPECT_TRUE(ContentEquals(p.engine->result(), p.ReferenceResult(updates)));
}

TEST(IngestServiceTest, SmallDifferentialsFoldAfterEveryPublish) {
  // One flush applies a batch per relation, each publishing a segment of
  // a few root keys; MergeSmall after each publish folds them, so readers
  // of the flushed state probe no segments even below the merge policy.
  Pipeline p;
  std::vector<std::tuple<int, int64_t, int64_t, int64_t>> updates;
  for (int round = 0; round < 3; ++round) {
    for (int64_t i = 0; i < 4; ++i) {
      updates.emplace_back(0, i + 4 * round, i % 2, 1);
      updates.emplace_back(1, i % 2, i + 4 * round, 1);
    }
    for (size_t u = updates.size() - 8; u < updates.size(); ++u) {
      auto [r, x, y, m] = updates[u];
      ASSERT_TRUE(p.service->Offer(r, Tuple::Ints({x, y}), m));
    }
    p.service->DrainNow();
  }

  EXPECT_GE(p.server->PublishCount(), 3u);
  EXPECT_EQ(p.server->MergeCount(), p.server->PublishCount());
  auto snap = p.server->Acquire();
  EXPECT_EQ(snap.segment_count(), 0u);
  EXPECT_TRUE(ContentEquals(snap.Materialize(), p.ReferenceResult(updates)));
}

TEST(IngestServiceTest, SupervisorRetriesInjectedFaultsToCompletion) {
  // Every supervised boundary fails a few times; the service must retry
  // through all of them and land exactly the reference state.
  ServiceOptions opts;
  opts.flush_updates = 96;
  opts.retry_backoff = std::chrono::microseconds(1);
  Pipeline p(opts);
  auto& fp = util::FailPointRegistry::Default();
  fp.Arm("batcher.flush", 1.0, /*seed=*/21, /*max_fires=*/2);
  fp.Arm("exec.task", 1.0, /*seed=*/22, /*max_fires=*/2);
  fp.Arm("serve.publish", 1.0, /*seed=*/23, /*max_fires=*/2);
  fp.Arm("serve.merge", 1.0, /*seed=*/24, /*max_fires=*/2);

  std::vector<std::tuple<int, int64_t, int64_t, int64_t>> updates;
  for (int64_t i = 0; i < 200; ++i) {
    updates.emplace_back(0, i % 30, i % 8, 1);
    updates.emplace_back(1, i % 8, i % 6, 1);
  }
  for (auto [r, x, y, m] : updates) {
    p.service->Offer(r, Tuple::Ints({x, y}), m);
  }
  p.service->DrainNow();
  fp.DisarmAll();

  auto stats = p.service->GetStats();
  EXPECT_GE(stats.flush_retries, 1u);
  EXPECT_GE(stats.apply_retries, 1u);
  EXPECT_EQ(stats.failed_flushes, 0u);

  Rel expect = p.ReferenceResult(updates);
  EXPECT_TRUE(ContentEquals(p.engine->result(), expect));
  auto snap = p.server->Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), expect));
}

TEST(IngestServiceTest, RetriedSequentialApplyDoesNotDoubleApply) {
  // A window small enough for the executor's sequential fallback, whose
  // propagation throws once (a lift on B with a one-shot fault): the
  // supervised retry must land exactly a fault-free twin's stores — the
  // failed attempt wrote nothing, the S leaf included.
  ServiceOptions opts;
  opts.flush_updates = 1000;
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::microseconds(1);
  auto fuse = std::make_shared<std::atomic<int>>(0);
  auto lifts = [&] {
    LiftingMap<I64Ring> l;
    VarId b = 1;  // interned second by Pipeline
    l.Set(b, [fuse](const Value&) -> int64_t {
      if (fuse->load() > 0 && fuse->fetch_sub(1) == 1) {
        throw std::runtime_error("injected lift fault");
      }
      return 2;
    });
    return l;
  };
  Pipeline p(opts, /*with_server=*/true, lifts());
  Pipeline twin(opts, /*with_server=*/true, lifts());
  ASSERT_EQ(p.B, 1u);

  auto offer = [](Pipeline& q, int rel, int64_t n, int64_t mod) {
    for (int64_t i = 0; i < n; ++i) {
      q.service->Offer(rel, Tuple::Ints({i % mod, i}), 1);
    }
    q.service->DrainNow();
  };
  offer(p, 0, 20, 4);  // R(A,B): the S-delta joins these
  offer(twin, 0, 20, 4);
  fuse->store(2);      // the second lift call of the next apply throws
  offer(p, 1, 8, 4);   // S(B,C): 8 keys, below kMinParallelKeys
  EXPECT_EQ(fuse->load(), 0) << "the lift fault did not fire";
  offer(twin, 1, 8, 4);

  auto stats = p.service->GetStats();
  EXPECT_EQ(stats.apply_retries, 1u);
  EXPECT_EQ(stats.failed_flushes, 0u);
  EXPECT_TRUE(exec::StoresContentEqual(*p.engine, *twin.engine));
  EXPECT_TRUE(ContentEquals(p.server->Acquire().Materialize(),
                            twin.engine->result()));
}

TEST(IngestServiceTest, PublishFailurePastBudgetDelaysVisibilityOnly) {
  // serve.publish down hard for longer than the retry budget: the apply
  // still lands in the engine, publish_failures is counted, and the next
  // healthy flush publishes the stranded segments.
  ServiceOptions opts;
  opts.flush_updates = 4;
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::microseconds(1);
  opts.merge_each_flush = false;
  Pipeline p(opts);
  auto& fp = util::FailPointRegistry::Default();
  fp.Arm("serve.publish", 1.0, /*seed=*/31, /*max_fires=*/3);

  for (int64_t i = 0; i < 4; ++i) {
    p.service->Offer(0, Tuple::Ints({i, 0}), 1);
  }
  p.service->DrainNow();
  auto stats = p.service->GetStats();
  EXPECT_EQ(stats.publish_failures, 1u);
  EXPECT_EQ(stats.failed_flushes, 0u);
  EXPECT_EQ(p.engine->store(p.tree->LeafOfRelation(0)).size(), 4u);
  {
    auto snap = p.server->Acquire();
    EXPECT_EQ(snap.seq(), 0u);  // nothing visible yet
  }

  fp.DisarmAll();
  for (int64_t i = 0; i < 4; ++i) {
    p.service->Offer(1, Tuple::Ints({0, i}), 1);
  }
  p.service->DrainNow();
  auto snap = p.server->Acquire();
  EXPECT_EQ(snap.seq(), 1u);
  // Both flushes' segments became visible together.
  EXPECT_TRUE(ContentEquals(snap.Materialize(), p.engine->result()));
}

/// The exported value of `name`, whichever kind of metric carries it.
std::optional<uint64_t> Exported(const obs::MetricsSnapshot& snap,
                                 const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) return static_cast<uint64_t>(v);
  }
  return std::nullopt;
}

TEST(IngestServiceTest, ExportedCountersEqualTheirOwners) {
  // The registry must read IngestStats and the server's stats, not keep a
  // second count — so the export stays exact even while runtime recording
  // is switched off.
  struct MetricsOff {
    MetricsOff() { obs::SetEnabled(false); }
    ~MetricsOff() { obs::SetEnabled(true); }
  } metrics_off;
  // Each lossy admission policy in turn, applied to both relations.
  for (AdmissionPolicy admission :
       {AdmissionPolicy::kShedNewest, AdmissionPolicy::kDropOldest}) {
    SCOPED_TRACE(admission == AdmissionPolicy::kShedNewest ? "shed newest"
                                                            : "drop oldest");
    ServiceOptions opts;
    opts.flush_updates = 256;
    opts.retry_backoff = std::chrono::microseconds(1);
    opts.default_queue = {admission, 100};
    Pipeline p(opts);
    // Batches of 100 distinct keys take the parallel path, where the
    // exec.task failpoint sits.
    for (int64_t i = 0; i < 120; ++i) {
      p.service->Offer(0, Tuple::Ints({i, i % 3}), 1);
      p.service->Offer(1, Tuple::Ints({i % 3, i}), 1);
    }
    auto& fp = util::FailPointRegistry::Default();
    fp.Arm("batcher.flush", 1.0, /*seed=*/41, /*max_fires=*/2);
    fp.Arm("exec.task", 1.0, /*seed=*/42, /*max_fires=*/2);
    fp.Arm("serve.publish", 1.0, /*seed=*/43, /*max_fires=*/2);
    p.service->DrainNow();
    fp.DisarmAll();
    p.server->MergeNow();

    const IngestStats st = p.service->GetStats();
    if (admission == AdmissionPolicy::kShedNewest) {
      EXPECT_GT(st.shed, 0u);
    } else {
      EXPECT_GT(st.dropped, 0u);
    }
    EXPECT_GT(st.flush_retries, 0u);
    EXPECT_GT(st.apply_retries, 0u);
    EXPECT_GT(st.publish_retries, 0u);
    const obs::MetricsSnapshot snap = obs::MetricRegistry::Default().Snapshot();
    const std::pair<const char*, uint64_t> expected[] = {
        {"ingest.admitted", st.admitted},
        {"ingest.shed", st.shed},
        {"ingest.dropped", st.dropped},
        {"ingest.blocks", st.blocks},
        {"ingest.flushes", st.flushes},
        {"ingest.retries", st.flush_retries + st.apply_retries +
                               st.publish_retries + st.wal_retries},
        {"ingest.degrade_transitions", st.degrade_enters + st.degrade_exits},
        {"ingest.wal_appended", st.wal_appended},
        {"ingest.wal_failed_windows", st.wal_failed_windows},
        {"ingest.checkpoints", st.checkpoints},
        {"serve.publishes", p.server->PublishCount()},
        {"serve.merges", p.server->MergeCount()},
    };
    for (const auto& [name, value] : expected) {
      EXPECT_EQ(Exported(snap, name), std::optional<uint64_t>(value)) << name;
    }
    EXPECT_GT(p.server->MergeCount(), 0u);
  }
}

}  // namespace
}  // namespace fivm::ingest
