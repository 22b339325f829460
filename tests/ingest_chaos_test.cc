// Chaos sweep over the full ingest → propagate → publish → merge pipeline:
// every failpoint site (batcher.flush, exec.task, serve.publish, serve.merge,
// serve.merge.install) armed with a per-seed probability while a randomized
// insert/delete stream runs through the supervised IngestService. After every
// pump in which at least one fault fired, a differential consistency check
// compares the served snapshot (drained: publish retried past any armed
// fault) against the engine's root store; at the end of each seed the engine
// must equal a fault-free reference engine fed the same stream.
//
// The CI chaos job sweeps FIVM_CHAOS_SEED; the in-binary seed loop plus the
// default seed count is sized so one run comfortably exceeds
// FIVM_CHAOS_MIN_FIRES (default 500) injected faults.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
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
#include "src/rings/ring.h"
#include "src/serve/snapshot_server.h"
#include "src/util/fail_point.h"
#include "src/util/rng.h"

namespace fivm::ingest {
namespace {

using Rel = Relation<I64Ring>;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoll(v, nullptr, 10) : fallback;
}

constexpr const char* kSites[] = {"batcher.flush", "exec.task",
                                  "serve.publish", "serve.merge",
                                  "serve.merge.install"};

struct ChaosRig {
  ChaosRig() {
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
    reference.emplace(&*tree, LiftingMap<I64Ring>{});
    Database<I64Ring> db = MakeDatabase<I64Ring>(query);
    engine->Initialize(db);
    reference->Initialize(db);
    pool.emplace(2);
    executor.emplace(&*engine, &*pool,
                     typename exec::ParallelExecutor<I64Ring>::Options{
                         .shards = 2});
    batcher.emplace(&engine->plans(), /*capacity=*/0);
    server.emplace(&*engine);
    ServiceOptions opts;
    opts.flush_updates = 128;
    opts.retry_backoff = std::chrono::microseconds(1);
    opts.retry_backoff_cap = std::chrono::microseconds(64);
    opts.merge_each_flush = true;
    opts.default_queue = {AdmissionPolicy::kBlock, /*capacity=*/1 << 20};
    service.emplace(&*engine, &*executor, &*batcher, &*server, opts);
  }

  /// Publish retried past armed faults, for the differential check and the
  /// final drain ("engine root store == served snapshot after drain").
  void PublishHard() {
    for (;;) {
      try {
        server->Publish();
        return;
      } catch (const util::InjectedFault&) {
      }
    }
  }

  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C;
  VariableOrder vo;
  std::optional<ViewTree> tree;
  std::optional<IvmEngine<I64Ring>> engine;
  std::optional<IvmEngine<I64Ring>> reference;  // fault-free, sequential
  std::optional<exec::ThreadPool> pool;
  std::optional<exec::ParallelExecutor<I64Ring>> executor;
  std::optional<exec::DeltaBatcher<I64Ring>> batcher;
  std::optional<serve::SnapshotServer<I64Ring>> server;
  std::optional<IngestService<I64Ring>> service;
};

/// One seeded chaos run; adds the number of faults injected to *total_fires.
/// (void so ASSERT_* can bail out; gtest fatal assertions need a void scope.)
void RunSeed(uint64_t seed, size_t updates, double probability,
             uint64_t* total_fires) {
  ChaosRig rig;
  auto& fp = util::FailPointRegistry::Default();
  const uint64_t fires0 = fp.TotalFires();
  for (const char* site : kSites) fp.Arm(site, probability, seed);

  util::Rng rng(seed);
  std::vector<std::vector<Tuple>> inserted(2);
  uint64_t last_fires = fires0;
  size_t since_pump = 0;
  for (size_t i = 0; i < updates; ++i) {
    int r = static_cast<int>(rng.UniformInt(0, 1));
    Tuple key;
    int64_t mult;
    if (!inserted[r].empty() && rng.Bernoulli(0.2)) {
      size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(inserted[r].size()) - 1));
      key = inserted[r][pick];
      mult = -1;
      inserted[r][pick] = inserted[r].back();
      inserted[r].pop_back();
    } else {
      key = Tuple::Ints({rng.UniformInt(0, 40), rng.UniformInt(0, 25)});
      mult = 1;
      inserted[r].push_back(key);
    }
    {
      Rel delta(rig.query.relation(r).schema);
      delta.Add(key, mult);
      rig.reference->ApplyDelta(r, std::move(delta));
    }
    ASSERT_TRUE(rig.service->Offer(r, key, mult)) << "i=" << i;

    if (++since_pump >= 128) {
      since_pump = 0;
      rig.service->PumpOnce(/*force_flush=*/true);
      const uint64_t fires = fp.TotalFires();
      if (fires > last_fires) {
        // At least one fault fired in this window: differential check.
        last_fires = fires;
        rig.PublishHard();
        auto snap = rig.server->Acquire();
        ASSERT_TRUE(
            ContentEquals(snap.Materialize(), rig.engine->result()))
            << "seed=" << seed << " i=" << i;
      }
    }
  }

  // Drain with faults still armed, then force the serving side current.
  rig.service->DrainNow();
  rig.PublishHard();
  for (;;) {
    try {
      rig.server->MergeNow();
      break;
    } catch (const util::InjectedFault&) {
    }
  }
  fp.DisarmAll();

  // Supervision must have lost nothing despite every injected fault: the
  // chaos engine equals the fault-free reference, and the served snapshot
  // equals the engine.
  auto stats = rig.service->GetStats();
  EXPECT_EQ(stats.failed_flushes, 0u) << "seed=" << seed;
  EXPECT_TRUE(
      ContentEquals(rig.engine->result(), rig.reference->result()))
      << "seed=" << seed;
  auto snap = rig.server->Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), rig.engine->result()))
      << "seed=" << seed;
  EXPECT_EQ(snap.segment_count(), 0u) << "seed=" << seed;
  *total_fires += fp.TotalFires() - fires0;
}

TEST(IngestChaosTest, SeededFaultSweepPreservesConsistency) {
  const uint64_t base_seed =
      static_cast<uint64_t>(EnvInt("FIVM_CHAOS_SEED", 90001));
  const size_t seeds = static_cast<size_t>(EnvInt("FIVM_CHAOS_SEEDS", 12));
  const size_t updates =
      static_cast<size_t>(EnvInt("FIVM_CHAOS_UPDATES", 4000));
  const uint64_t min_fires =
      static_cast<uint64_t>(EnvInt("FIVM_CHAOS_MIN_FIRES", 500));

  uint64_t total_fires = 0;
  for (size_t s = 0; s < seeds; ++s) {
    RunSeed(base_seed + s, updates, /*probability=*/0.25, &total_fires);
    if (::testing::Test::HasFatalFailure()) return;
  }
  std::printf("chaos sweep: %llu injected faults across %zu seeds\n",
              static_cast<unsigned long long>(total_fires), seeds);
  EXPECT_GE(total_fires, min_fires);
}

}  // namespace
}  // namespace fivm::ingest
