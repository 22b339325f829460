// Durability end-to-end (no process kills — those live in
// recovery_chaos_test.cc): checkpoint round-trips, recovery == reference
// after window-mode and strict-mode ingest, WAL-only full replay, corrupt
// checkpoint fallback, .tmp images ignored, the disk-full simulation
// (persistent wal.append faults shed windows gracefully — counted, engine
// consistent, recovery replays exactly the durable prefix), and a failed
// directory fsync stopping a checkpoint before it removes anything.

#include "src/durability/recovery.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/relation_ops.h"
#include "src/durability/checkpoint.h"
#include "src/durability/wal.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/parallel_executor.h"
#include "src/exec/thread_pool.h"
#include "src/ingest/ingest_service.h"
#include "src/rings/ring.h"
#include "src/serve/snapshot_server.h"
#include "src/util/fail_point.h"
#include "src/util/rng.h"

namespace fivm::durability {
namespace {

using ingest::AdmissionPolicy;
using ingest::DurabilityPolicy;
using ingest::IngestService;
using ingest::ServiceOptions;

class TempDir {
 public:
  TempDir() {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "/tmp/fivm_rec_%d_XXXXXX",
                  static_cast<int>(::getpid()));
    dir_ = ::mkdtemp(buf);
  }
  ~TempDir() {
    if (dir_.empty()) return;
    std::string cmd = "rm -rf " + dir_;
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

/// The standard two-relation rig (R(A,B) ⋈ S(B,C), free A) with the full
/// ingest pipeline and, optionally, the durability layer attached.
struct Rig {
  explicit Rig(const std::string& log_dir = "",
               DurabilityPolicy policy = DurabilityPolicy::kOff,
               size_t checkpoint_every = 0,
               WalWriter::Options wal_options = {}) {
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
    pool.emplace(2);
    executor.emplace(&*engine, &*pool,
                     typename exec::ParallelExecutor<I64Ring>::Options{
                         .shards = 2});
    batcher.emplace(&engine->plans(), /*capacity=*/0);
    if (!log_dir.empty()) {
      wal.emplace(log_dir, wal_options);
      ckpt.emplace(log_dir, &*engine, &*wal);
    }
    server.emplace(&*engine);
    ServiceOptions opts;
    opts.flush_updates = 128;
    opts.retry_backoff = std::chrono::microseconds(1);
    opts.retry_backoff_cap = std::chrono::microseconds(64);
    opts.max_retries = 4;
    opts.durability = policy;
    opts.checkpoint_every_flushes = checkpoint_every;
    opts.default_queue = {AdmissionPolicy::kBlock, /*capacity=*/1 << 20};
    service.emplace(&*engine, &*executor, &*batcher, &*server, opts);
    if (wal.has_value()) service->AttachDurability(&*wal, &*ckpt);
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
  std::optional<WalWriter> wal;
  std::optional<Checkpointer<I64Ring>> ckpt;
  std::optional<serve::SnapshotServer<I64Ring>> server;
  std::optional<IngestService<I64Ring>> service;
};

/// Deterministic seeded insert/delete stream, identical regeneration per
/// seed (the recovery tests re-derive reference state from it).
struct StreamGen {
  explicit StreamGen(uint64_t seed) : rng(seed) {}

  struct U {
    int relation;
    Tuple key;
    int64_t mult;
  };

  U Next() {
    int r = static_cast<int>(rng.UniformInt(0, 1));
    if (!inserted[r].empty() && rng.Bernoulli(0.2)) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(inserted[r].size()) - 1));
      Tuple key = inserted[r][pick];
      inserted[r][pick] = inserted[r].back();
      inserted[r].pop_back();
      return U{r, key, -1};
    }
    Tuple key = Tuple::Ints({rng.UniformInt(0, 40), rng.UniformInt(0, 25)});
    inserted[r].push_back(key);
    return U{r, key, 1};
  }

  util::Rng rng;
  std::vector<std::vector<Tuple>> inserted{2};
};

/// Reference engine fed the first `n` updates of `seed`'s stream,
/// sequentially and fault-free.
void FeedReference(IvmEngine<I64Ring>* engine, const Query& query,
                   uint64_t seed, size_t n) {
  StreamGen gen(seed);
  for (size_t i = 0; i < n; ++i) {
    auto u = gen.Next();
    Relation<I64Ring> delta(query.relation(u.relation).schema);
    delta.Add(u.key, u.mult);
    engine->ApplyDelta(u.relation, std::move(delta));
  }
}

RecoveryResult RecoverInto(Rig* rig, const std::string& dir) {
  return Recover(dir, &*rig->engine, &*rig->batcher, &*rig->executor);
}

TEST(RecoveryTest, CheckpointRoundTrip) {
  TempDir td;
  constexpr uint64_t kSeed = 60001;
  constexpr size_t kUpdates = 1500;
  Rig rig(td.path(), DurabilityPolicy::kWindow);
  StreamGen gen(kSeed);
  for (size_t i = 0; i < kUpdates; ++i) {
    auto u = gen.Next();
    ASSERT_TRUE(rig.service->Offer(u.relation, u.key, u.mult));
    if ((i + 1) % 128 == 0) rig.service->PumpOnce(/*force_flush=*/true);
  }
  rig.service->DrainNow();
  CheckpointMeta meta = rig.ckpt->WriteCheckpoint();
  EXPECT_EQ(meta.update_count, kUpdates);
  EXPECT_EQ(meta.lsn, rig.wal->last_sealed_lsn());

  // A fresh engine restored from the image alone (no WAL replay needed:
  // the checkpoint covers the entire sealed log).
  Rig fresh;
  auto loaded = LoadNewestCheckpoint(td.path(), &*fresh.engine);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.meta.lsn, meta.lsn);
  EXPECT_EQ(loaded.meta.update_count, kUpdates);
  EXPECT_EQ(loaded.corrupt_skipped, 0u);
  EXPECT_TRUE(exec::StoresContentEqual(*fresh.engine, *rig.engine));
}

TEST(RecoveryTest, WindowModeRecoverEqualsReference) {
  TempDir td;
  constexpr uint64_t kSeed = 60002;
  constexpr size_t kUpdates = 3000;
  size_t checkpoints = 0;
  {
    Rig rig(td.path(), DurabilityPolicy::kWindow,
            /*checkpoint_every=*/4);
    StreamGen gen(kSeed);
    for (size_t i = 0; i < kUpdates; ++i) {
      auto u = gen.Next();
      ASSERT_TRUE(rig.service->Offer(u.relation, u.key, u.mult));
      if ((i + 1) % 128 == 0) rig.service->PumpOnce(/*force_flush=*/true);
    }
    rig.service->DrainNow();
    auto stats = rig.service->GetStats();
    EXPECT_EQ(stats.wal_appended, kUpdates);
    EXPECT_GE(stats.checkpoints, 1u);
    EXPECT_EQ(stats.wal_failed_windows, 0u);
    EXPECT_EQ(stats.checkpoint_failures, 0u);
    checkpoints = stats.checkpoints;
    // Dropping the rig here = clean process death after the last seal.
  }
  ASSERT_GE(checkpoints, 1u);

  Rig recovered;
  RecoveryResult rr = RecoverInto(&recovered, td.path());
  EXPECT_TRUE(rr.checkpoint_loaded);
  EXPECT_FALSE(rr.gap_detected);
  EXPECT_FALSE(rr.saw_torn_tail);
  EXPECT_EQ(rr.update_count, kUpdates);

  Rig reference;
  FeedReference(&*reference.engine, reference.query, kSeed, kUpdates);
  EXPECT_TRUE(exec::StoresContentEqual(*recovered.engine, *reference.engine));

  // A server built after recovery serves the recovered stores.
  recovered.service.reset();
  recovered.server.emplace(&*recovered.engine);
  auto snap = recovered.server->Acquire();
  EXPECT_TRUE(
      ContentEquals(snap.Materialize(), reference.engine->result()));
}

TEST(RecoveryTest, NoCheckpointFullReplay) {
  TempDir td;
  constexpr uint64_t kSeed = 60003;
  constexpr size_t kUpdates = 1000;
  {
    Rig rig(td.path(), DurabilityPolicy::kWindow);  // no checkpointing
    StreamGen gen(kSeed);
    for (size_t i = 0; i < kUpdates; ++i) {
      auto u = gen.Next();
      ASSERT_TRUE(rig.service->Offer(u.relation, u.key, u.mult));
      if ((i + 1) % 64 == 0) rig.service->PumpOnce(/*force_flush=*/true);
    }
    rig.service->DrainNow();
  }
  Rig recovered;
  RecoveryResult rr = RecoverInto(&recovered, td.path());
  EXPECT_FALSE(rr.checkpoint_loaded);
  EXPECT_EQ(rr.updates_replayed, kUpdates);
  EXPECT_EQ(rr.frames_skipped, 0u);

  Rig reference;
  FeedReference(&*reference.engine, reference.query, kSeed, kUpdates);
  EXPECT_TRUE(exec::StoresContentEqual(*recovered.engine, *reference.engine));
}

TEST(RecoveryTest, CorruptNewestCheckpointFallsBackToOlder) {
  TempDir td;
  constexpr uint64_t kSeed = 60004;
  Rig rig(td.path(), DurabilityPolicy::kWindow);
  StreamGen gen(kSeed);
  size_t offered = 0;
  auto pump_n = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      auto u = gen.Next();
      ASSERT_TRUE(rig.service->Offer(u.relation, u.key, u.mult));
      ++offered;
      if (offered % 64 == 0) rig.service->PumpOnce(/*force_flush=*/true);
    }
    rig.service->DrainNow();
  };
  pump_n(600);
  rig.ckpt->WriteCheckpoint();
  pump_n(600);
  CheckpointMeta newest = rig.ckpt->WriteCheckpoint();
  pump_n(300);  // WAL suffix past the newest checkpoint

  // Corrupt the newest image (flip a byte in the middle).
  {
    FILE* fp = std::fopen(newest.path.c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 0, SEEK_END);
    long size = std::ftell(fp);
    std::fseek(fp, size / 2, SEEK_SET);
    int c = std::fgetc(fp);
    std::fseek(fp, size / 2, SEEK_SET);
    std::fputc(c ^ 0x10, fp);
    std::fclose(fp);
  }

  Rig recovered;
  RecoveryResult rr = RecoverInto(&recovered, td.path());
  EXPECT_TRUE(rr.checkpoint_loaded);
  EXPECT_EQ(rr.corrupt_checkpoints_skipped, 1u);
  EXPECT_LT(rr.checkpoint_lsn, newest.lsn);  // fell back to the older image
  EXPECT_FALSE(rr.gap_detected);  // single active segment: nothing truncated
  EXPECT_EQ(rr.update_count, offered);

  Rig reference;
  FeedReference(&*reference.engine, reference.query, kSeed, offered);
  EXPECT_TRUE(exec::StoresContentEqual(*recovered.engine, *reference.engine));
}

TEST(RecoveryTest, PartialTmpImageIgnored) {
  TempDir td;
  constexpr uint64_t kSeed = 60005;
  Rig rig(td.path(), DurabilityPolicy::kWindow);
  StreamGen gen(kSeed);
  for (size_t i = 0; i < 500; ++i) {
    auto u = gen.Next();
    ASSERT_TRUE(rig.service->Offer(u.relation, u.key, u.mult));
  }
  rig.service->DrainNow();
  rig.ckpt->WriteCheckpoint();

  // A crashed install's leftovers: a half-written .tmp "newer" than the
  // real checkpoint. The loader must not even consider it.
  {
    std::string tmp = td.path() + "/ckpt-99999999999999999999.ckpt.tmp";
    FILE* fp = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fputs("partial image garbage", fp);
    std::fclose(fp);
  }

  Rig recovered;
  RecoveryResult rr = RecoverInto(&recovered, td.path());
  EXPECT_TRUE(rr.checkpoint_loaded);
  EXPECT_EQ(rr.corrupt_checkpoints_skipped, 0u);
  EXPECT_TRUE(exec::StoresContentEqual(*recovered.engine, *rig.engine));
}

TEST(RecoveryTest, DiskFullShedsWindowsGracefully) {
  TempDir td;
  constexpr uint64_t kSeed = 60006;
  auto& fp = util::FailPointRegistry::Default();
  Rig rig(td.path(), DurabilityPolicy::kWindow);
  StreamGen gen(kSeed);
  size_t offered = 0;
  auto offer_pump = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      auto u = gen.Next();
      ASSERT_TRUE(rig.service->Offer(u.relation, u.key, u.mult));
      ++offered;
      if (offered % 64 == 0) rig.service->PumpOnce(/*force_flush=*/true);
    }
    rig.service->DrainNow();
  };

  offer_pump(512);  // healthy prefix
  const uint64_t durable_before = rig.wal->next_update_index();
  EXPECT_EQ(durable_before, 512u);

  // "Disk full": every append fails persistently. Windows must be shed —
  // counted, engine untouched by them, service alive.
  fp.Arm("wal.append", 1.0, kSeed);
  offer_pump(256);
  auto stats = rig.service->GetStats();
  EXPECT_GT(stats.wal_failed_windows, 0u);
  EXPECT_EQ(stats.failed_flushes, 0u);  // shed, not crashed
  EXPECT_EQ(rig.wal->next_update_index(), durable_before);
  fp.DisarmAll();

  // Space back: ingest resumes durably.
  offer_pump(256);
  EXPECT_EQ(rig.wal->next_update_index(), durable_before + 256);

  // The engine applied exactly the durable updates (shed windows are
  // discarded before apply), so recovery reproduces the live engine.
  Rig recovered;
  RecoveryResult rr = RecoverInto(&recovered, td.path());
  EXPECT_EQ(rr.updates_replayed + 0, durable_before + 256);
  EXPECT_TRUE(exec::StoresContentEqual(*recovered.engine, *rig.engine));

  // And that state equals the reference fed the stream MINUS the shed
  // middle chunk: regenerate and skip updates [512, 768).
  Rig reference;
  {
    StreamGen g2(kSeed);
    for (size_t i = 0; i < offered; ++i) {
      auto u = g2.Next();
      if (i >= 512 && i < 768) continue;  // shed under the armed fault
      Relation<I64Ring> delta(reference.query.relation(u.relation).schema);
      delta.Add(u.key, u.mult);
      reference.engine->ApplyDelta(u.relation, std::move(delta));
    }
  }
  EXPECT_TRUE(exec::StoresContentEqual(*recovered.engine, *reference.engine));
}

TEST(RecoveryTest, StrictModeUpdatesDurableAtAdmission) {
  TempDir td;
  constexpr uint64_t kSeed = 60007;
  constexpr size_t kUpdates = 400;
  {
    Rig rig(td.path(), DurabilityPolicy::kStrict);
    StreamGen gen(kSeed);
    for (size_t i = 0; i < kUpdates; ++i) {
      auto u = gen.Next();
      ASSERT_TRUE(rig.service->Offer(u.relation, u.key, u.mult));
    }
    // Every admitted update is already sealed + fsync'd — even though NONE
    // has been flushed or applied yet.
    EXPECT_EQ(rig.wal->next_update_index(), kUpdates);
    EXPECT_EQ(rig.service->GetStats().flushes, 0u);
    // Crash here (rig dropped with all updates still queued).
  }
  Rig recovered;
  RecoveryResult rr = RecoverInto(&recovered, td.path());
  EXPECT_EQ(rr.updates_replayed, kUpdates);

  Rig reference;
  FeedReference(&*reference.engine, reference.query, kSeed, kUpdates);
  EXPECT_TRUE(exec::StoresContentEqual(*recovered.engine, *reference.engine));
}

TEST(RecoveryTest, StrictModeCheckpointsOnlyAtQuiescence) {
  TempDir td;
  constexpr uint64_t kSeed = 60008;
  Rig rig(td.path(), DurabilityPolicy::kStrict, /*checkpoint_every=*/1);
  StreamGen gen(kSeed);
  for (size_t i = 0; i < 256; ++i) {
    auto u = gen.Next();
    ASSERT_TRUE(rig.service->Offer(u.relation, u.key, u.mult));
  }
  rig.service->DrainNow();  // final pump leaves queues + batcher empty
  auto stats = rig.service->GetStats();
  EXPECT_GE(stats.checkpoints, 1u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);

  // The newest checkpoint alone reproduces the engine (no replay needed).
  Rig fresh;
  auto loaded = LoadNewestCheckpoint(td.path(), &*fresh.engine);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.meta.update_count, 256u);
  EXPECT_TRUE(exec::StoresContentEqual(*fresh.engine, *rig.engine));
}

// A directory fsync that fails after a checkpoint's rename stops the
// checkpoint there: the WAL segments it would cover and the older checkpoint
// it would collect all stay, and the next checkpoint recovers exactly.
TEST(RecoveryTest, FailedDirSyncKeepsWalAndOlderCheckpoints) {
  TempDir td;
  constexpr uint64_t kSeed = 60009;
  WalWriter::Options wopt;
  wopt.max_segment_bytes = 1024;  // many segments for TruncateBelow to cover
  Rig rig(td.path(), DurabilityPolicy::kWindow, /*checkpoint_every=*/0, wopt);
  StreamGen gen(kSeed);
  size_t offered = 0;
  auto pump_n = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      auto u = gen.Next();
      ASSERT_TRUE(rig.service->Offer(u.relation, u.key, u.mult));
      ++offered;
      if (offered % 64 == 0) rig.service->PumpOnce(/*force_flush=*/true);
    }
    rig.service->DrainNow();
  };
  pump_n(400);
  const CheckpointMeta oldest = rig.ckpt->WriteCheckpoint();
  pump_n(400);
  rig.ckpt->WriteCheckpoint();
  pump_n(400);
  // Unfaulted, the next checkpoint would unlink all but the active segment
  // and collect `oldest` (Checkpointer keeps 2).
  const std::vector<std::string> segments = ListWalSegments(td.path());
  ASSERT_GT(segments.size(), 2u);

  auto& fp = util::FailPointRegistry::Default();
  fp.ArmNth("durability.sync_dir", 1);
  EXPECT_THROW(rig.ckpt->WriteCheckpoint(), util::InjectedFault);
  fp.DisarmAll();
  EXPECT_EQ(ListWalSegments(td.path()), segments);
  const std::vector<CheckpointMeta> ckpts = ListCheckpoints(td.path());
  ASSERT_EQ(ckpts.size(), 3u);  // the renamed image stays listed too
  EXPECT_EQ(ckpts.front().path, oldest.path);

  pump_n(200);
  const CheckpointMeta last = rig.ckpt->WriteCheckpoint();
  Rig recovered;
  RecoveryResult rr = RecoverInto(&recovered, td.path());
  EXPECT_TRUE(rr.checkpoint_loaded);
  EXPECT_EQ(rr.checkpoint_lsn, last.lsn);
  EXPECT_EQ(rr.update_count, offered);

  Rig twin;
  FeedReference(&*twin.engine, twin.query, kSeed, offered);
  EXPECT_TRUE(exec::StoresContentEqual(*recovered.engine, *twin.engine));
}

}  // namespace
}  // namespace fivm::durability
