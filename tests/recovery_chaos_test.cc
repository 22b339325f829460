// Crash-chaos harness: fork a child that resumes ingest from whatever is on
// disk, arm ONE kill-mode failpoint (a real ::_exit at the site — nothing
// unwinds, nothing flushes), let it die, then verify in the parent that
// recovery reproduces *exactly* the reference prefix the durable log
// prescribes. Rounds repeat — each child recovers from the previous child's
// corpse — until the stream completes, across several seeds, rotating the
// kill through every durability site:
//
//   wal.append   torn frame (kill between header and body writes)
//   wal.fsync    window written but never acknowledged
//   wal.rotate   kill at the segment boundary
//   ckpt.write   partial .tmp image
//   ckpt.rename  complete but uninstalled .tmp image
//
// The acceptance bar (ISSUE PR10): >= 200 injected kills across seeds
// spanning all five sites with zero recovered-state divergences. Knobs:
//   FIVM_RCHAOS_SEED       base seed            (default 90001)
//   FIVM_RCHAOS_UPDATES    stream length/seed   (default 1500)
//   FIVM_RCHAOS_MIN_KILLS  kill floor           (default 200)
//   FIVM_RCHAOS_MAX_SEEDS  safety cap           (default 64)

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/relation_ops.h"
#include "src/durability/checkpoint.h"
#include "src/durability/recovery.h"
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

int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoll(v, nullptr, 10) : def;
}

class TempDir {
 public:
  TempDir() {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "/tmp/fivm_rchaos_%d_XXXXXX",
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

/// Same two-relation pipeline as recovery_test.cc, but the WAL is opened
/// only AFTER recovery has run (AttachDurability) — a resumed writer must
/// be seeded with the recovered LSN/update-index, which recovery produces.
struct Rig {
  Rig() {
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
  }

  /// Builds the server after recovery, so it freezes the recovered stores.
  void AttachDurability(const std::string& dir, const RecoveryResult& rr,
                        size_t checkpoint_every) {
    server.emplace(&*engine);
    WalWriter::Options wopt;
    wopt.max_segment_bytes = 1024;  // rotate often: "wal.rotate" must fire
    wal.emplace(dir, wopt, rr.last_lsn, rr.update_count);
    ckpt.emplace(dir, &*engine, &*wal);
    ServiceOptions opts;
    opts.flush_updates = 128;
    opts.retry_backoff = std::chrono::microseconds(1);
    opts.retry_backoff_cap = std::chrono::microseconds(64);
    opts.max_retries = 4;
    opts.durability = DurabilityPolicy::kWindow;
    opts.checkpoint_every_flushes = checkpoint_every;
    opts.default_queue = {AdmissionPolicy::kBlock, /*capacity=*/1 << 20};
    service.emplace(&*engine, &*executor, &*batcher, &*server, opts);
    service->AttachDurability(&*wal, &*ckpt);
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

/// Deterministic seeded insert/delete stream (identical to
/// recovery_test.cc's — children regenerate it to resume mid-stream).
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

// Child exit codes beyond util::kKillExitCode (86 = armed kill fired).
constexpr int kChildDone = 0;
constexpr int kChildGapDetected = 90;
constexpr int kChildOfferFailed = 91;
constexpr int kChildException = 92;

/// Forked child body: recover from `dir`, resume the seeded stream from
/// the durable position, run with ONE kill site armed, ::_exit. Never uses
/// gtest assertions and never returns normally (a forked gtest process
/// must not run test teardown).
[[noreturn]] void ChildRun(const std::string& dir, uint64_t seed,
                           uint64_t total_updates, const char* site,
                           uint64_t nth) {
  try {
    Rig rig;
    RecoveryResult rr =
        Recover(dir, &*rig.engine, &*rig.batcher, &*rig.executor);
    if (rr.gap_detected) ::_exit(kChildGapDetected);
    rig.AttachDurability(dir, rr, /*checkpoint_every=*/2);

    // Fast-forward the generator over the already-durable prefix.
    StreamGen gen(seed);
    for (uint64_t i = 0; i < rr.update_count; ++i) gen.Next();

    util::FailPointRegistry::Default().ArmNth(site, nth,
                                              util::FailAction::kKill);
    for (uint64_t i = rr.update_count; i < total_updates; ++i) {
      auto u = gen.Next();
      if (!rig.service->Offer(u.relation, u.key, u.mult)) {
        ::_exit(kChildOfferFailed);
      }
      if ((i + 1) % 16 == 0) rig.service->PumpOnce(/*force_flush=*/true);
    }
    rig.service->DrainNow();
  } catch (...) {
    ::_exit(kChildException);
  }
  ::_exit(kChildDone);
}

/// Parent-side oracle: recover `dir` into a fresh rig and demand exact
/// equality with a fault-free reference fed the same stream prefix — both
/// the materialized stores and a snapshot served by a server built after
/// recovery.
/// Returns the durable update count.
uint64_t VerifyDurableState(const std::string& dir, uint64_t seed) {
  Rig rec;
  RecoveryResult rr =
      Recover(dir, &*rec.engine, &*rec.batcher, &*rec.executor);
  EXPECT_FALSE(rr.gap_detected);

  Rig ref;
  StreamGen gen(seed);
  for (uint64_t i = 0; i < rr.update_count; ++i) {
    auto u = gen.Next();
    Relation<I64Ring> delta(ref.query.relation(u.relation).schema);
    delta.Add(u.key, u.mult);
    ref.engine->ApplyDelta(u.relation, std::move(delta));
  }
  EXPECT_TRUE(exec::StoresContentEqual(*rec.engine, *ref.engine))
      << "divergence at durable update_count=" << rr.update_count;

  rec.server.emplace(&*rec.engine);
  auto snap = rec.server->Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), ref.engine->result()));
  return rr.update_count;
}

struct KillSite {
  const char* name;
  uint64_t max_nth;  // nth drawn from [1, max_nth]: site eval frequency varies
};

constexpr KillSite kSites[] = {
    {"wal.append", 8},  {"wal.fsync", 5},   {"wal.rotate", 3},
    {"ckpt.write", 2},  {"ckpt.rename", 2},
};
constexpr size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);

// Deterministic smoke round: one kill at the very first append, then
// recover — isolates the harness mechanics from the long sweep below.
TEST(RecoveryChaosTest, SingleKillAtFirstAppendRecovers) {
  TempDir td;
  constexpr uint64_t kSeed = 91001;
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ChildRun(td.path(), kSeed, 400, "wal.append", 1);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), util::kKillExitCode);
  // First append died mid-frame: durable prefix is empty but consistent.
  uint64_t durable = VerifyDurableState(td.path(), kSeed);
  EXPECT_EQ(durable, 0u);

  // A second, unkilled child finishes the stream on top of the corpse.
  pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ChildRun(td.path(), kSeed, 400, "wal.append", 1u << 30);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildDone);
  EXPECT_EQ(VerifyDurableState(td.path(), kSeed), 400u);
}

// The sweep. Every round forks a child on the same log dir with the kill
// rotated round-robin through all five sites and a randomized fire index;
// the parent verifies the durable state after every death and checks that
// durability never regresses. Seeds advance until the kill floor is met.
TEST(RecoveryChaosTest, KillSweepAllSitesZeroDivergence) {
  const uint64_t base_seed =
      static_cast<uint64_t>(EnvInt("FIVM_RCHAOS_SEED", 90001));
  const uint64_t total_updates =
      static_cast<uint64_t>(EnvInt("FIVM_RCHAOS_UPDATES", 1500));
  const int64_t min_kills = EnvInt("FIVM_RCHAOS_MIN_KILLS", 200);
  const int64_t max_seeds = EnvInt("FIVM_RCHAOS_MAX_SEEDS", 64);
  constexpr int kMaxRoundsPerSeed = 600;
  constexpr int kMinSeeds = 3;

  std::map<std::string, int64_t> kills;
  int64_t total_kills = 0;
  int64_t seeds_done = 0;
  size_t site_rr = 0;
  util::Rng rng(base_seed ^ 0xC4A05u);

  for (int64_t s = 0; s < max_seeds; ++s) {
    bool all_sites = true;
    for (const KillSite& site : kSites) {
      all_sites = all_sites && kills[site.name] > 0;
    }
    if (total_kills >= min_kills && seeds_done >= kMinSeeds && all_sites) {
      break;
    }
    const uint64_t seed = base_seed + static_cast<uint64_t>(s);
    TempDir td;
    uint64_t durable = 0;
    bool done = false;
    for (int round = 0; round < kMaxRoundsPerSeed && !done; ++round) {
      const KillSite& site = kSites[site_rr % kNumSites];
      ++site_rr;
      const uint64_t nth =
          1 + static_cast<uint64_t>(
                  rng.UniformInt(0, static_cast<int64_t>(site.max_nth) - 1));

      pid_t pid = fork();  // parent is single-threaded here: rigs are scoped
      ASSERT_GE(pid, 0);
      if (pid == 0) ChildRun(td.path(), seed, total_updates, site.name, nth);
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status))
          << "seed=" << seed << " round=" << round << " site=" << site.name
          << " raw status=" << status;
      const int code = WEXITSTATUS(status);
      if (code == util::kKillExitCode) {
        ++kills[site.name];
        ++total_kills;
      } else {
        ASSERT_EQ(code, kChildDone)
            << "seed=" << seed << " round=" << round << " site=" << site.name
            << " nth=" << nth;
      }

      const uint64_t now_durable = VerifyDurableState(td.path(), seed);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "divergence: seed=" << seed << " round=" << round
               << " site=" << site.name << " nth=" << nth
               << " durable=" << now_durable;
      }
      ASSERT_GE(now_durable, durable) << "durability regressed: seed=" << seed
                                      << " round=" << round;
      durable = now_durable;
      if (code == kChildDone) {
        ASSERT_EQ(durable, total_updates);
        done = true;
      }
    }
    ASSERT_TRUE(done) << "seed " << seed << " never completed its stream";
    ++seeds_done;
  }

  EXPECT_GE(total_kills, min_kills);
  EXPECT_GE(seeds_done, kMinSeeds);
  for (const KillSite& site : kSites) {
    EXPECT_GE(kills[site.name], 1) << "site never killed: " << site.name;
  }
  std::printf("[rchaos] kills=%lld seeds=%lld |", (long long)total_kills,
              (long long)seeds_done);
  for (const KillSite& site : kSites) {
    std::printf(" %s=%lld", site.name, (long long)kills[site.name]);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace fivm::durability
