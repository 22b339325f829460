// Concurrent reader/writer fuzz over the snapshot server: N reader threads
// issue point lookups and scans against pinned snapshots while one writer
// propagates randomized insert/delete batches and publishes each, with
// merges running inline on the writer thread. The invariant under
// test is prefix consistency: every snapshot equals the store state after
// exactly its pinned prefix of published batches — never a torn batch,
// never a vanished one. These tests are workload for the TSan/ASan CI jobs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/relation_ops.h"
#include "src/rings/ring.h"
#include "src/serve/snapshot_server.h"
#include "src/util/rng.h"

namespace fivm::serve {
namespace {

using Rel = Relation<I64Ring>;
using Server = SnapshotServer<I64Ring>;

constexpr int64_t kDomainA = 48;
constexpr int64_t kDomainBC = 12;

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

  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C;
  VariableOrder vo;
  std::optional<ViewTree> tree;
  std::optional<IvmEngine<I64Ring>> engine;
};

/// One randomized ±1 batch against R and S (small domains force heavy key
/// collisions, cancellations, and join-partner churn).
void ApplyRandomBatch(Fixture& f, util::Rng& rng, size_t updates) {
  Rel delta_r(f.query.relation(0).schema);
  Rel delta_s(f.query.relation(1).schema);
  for (size_t i = 0; i < updates; ++i) {
    int64_t mult = rng.Bernoulli(0.3) ? -1 : 1;
    if (rng.Bernoulli(0.5)) {
      delta_r.Add(Tuple::Ints({rng.UniformInt(0, kDomainA),
                               rng.UniformInt(0, kDomainBC)}),
                  mult);
    } else {
      delta_s.Add(Tuple::Ints({rng.UniformInt(0, kDomainBC),
                               rng.UniformInt(0, kDomainBC)}),
                  mult);
    }
  }
  if (!delta_r.empty()) f.engine->ApplyDelta(0, std::move(delta_r));
  if (!delta_s.empty()) f.engine->ApplyDelta(1, std::move(delta_s));
}

struct FuzzResult {
  std::atomic<uint64_t> reader_iterations{0};
  std::atomic<uint64_t> scan_mismatches{0};
  std::atomic<uint64_t> lookup_mismatches{0};
  std::atomic<uint64_t> seq_regressions{0};
};

/// Runs `batches` published writer batches, with a MergeStep after every
/// fifth, against `readers` validating threads. `refs[s]` is the
/// writer-recorded root-store state after batch s, written *before* the
/// publish that exposes sequence s (the reader observing seq s through the
/// acquire load therefore reads it race-free).
void RunFuzz(Fixture& f, Server& server, size_t readers, size_t batches,
             size_t updates_per_batch, FuzzResult& out) {
  std::vector<Rel> refs(batches + 2);
  refs[0] = Rel(f.engine->result());
  std::atomic<bool> done{false};

  std::vector<std::thread> reader_threads;
  for (size_t t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&, t] {
      util::Rng rng(1000 + 31 * t);
      uint64_t last_seq = 0;
      // `first` guarantees one full validation pass per reader even if the
      // writer finishes before this thread is ever scheduled (a starved
      // 1-core box under load) — the reader_iterations > 0 assertions in
      // the tests must not depend on scheduler fairness.
      bool first = true;
      while (first || !done.load(std::memory_order_acquire)) {
        first = false;
        auto snap = server.Acquire();
        uint64_t s = snap.seq();
        if (s < last_seq) out.seq_regressions.fetch_add(1);
        last_seq = s;
        const Rel& ref = refs[s];
        // Full scan: every emitted key/payload must exist in the reference
        // and the live-key count must match exactly.
        size_t n = 0;
        bool scan_ok = true;
        snap.ForEach([&](const Tuple& k, const int64_t& v) {
          const int64_t* e = ref.Find(k);
          if (e == nullptr || *e != v) scan_ok = false;
          ++n;
        });
        if (!scan_ok || n != ref.size()) out.scan_mismatches.fetch_add(1);
        // Random point lookups, hit and miss alike.
        for (int i = 0; i < 24; ++i) {
          Tuple key = Tuple::Ints({rng.UniformInt(0, kDomainA)});
          int64_t got = 0;
          bool present = snap.Lookup(key, &got);
          const int64_t* e = ref.Find(key);
          if (present != (e != nullptr) || (e != nullptr && got != *e)) {
            out.lookup_mismatches.fetch_add(1);
          }
        }
        out.reader_iterations.fetch_add(1);
      }
    });
  }

  util::Rng wrng(77);
  uint64_t last = 0;
  for (size_t b = 0; b < batches; ++b) {
    ApplyRandomBatch(f, wrng, updates_per_batch);
    refs[last + 1] = Rel(f.engine->result());
    uint64_t seq = server.Publish();
    if (seq != last) {
      ASSERT_EQ(seq, last + 1);
      last = seq;
    }
    if (b % 5 == 4) server.MergeStep();
  }
  done.store(true, std::memory_order_release);
  for (auto& th : reader_threads) th.join();
}

TEST(ServeConcurrentTest, ReadersStayPrefixConsistentUnderInlineMerges) {
  Fixture f;
  MergePolicy policy;
  policy.max_segments = 3;
  policy.max_diff_keys = 256;
  Server server(&*f.engine, policy);

  FuzzResult r;
  RunFuzz(f, server, /*readers=*/4, /*batches=*/120,
          /*updates_per_batch=*/48, r);

  EXPECT_EQ(r.scan_mismatches.load(), 0u);
  EXPECT_EQ(r.lookup_mismatches.load(), 0u);
  EXPECT_EQ(r.seq_regressions.load(), 0u);
  EXPECT_GT(r.reader_iterations.load(), 0u);
  EXPECT_GT(server.MergeCount(), 0u);

  server.MergeNow();
  server.Reclaim();
  auto snap = server.Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

TEST(ServeConcurrentTest, PinnedSnapshotSurvivesMergesAndReclamation) {
  // A long-lived snapshot pinned at an early version must keep reading its
  // exact prefix while merges retire base generations underneath it, and
  // its generation's memory must be freed only after it drains.
  Fixture f;
  util::Rng rng(5);
  ApplyRandomBatch(f, rng, 128);
  MergePolicy policy;
  policy.max_segments = 2;
  Server server(&*f.engine, policy);
  Rel ref0 = Rel(f.engine->result());

  std::optional<Server::Snapshot> pinned(server.Acquire());
  uint64_t freed_before = server.ReclaimedGenerations();

  for (int b = 0; b < 60; ++b) {
    ApplyRandomBatch(f, rng, 32);
    server.Publish();
    server.MergeStep();
    server.Reclaim();
    if (b % 10 == 0) {
      ASSERT_TRUE(ContentEquals(pinned->Materialize(), ref0)) << "batch " << b;
    }
  }

  EXPECT_TRUE(ContentEquals(pinned->Materialize(), ref0));
  EXPECT_EQ(server.ReclaimedGenerations(), freed_before)
      << "generation freed while a snapshot could still read it";
  pinned.reset();
  server.MergeNow();
  server.Reclaim();
  EXPECT_GT(server.ReclaimedGenerations(), freed_before);
  auto snap = server.Acquire();
  EXPECT_TRUE(ContentEquals(snap.Materialize(), f.engine->result()));
}

}  // namespace
}  // namespace fivm::serve
