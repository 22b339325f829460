// Mixed reader/writer serving benchmark over src/serve/: one writer thread
// streams randomized insert/delete batches through DeltaBatcher +
// ParallelExecutor with publish-per-batch and stepped merges, while N
// reader threads hammer epoch-pinned snapshots with point lookups (and
// periodic scans). Reported per arm (readers ∈ {0, 1, 4}):
//
//   - writer throughput (SERIES row; wall-clock) and the paired user-CPU
//     writer cost backing the SPEEDUP "r4 vs r0" row — the acceptance bar
//     is ≥0.9x at 4 readers, i.e. concurrent readers may not steal more
//     than 10% of the writer's own CPU work (wall-clock on a shared box
//     conflates scheduling; thread CPU time does not);
//   - read latency percentiles (LATENCY rows, unit=read);
//   - update-visibility latency: oldest buffered update → published
//     (LATENCY rows, unit=batch, system serve_vis_rN);
//   - VERIFY rows: the final snapshot must equal the engine's root store;
//   - SERVE stats: serving counters, including how many merged base
//     generations were built by cloning rather than by folding into the
//     recycled spare.
//
// Knobs: FIVM_BENCH_UPDATES, FIVM_BENCH_BATCH, FIVM_BENCH_BASE,
// FIVM_BENCH_REPS, FIVM_BENCH_READ_RATE (per-reader lookups/s; 0 =
// unpaced saturation), plus the global FIVM_BENCH_SCALE.

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/relation_ops.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/parallel_executor.h"
#include "src/exec/thread_pool.h"
#include "src/rings/ring.h"
#include "src/serve/snapshot_server.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace fivm::bench {
namespace {

using Rel = Relation<I64Ring>;
using Server = serve::SnapshotServer<I64Ring>;

constexpr int64_t kDomainA = 20000;
constexpr int64_t kDomainBC = 2000;

struct Update {
  int relation;
  Tuple key;
  int8_t mult;  // +1 insert, -1 delete
};

/// CPU time consumed by the calling thread (user+sys), in seconds.
double ThreadCpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Q(A) = Σ R(A,B) ⋈ S(B,C): keyed root store, one sibling join on the
/// propagation path — the shape every serving arm runs against.
struct Fixture {
  explicit Fixture(size_t base_rows) {
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
    util::Rng rng(4242);
    for (size_t i = 0; i < base_rows; ++i) {
      db[0].Add(Tuple::Ints({rng.UniformInt(0, kDomainA - 1),
                             rng.UniformInt(0, kDomainBC - 1)}),
                1);
      if (i % 8 == 0) {
        db[1].Add(Tuple::Ints({rng.UniformInt(0, kDomainBC - 1),
                               rng.UniformInt(0, kDomainBC - 1)}),
                  1);
      }
    }
    engine->Initialize(db);
  }

  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C;
  VariableOrder vo;
  std::optional<ViewTree> tree;
  std::optional<IvmEngine<I64Ring>> engine;
};

std::vector<Update> MakeStream(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Update> stream;
  stream.reserve(n);
  std::vector<Tuple> live;
  for (size_t i = 0; i < n; ++i) {
    if (!live.empty() && rng.Bernoulli(0.2)) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      stream.push_back(Update{0, live[pick], -1});
      live[pick] = live.back();
      live.pop_back();
      continue;
    }
    Tuple t = Tuple::Ints({rng.UniformInt(0, kDomainA - 1),
                           rng.UniformInt(0, kDomainBC - 1)});
    live.push_back(t);
    stream.push_back(Update{0, std::move(t), 1});
  }
  return stream;
}

struct ArmResult {
  double writer_cpu_s = 0;
  double writer_wall_s = 0;
  uint64_t publishes = 0;
  uint64_t merges = 0;
  uint64_t cloned_generations = 0;
  uint64_t reclaimed_generations = 0;
};

/// One serving run: writer streams `stream` in `batch`-sized published
/// batches against `readers` concurrent snapshot readers. Read and
/// visibility latencies accumulate into the passed histograms across reps.
///
/// Readers are closed-loop at `read_rate` lookups/s each (0 = unpaced
/// saturation): on a box with fewer cores than threads, unpaced readers
/// measure cache-capacity oversubscription — every runnable thread evicts
/// the writer's working set each timeslice, a cost no reader design
/// avoids and one that vanishes once readers have their own cores. The
/// paced default loads the read path hard enough to keep its latency
/// distribution and the differential-hit machinery honest while the
/// writer-CPU ratio isolates what serving *adds* to the write path
/// (locks, fences, shared-line traffic — which is the design claim).
ArmResult RunArm(const std::vector<Update>& stream, size_t base_rows,
                 size_t batch, size_t readers, int64_t read_rate,
                 obs::Histogram* read_ns, obs::Histogram* vis_ns, bool verify,
                 const char* name) {
  Fixture f(base_rows);
  serve::MergePolicy policy;
  policy.max_segments = 4;
  policy.max_diff_keys = 8 * batch;
  Server server(&*f.engine, policy);

  exec::ThreadPool pool(2);
  exec::ParallelExecutor<I64Ring> executor(&*f.engine, &pool, {.shards = 2});
  executor.SetPostBatchHook([&server] { server.Publish(); });
  exec::DeltaBatcher<I64Ring> batcher(&f.engine->plans(), batch);

  std::atomic<bool> done{false};
  std::vector<std::thread> reader_threads;
  for (size_t t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&, t] {
      util::Rng rng(100 + t);
      std::vector<Tuple> keys;
      keys.reserve(256);
      for (int i = 0; i < 256; ++i) {
        keys.push_back(Tuple::Ints({rng.UniformInt(0, kDomainA - 1)}));
      }
      int64_t sink = 0;
      uint64_t iter = 0;
      // Closed-loop pacing: one round = 256 lookups; sleep to the next
      // round deadline when ahead of the target rate.
      const auto round_period =
          read_rate > 0 ? std::chrono::nanoseconds(
                              256 * 1000000000LL / read_rate)
                        : std::chrono::nanoseconds(0);
      auto next_round = std::chrono::steady_clock::now();
      while (!done.load(std::memory_order_acquire)) {
        auto snap = server.Acquire();
        for (const Tuple& k : keys) {
          uint64_t t0 = obs::TickClock::Now();
          int64_t out = 0;
          if (snap.Lookup(k, &out)) sink += out;
          read_ns->RecordTicks(obs::TickClock::Now() - t0);
        }
        if (++iter % 128 == 0) {
          // Periodic scan keeps the segment-claimed dedup path warm.
          snap.ForEach([&sink](const Tuple&, const int64_t& v) { sink += v; });
        }
        if (read_rate > 0) {
          next_round += round_period;
          std::this_thread::sleep_until(next_round);
        }
      }
      // Defeat dead-code elimination of the read results.
      std::atomic_signal_fence(std::memory_order_seq_cst);
      volatile int64_t keep = sink;
      (void)keep;
    });
  }

  util::Timer wall;
  double cpu0 = ThreadCpuSeconds();
  for (const Update& u : stream) {
    if (u.mult > 0) {
      batcher.PushInsert(u.relation, u.key);
    } else {
      batcher.PushDelete(u.relation, u.key);
    }
    if (batcher.Full()) {
      uint64_t staged = batcher.first_push_ticks();
      executor.Drain(batcher);
      vis_ns->RecordTicks(obs::TickClock::Now() - staged);
      server.MergeStep();
    }
  }
  {
    uint64_t staged = batcher.first_push_ticks();
    executor.Drain(batcher);
    if (staged != 0) vis_ns->RecordTicks(obs::TickClock::Now() - staged);
  }
  ArmResult r;
  r.writer_cpu_s = ThreadCpuSeconds() - cpu0;
  r.writer_wall_s = wall.ElapsedSeconds();

  done.store(true, std::memory_order_release);
  for (auto& th : reader_threads) th.join();

  if (verify) {
    server.Publish();
    server.MergeNow();
    auto snap = server.Acquire();
    bool equal = ContentEquals(snap.Materialize(), f.engine->result());
    std::printf("VERIFY %s: final snapshot %s engine root store "
                "(size %zu, %llu merges, %llu clones)\n",
                name, equal ? "==" : "!=", snap.Size(),
                static_cast<unsigned long long>(server.MergeCount()),
                static_cast<unsigned long long>(server.ClonedGenerations()));
  }
  r.publishes = server.PublishCount();
  r.merges = server.MergeCount();
  r.cloned_generations = server.ClonedGenerations();
  r.reclaimed_generations = server.ReclaimedGenerations();
  return r;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void RunServingArms() {
  const int64_t scale = BenchScale();
  const size_t updates =
      static_cast<size_t>(EnvInt("FIVM_BENCH_UPDATES", 100000 * scale));
  const size_t batch = static_cast<size_t>(EnvInt("FIVM_BENCH_BATCH", 512));
  const size_t base_rows =
      static_cast<size_t>(EnvInt("FIVM_BENCH_BASE", 40000 * scale));
  const size_t reps = static_cast<size_t>(EnvInt("FIVM_BENCH_REPS", 3));
  const int64_t read_rate = EnvInt("FIVM_BENCH_READ_RATE", 200000);
  const size_t reader_arms[] = {0, 1, 4};

  PrintHeader("bench_serve: snapshot reads under sustained writes");
  std::printf("updates=%zu batch=%zu base_rows=%zu reps=%zu (interleaved, "
              "median) read_rate=%lld/s per reader%s\n",
              updates, batch, base_rows, reps,
              static_cast<long long>(read_rate),
              read_rate == 0 ? " (unpaced saturation)" : "");

  auto stream = MakeStream(updates, /*seed=*/7);
  auto& reg = obs::MetricRegistry::Default();

  std::vector<std::vector<double>> cpu(3), wall_s(3);
  uint64_t publishes = 0, merges = 0, cloned_generations = 0,
           reclaimed_generations = 0;
  obs::Histogram* read_hist[3];
  obs::Histogram* vis_hist[3];
  const char* arm_name[] = {"serve_r0", "serve_r1", "serve_r4"};
  const char* vis_name[] = {"serve_vis_r0", "serve_vis_r1", "serve_vis_r4"};
  for (int a = 0; a < 3; ++a) {
    read_hist[a] = reg.GetHistogram(std::string("bench.read_ns.") + arm_name[a]);
    vis_hist[a] = reg.GetHistogram(std::string("bench.vis_ns.") + arm_name[a]);
  }

  // Interleaved repetitions so drift (thermal, cache layout, allocator
  // state) hits every arm equally; medians cancel the rest.
  for (size_t rep = 0; rep < reps; ++rep) {
    for (int a = 0; a < 3; ++a) {
      ArmResult r =
          RunArm(stream, base_rows, batch, reader_arms[a], read_rate,
                 read_hist[a], vis_hist[a], /*verify=*/rep == reps - 1,
                 arm_name[a]);
      cpu[a].push_back(r.writer_cpu_s);
      wall_s[a].push_back(r.writer_wall_s);
      publishes += r.publishes;
      merges += r.merges;
      cloned_generations += r.cloned_generations;
      reclaimed_generations += r.reclaimed_generations;
    }
  }

  for (int a = 0; a < 3; ++a) {
    PrintSeriesRow(arm_name[a], 1.0, updates, Median(wall_s[a]), MemoryMB());
  }
  for (int a = 0; a < 3; ++a) {
    PrintLatencyRow(arm_name[a], *read_hist[a], "read");
    PrintLatencyRow(vis_name[a], *vis_hist[a], "batch");
  }

  // Paired user-CPU comparison: how much writer work concurrent readers
  // cost. Wall-clock is reported in the series rows; the ratio here is the
  // ≥0.9x acceptance criterion (readers must not perturb the write path —
  // they share no lock with it).
  double r0 = Median(cpu[0]);
  std::printf("writer user-cpu per arm: r0=%.3fs r1=%.3fs r4=%.3fs\n",
              r0, Median(cpu[1]), Median(cpu[2]));
  if (Median(cpu[1]) > 0) {
    std::printf("SPEEDUP serve_writer_r1: writer user-cpu r1 vs r0 = %.2fx\n",
                r0 / Median(cpu[1]));
  }
  if (Median(cpu[2]) > 0) {
    std::printf("SPEEDUP serve_writer_r4: writer user-cpu r4 vs r0 = %.2fx\n",
                r0 / Median(cpu[2]));
  }

  // Serving counters, summed over all arms and reps (the CI smoke asserts
  // merges and differential hits are exercised, not just the merged base,
  // and that clones < merges: most merges fold into the recycled spare).
  std::printf("SERVE stats: publishes=%llu merges=%llu clones=%llu "
              "diff_hits=%llu base_hits=%llu reclaimed_generations=%llu\n",
              static_cast<unsigned long long>(publishes),
              static_cast<unsigned long long>(merges),
              static_cast<unsigned long long>(cloned_generations),
              static_cast<unsigned long long>(
                  reg.GetCounter("serve.diff_hits")->Value()),
              static_cast<unsigned long long>(
                  reg.GetCounter("serve.base_hits")->Value()),
              static_cast<unsigned long long>(reclaimed_generations));
}

}  // namespace
}  // namespace fivm::bench

int main() {
  fivm::bench::RunServingArms();
  return 0;
}
