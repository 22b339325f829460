// Micro benchmarks for the keyed-relation substrate: point updates, index
// probes, joins, and marginalization — the inner loops of every IVM
// strategy in the figure harnesses.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/rings/lifting.h"
#include "src/rings/ring.h"
#include "src/util/flat_hash_map.h"
#include "src/util/group_table.h"
#include "src/util/rng.h"

namespace fivm {
namespace {

Relation<I64Ring> RandomRelation(size_t n, int64_t key_domain,
                                 util::Rng& rng) {
  Relation<I64Ring> rel(Schema{0, 1});
  for (size_t i = 0; i < n; ++i) {
    rel.Add(Tuple::Ints({rng.UniformInt(0, key_domain),
                         rng.UniformInt(0, key_domain)}),
            1);
  }
  return rel;
}

void BM_RelationAdd(benchmark::State& state) {
  util::Rng rng(1);
  Relation<I64Ring> rel(Schema{0, 1});
  int64_t i = 0;
  for (auto _ : state) {
    rel.Add(Tuple::Ints({i & 0xffff, i >> 16}), 1);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RelationAdd);

void BM_RelationFind(benchmark::State& state) {
  util::Rng rng(2);
  auto rel = RandomRelation(100000, 1 << 16, rng);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rel.Find(Tuple::Ints({i % (1 << 16), (i * 7) % (1 << 16)})));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RelationFind);

/// Pure probe-hit path: every probe key is present, keys are pre-built so
/// the loop measures the primary-index probe (control-group scan + cell +
/// entry compare), not tuple construction. The PR 4 acceptance micro.
void BM_ProbeHit(benchmark::State& state) {
  util::Rng rng(21);
  Relation<I64Ring> rel(Schema{0, 1});
  std::vector<Tuple> keys;
  keys.reserve(100000);
  for (int64_t i = 0; i < 100000; ++i) {
    Tuple t = Tuple::Ints({i, rng.UniformInt(0, 1 << 20)});
    rel.Add(t, 1);
    keys.push_back(std::move(t));
  }
  // Shuffled probe order: consecutive probes share no cache line, as in a
  // real delta join against a large store.
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel.Find(keys[i]));
    if (++i == keys.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeHit);

#if !defined(FIVM_AB_PR3_SHIM)
/// The probe-hit pattern as the engine actually runs it (full-key join
/// loops, relation_ops.h): software-pipelined, hashing and prefetching 8
/// probes ahead so independent probes' index-line latency overlaps instead
/// of serializing per probe. This is the PR 4 acceptance hit micro; the
/// unpipelined BM_ProbeHit above isolates the single-probe chain.
void BM_ProbeHitPipelined(benchmark::State& state) {
  util::Rng rng(21);
  Relation<I64Ring> rel(Schema{0, 1});
  std::vector<Tuple> keys;
  keys.reserve(100000);
  for (int64_t i = 0; i < 100000; ++i) {
    Tuple t = Tuple::Ints({i, rng.UniformInt(0, 1 << 20)});
    rel.Add(t, 1);
    keys.push_back(std::move(t));
  }
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  constexpr size_t kPipe = 8;
  size_t i = 0;
  for (auto _ : state) {
    rel.PrefetchFind(keys[(i + kPipe) % keys.size()].Hash());
    benchmark::DoNotOptimize(rel.Find(keys[i]));
    if (++i == keys.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeHitPipelined);
#endif  // !FIVM_AB_PR3_SHIM

/// Pure probe-miss path: absent keys with random hashes — the probe should
/// end at the first control group with an empty slot, without loading any
/// {hash, slot} cell. The PR 4 acceptance micro.
void BM_ProbeMiss(benchmark::State& state) {
  util::Rng rng(22);
  Relation<I64Ring> rel(Schema{0, 1});
  for (int64_t i = 0; i < 100000; ++i) {
    rel.Add(Tuple::Ints({i, rng.UniformInt(0, 1 << 20)}), 1);
  }
  std::vector<Tuple> keys;
  keys.reserve(100000);
  for (int64_t i = 0; i < 100000; ++i) {
    keys.push_back(Tuple::Ints({200000 + i, rng.UniformInt(0, 1 << 20)}));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel.Find(keys[i]));
    if (++i == keys.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeMiss);

/// Fresh-key inserts into a presized relation: the one-pass
/// LookupOrInsert miss path (probe to first empty + claim), no growth
/// rehashes in the timed region.
void BM_InsertFresh(benchmark::State& state) {
  util::Rng rng(23);
  const size_t n = 100000;
  std::vector<Tuple> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(Tuple::Ints({static_cast<int64_t>(i),
                                rng.UniformInt(0, 1 << 20)}));
  }
  for (auto _ : state) {
    state.PauseTiming();
    Relation<I64Ring> rel(Schema{0, 1});
    rel.Reserve(n);
    state.ResumeTiming();
    for (const Tuple& k : keys) rel.Add(k, 1);
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InsertFresh);

/// Steady-state erase/insert churn on the map behind the secondary
/// indexes: deletion (tombstone or re-empty) plus tombstone-reusing
/// reinsertion at constant size.
void BM_EraseChurn(benchmark::State& state) {
  util::Rng rng(24);
  util::FlatHashMap<Tuple, int64_t, TupleHash> map;
  const int64_t n = 65536;
  for (int64_t i = 0; i < n; ++i) map.Insert(Tuple::Ints({i, i}), i);
  std::vector<Tuple> keys;
  keys.reserve(n);
  for (int64_t i = 0; i < n; ++i) keys.push_back(Tuple::Ints({i, i}));
  size_t i = 0;
  for (auto _ : state) {
    const Tuple& k = keys[i];
    if (!map.Erase(k)) map.Insert(k, 1);
    if (++i == keys.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EraseChurn);

void BM_SecondaryIndexProbe(benchmark::State& state) {
  util::Rng rng(3);
  auto rel = RandomRelation(100000, 1 << 10, rng);
  const auto& idx = rel.IndexOn(Schema{0});
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Probe(Tuple::Ints({i % (1 << 10)})));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SecondaryIndexProbe);

void BM_Join(benchmark::State& state) {
  util::Rng rng(4);
  size_t n = static_cast<size_t>(state.range(0));
  Relation<I64Ring> left(Schema{0, 1});
  Relation<I64Ring> right(Schema{1, 2});
  for (size_t i = 0; i < n; ++i) {
    left.Add(Tuple::Ints({rng.UniformInt(0, 999), rng.UniformInt(0, 99)}), 1);
    right.Add(Tuple::Ints({rng.UniformInt(0, 99), rng.UniformInt(0, 999)}),
              1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Join(left, right));
  }
}
BENCHMARK(BM_Join)->Arg(1000)->Arg(10000);

void BM_JoinAndMarginalize(benchmark::State& state) {
  util::Rng rng(5);
  size_t n = static_cast<size_t>(state.range(0));
  Relation<I64Ring> left(Schema{0, 1});
  Relation<I64Ring> right(Schema{1, 2});
  for (size_t i = 0; i < n; ++i) {
    left.Add(Tuple::Ints({rng.UniformInt(0, 999), rng.UniformInt(0, 99)}), 1);
    right.Add(Tuple::Ints({rng.UniformInt(0, 99), rng.UniformInt(0, 999)}),
              1);
  }
  LiftingMap<I64Ring> lifts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JoinAndMarginalize(left, right, Schema{1, 2}, lifts));
  }
}
BENCHMARK(BM_JoinAndMarginalize)->Arg(1000)->Arg(10000);

/// The home-order sweep effect, answered from one process. Args: (order,
/// delta size); order 0 = arrival, 2 = keys presorted by destination home
/// group before timing. The store prefill scales with the delta (≈3×),
/// keeping the index around 60-75% load at every size. Order 2 beats order
/// 0 by 1.1×/1.13×/1.7× at 2k/16k/190k, but no in-absorb ordering keeps
/// that win once the sort is timed (see the note in relation_ops.h).
void BM_AbsorbHashOrdered(benchmark::State& state) {
  util::Rng rng(7);
  const size_t n = static_cast<size_t>(state.range(1));
  const size_t prefill = n * 3;
  std::vector<Tuple> prefill_keys, keys;
  prefill_keys.reserve(prefill);
  keys.reserve(n);
  for (size_t i = 0; i < prefill; ++i) {
    prefill_keys.push_back(
        Tuple::Ints({static_cast<int64_t>(i), rng.UniformInt(0, 1 << 20)}));
  }
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(Tuple::Ints({static_cast<int64_t>(prefill + i),
                                rng.UniformInt(0, 1 << 20)}));
  }
  const bool presorted = state.range(0) == 2;
  if (presorted) {
    // Home group = (hash >> 7) & (groups - 1), matching the final table
    // the absorb ends at (util::GroupHomeIndex) — sorting by unrelated hash
    // bits would leave home groups random and measure nothing.
    const size_t final_cap = util::GroupCapacityFor(prefill + n);
    std::sort(keys.begin(), keys.end(),
              [final_cap](const Tuple& a, const Tuple& b) {
                return util::GroupHomeIndex(a.Hash(), final_cap) <
                       util::GroupHomeIndex(b.Hash(), final_cap);
              });
  }
  for (auto _ : state) {
    state.PauseTiming();
    Relation<I64Ring> store(Schema{0, 1});
    for (const Tuple& k : prefill_keys) store.Add(k, 1);
    state.ResumeTiming();
    if (presorted) store.Reserve(prefill + n);
    for (const Tuple& k : keys) store.Add(k, 1);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AbsorbHashOrdered)
    ->Args({0, 2048})
    ->Args({2, 2048})
    ->Args({0, 16384})
    ->Args({2, 16384})
    ->Args({0, 190000})
    ->Args({2, 190000})
    ->Unit(benchmark::kMillisecond);

void BM_Marginalize(benchmark::State& state) {
  util::Rng rng(6);
  auto rel = RandomRelation(static_cast<size_t>(state.range(0)), 1 << 10,
                            rng);
  LiftingMap<I64Ring> lifts;
  lifts.Set(1, [](const Value& x) { return x.AsInt(); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(Marginalize(rel, Schema{1}, lifts));
  }
}
BENCHMARK(BM_Marginalize)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace fivm

BENCHMARK_MAIN();
