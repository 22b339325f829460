// Microbenchmark for the delta-propagation hot path: small update batches
// joined (and marginalized) against large materialized sibling views, the
// inner loop of every IvmEngine::ApplyDelta step. Reported items/s is
// update-tuple throughput. Seeds are fixed so runs are reproducible and
// comparable across PRs (see bench/run_benches.sh → BENCH_PR1.json).

#include <benchmark/benchmark.h>

#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/rings/lifting.h"
#include "src/rings/regression_ring.h"
#include "src/rings/ring.h"
#include "src/util/rng.h"

namespace fivm {
namespace {

constexpr size_t kDeltaSize = 256;

// A materialized sibling view over schema {1, 2}.
Relation<I64Ring> MakeStore(size_t n, int64_t join_domain, int64_t payload_domain,
                            util::Rng& rng) {
  Relation<I64Ring> rel(Schema{1, 2});
  for (size_t i = 0; i < n; ++i) {
    rel.Add(Tuple::Ints({rng.UniformInt(0, join_domain - 1),
                         rng.UniformInt(0, payload_domain - 1)}),
            1);
  }
  return rel;
}

// A small update batch over schema {0, 1} (joins the store on variable 1).
Relation<I64Ring> MakeDelta(size_t n, int64_t join_domain, util::Rng& rng) {
  Relation<I64Ring> rel(Schema{0, 1});
  for (size_t i = 0; i < n; ++i) {
    rel.Add(Tuple::Ints({rng.UniformInt(0, 1 << 20),
                         rng.UniformInt(0, join_domain - 1)}),
            1);
  }
  return rel;
}

// δR ⊗ V: the non-fused join of an update batch with a sibling view.
void BM_DeltaJoin(benchmark::State& state) {
  util::Rng rng(11);
  auto store = MakeStore(static_cast<size_t>(state.range(0)), 1 << 10, 1 << 10,
                         rng);
  auto delta = MakeDelta(kDeltaSize, 1 << 10, rng);
  store.IndexOn(Schema{1});  // pre-built, as in steady-state maintenance
  for (auto _ : state) {
    benchmark::DoNotOptimize(Join(delta, store));
  }
  state.SetItemsProcessed(state.iterations() * kDeltaSize);
}
BENCHMARK(BM_DeltaJoin)->Arg(10000)->Arg(100000);

// ⊕_{1,2}(δR ⊗ V) with a SUM lifting: the fused operator used on the
// leaf-to-root path (Figure 4).
void BM_DeltaJoinAndMarginalize(benchmark::State& state) {
  util::Rng rng(12);
  auto store = MakeStore(static_cast<size_t>(state.range(0)), 1 << 10, 1 << 10,
                         rng);
  auto delta = MakeDelta(kDeltaSize, 1 << 10, rng);
  store.IndexOn(Schema{1});
  LiftingMap<I64Ring> lifts;
  lifts.Set(2, [](const Value& x) { return x.AsInt(); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JoinAndMarginalize(delta, store, Schema{1, 2}, lifts));
  }
  state.SetItemsProcessed(state.iterations() * kDeltaSize);
}
BENCHMARK(BM_DeltaJoinAndMarginalize)->Arg(10000)->Arg(100000);

// Wide (6-value) keys spill SmallVector's inline buffer, so projected probe
// keys heap-allocate unless the probe path is allocation-free.
void BM_DeltaJoinWideKeys(benchmark::State& state) {
  util::Rng rng(13);
  Relation<I64Ring> store(Schema{1, 2, 3, 4, 5, 6});
  for (size_t i = 0; i < 100000; ++i) {
    store.Add(Tuple::Ints({rng.UniformInt(0, 255), rng.UniformInt(0, 255),
                           rng.UniformInt(0, 255), rng.UniformInt(0, 255),
                           rng.UniformInt(0, 255), rng.UniformInt(0, 255)}),
              1);
  }
  Relation<I64Ring> delta(Schema{0, 1, 2, 3, 4});
  for (size_t i = 0; i < kDeltaSize; ++i) {
    delta.Add(Tuple::Ints({rng.UniformInt(0, 1 << 20), rng.UniformInt(0, 255),
                           rng.UniformInt(0, 255), rng.UniformInt(0, 255),
                           rng.UniformInt(0, 255)}),
              1);
  }
  store.IndexOn(Schema{1, 2, 3, 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Join(delta, store));
  }
  state.SetItemsProcessed(state.iterations() * kDeltaSize);
}
BENCHMARK(BM_DeltaJoinWideKeys);

// Two-hop propagation chain with running absorption into a root store:
// δ → ⊕(δ ⊗ S) → ⊕(· ⊗ T) → root. This is the data-layer shape of
// IvmEngine::ApplyDelta for a 3-relation path query.
void BM_DeltaPropagateChain(benchmark::State& state) {
  util::Rng rng(14);
  auto store_s = MakeStore(100000, 1 << 10, 1 << 10, rng);
  Relation<I64Ring> store_t(Schema{2, 3});
  for (size_t i = 0; i < 100000; ++i) {
    store_t.Add(Tuple::Ints({rng.UniformInt(0, (1 << 10) - 1),
                             rng.UniformInt(0, (1 << 10) - 1)}),
                1);
  }
  auto delta = MakeDelta(kDeltaSize, 1 << 10, rng);
  store_s.IndexOn(Schema{1});
  store_t.IndexOn(Schema{2});
  LiftingMap<I64Ring> lifts;
  Relation<I64Ring> root(Schema{0});
  for (auto _ : state) {
    auto d1 = JoinAndMarginalize(delta, store_s, Schema{1}, lifts);
    auto d2 = JoinAndMarginalize(d1, store_t, Schema{2, 3}, lifts);
    AbsorbInto(root, std::move(d2));
    benchmark::DoNotOptimize(root);
  }
  state.SetItemsProcessed(state.iterations() * kDeltaSize);
}
BENCHMARK(BM_DeltaPropagateChain);

// Same chain under the regression (cofactor) ring: heavy payloads, the
// workload shape of bench_fig13_triangle.
void BM_DeltaPropagateChainRegression(benchmark::State& state) {
  util::Rng rng(15);
  Relation<RegressionRing> store_s(Schema{1, 2});
  Relation<RegressionRing> store_t(Schema{2, 3});
  for (size_t i = 0; i < 20000; ++i) {
    store_s.Add(Tuple::Ints({rng.UniformInt(0, 511), rng.UniformInt(0, 511)}),
                RegressionRing::One());
    store_t.Add(Tuple::Ints({rng.UniformInt(0, 511), rng.UniformInt(0, 511)}),
                RegressionRing::One());
  }
  Relation<RegressionRing> delta(Schema{0, 1});
  for (size_t i = 0; i < kDeltaSize; ++i) {
    delta.Add(Tuple::Ints({rng.UniformInt(0, 1 << 20),
                           rng.UniformInt(0, 511)}),
              RegressionRing::One());
  }
  store_s.IndexOn(Schema{1});
  store_t.IndexOn(Schema{2});
  LiftingMap<RegressionRing> lifts;
  lifts.Set(1, RegressionLifting(0));
  lifts.Set(2, RegressionLifting(1));
  lifts.Set(3, RegressionLifting(2));
  Relation<RegressionRing> root(Schema{0});
  for (auto _ : state) {
    auto d1 = JoinAndMarginalize(delta, store_s, Schema{1}, lifts);
    auto d2 = JoinAndMarginalize(d1, store_t, Schema{2, 3}, lifts);
    AbsorbInto(root, std::move(d2));
    benchmark::DoNotOptimize(root);
  }
  state.SetItemsProcessed(state.iterations() * kDeltaSize);
}
BENCHMARK(BM_DeltaPropagateChainRegression);

}  // namespace
}  // namespace fivm

BENCHMARK_MAIN();
