// Ring-kernel micro benchmarks with explicit dispatch arms: every benchmark
// takes {cofactor width, arm} where arm 0 pins the scalar kernels and arm 1
// the AVX2 kernels (bit-identical results — see src/util/simd.h — so the
// ratio is pure kernel throughput). BM_RingAdd/BM_RingMul time the payload
// algebra the fig7 regression workloads spend their cycles in;
// BM_PayloadSweep times a relation-level absorb over the SoA payload pool
// (the store-merge pass of delta propagation). BM_RegressionLift and the
// BM_RelationalRing* rows time lifting and relational-ring payload algebra,
// which have no SIMD arm. Run via bench/run_benches.sh, which lands the JSON
// in BENCH_PR5.json.

#include <benchmark/benchmark.h>

#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/data/schema.h"
#include "src/data/tuple.h"
#include "src/rings/regression_ring.h"
#include "src/rings/relational_ring.h"
#include "src/rings/sparse_regression_ring.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace fivm {
namespace {

// Pins the requested dispatch arm; reports an error (instead of silently
// timing the scalar arm twice) when the AVX2 arm is unavailable.
bool PinArm(benchmark::State& state) {
  const bool want_avx2 = state.range(1) != 0;
  if (want_avx2 && !(simd::Avx2CompiledIn() && simd::Avx2Supported())) {
    state.SkipWithError("AVX2 arm not available on this build/CPU");
    return false;
  }
  simd::SetAvx2Active(want_avx2);
  return true;
}

RegressionPayload DensePayload(uint32_t lo, uint32_t width, util::Rng& rng) {
  RegressionPayload p = RegressionPayload::Count(1.0);
  for (uint32_t i = 0; i < width; ++i) {
    p = Mul(p, RegressionPayload::Lift(lo + i, rng.UniformDouble(-1, 1)));
  }
  return p;
}

void BM_RingAdd(benchmark::State& state) {
  if (!PinArm(state)) return;
  util::Rng rng(1);
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  auto acc = DensePayload(0, w, rng);
  const auto d = DensePayload(0, w, rng);  // identical range: flat kernel
  for (auto _ : state) {
    acc.AddInPlace(d);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingAdd)
    ->ArgNames({"w", "simd"})
    ->Args({2, 0})->Args({2, 1})
    ->Args({4, 0})->Args({4, 1})
    ->Args({8, 0})->Args({8, 1})
    ->Args({16, 0})->Args({16, 1})
    ->Args({27, 0})->Args({27, 1});

void BM_RingMul(benchmark::State& state) {
  if (!PinArm(state)) return;
  util::Rng rng(2);
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  // Disjoint slot ranges — the shape of every view-tree payload product
  // (sibling views and lifts cover disjoint variable sets) — through
  // MulInto with a reused output, the allocation-free form the
  // propagation term loops run (RingMulInto + scratch chaining).
  const auto a = DensePayload(0, w, rng);
  const auto b = DensePayload(w, w, rng);
  RegressionPayload out;
  for (auto _ : state) {
    MulInto(out, a, b);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingMul)
    ->ArgNames({"w", "simd"})
    ->Args({2, 0})->Args({2, 1})
    ->Args({4, 0})->Args({4, 1})
    ->Args({8, 0})->Args({8, 1})
    ->Args({16, 0})->Args({16, 1})
    ->Args({27, 0})->Args({27, 1});

void BM_RingMulAlloc(benchmark::State& state) {
  if (!PinArm(state)) return;
  util::Rng rng(2);
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  // The allocating form (fresh payload per product) for comparison with
  // BM_RingMul: the delta is the malloc/free pair the scratch chaining
  // removed from the term loops.
  const auto a = DensePayload(0, w, rng);
  const auto b = DensePayload(w, w, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mul(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingMulAlloc)
    ->ArgNames({"w", "simd"})
    ->Args({8, 0})->Args({8, 1})
    ->Args({27, 0})->Args({27, 1});

void BM_RingMulSparse(benchmark::State& state) {
  if (!PinArm(state)) return;
  util::Rng rng(3);
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  SparseRegressionPayload a = SparseRegressionPayload::Count(1.0);
  SparseRegressionPayload b = SparseRegressionPayload::Count(1.0);
  for (uint32_t i = 0; i < w; ++i) {
    a = Mul(a, SparseRegressionPayload::Lift(i, rng.UniformDouble(-1, 1)));
    b = Mul(b, SparseRegressionPayload::Lift(w + i, rng.UniformDouble(-1, 1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mul(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingMulSparse)
    ->ArgNames({"w", "simd"})
    ->Args({8, 0})->Args({8, 1})
    ->Args({21, 0})->Args({21, 1});

void BM_RingAddSparse(benchmark::State& state) {
  if (!PinArm(state)) return;
  util::Rng rng(4);
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  SparseRegressionPayload acc = SparseRegressionPayload::Count(1.0);
  SparseRegressionPayload d = SparseRegressionPayload::Count(1.0);
  for (uint32_t i = 0; i < w; ++i) {
    acc = Mul(acc, SparseRegressionPayload::Lift(i, rng.UniformDouble(-1, 1)));
    d = Mul(d, SparseRegressionPayload::Lift(i, rng.UniformDouble(-1, 1)));
  }
  // acc and d share the key layout: the identical-layout lane-kernel merge.
  for (auto _ : state) {
    acc.AddInPlace(d);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingAddSparse)
    ->ArgNames({"w", "simd"})
    ->Args({8, 0})->Args({8, 1})
    ->Args({21, 0})->Args({21, 1});

/// Relation-level payload pass: absorb a same-key delta into a store of
/// `kSweepKeys` entries — every Add lands on the AddInPlace hit path, so
/// the pass streams the payload pool (keys only feed index probes) and the
/// contained-range flat kernel does the arithmetic.
constexpr size_t kSweepKeys = 2048;

void BM_PayloadSweep(benchmark::State& state) {
  if (!PinArm(state)) return;
  util::Rng rng(5);
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  Relation<RegressionRing> store((Schema{0}));
  Relation<RegressionRing> delta((Schema{0}));
  store.Reserve(kSweepKeys);
  delta.Reserve(kSweepKeys);
  for (size_t i = 0; i < kSweepKeys; ++i) {
    Tuple key = Tuple::Ints({static_cast<int64_t>(i)});
    store.Add(key, DensePayload(0, w, rng));
    delta.Add(std::move(key), DensePayload(0, w, rng));
  }
  for (auto _ : state) {
    AbsorbInto(store, delta);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSweepKeys));
}
BENCHMARK(BM_PayloadSweep)
    ->ArgNames({"w", "simd"})
    ->Args({2, 0})->Args({2, 1})
    ->Args({8, 0})->Args({8, 1})
    ->Args({21, 0})->Args({21, 1});

// --- Lifting and relational-ring payloads (no dispatch arm) -------------

void BM_RegressionLift(benchmark::State& state) {
  double x = 3.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RegressionPayload::Lift(7, x));
  }
}
BENCHMARK(BM_RegressionLift);

void BM_RelationalRingCartesian(benchmark::State& state) {
  int64_t n = state.range(0);
  PayloadRelation a, b;
  for (int64_t i = 0; i < n; ++i) {
    a = Add(a, PayloadRelation::Singleton(0, Value::Int(i)));
    b = Add(b, PayloadRelation::Singleton(1, Value::Int(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mul(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RelationalRingCartesian)->Arg(4)->Arg(16)->Arg(64);

void BM_RelationalRingUnion(benchmark::State& state) {
  int64_t n = state.range(0);
  util::Rng rng(3);
  PayloadRelation a, b;
  for (int64_t i = 0; i < n; ++i) {
    a = Add(a, PayloadRelation::Singleton(0, Value::Int(rng.UniformInt(0, n))));
    b = Add(b, PayloadRelation::Singleton(0, Value::Int(rng.UniformInt(0, n))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Add(a, b));
  }
}
BENCHMARK(BM_RelationalRingUnion)->Arg(16)->Arg(256);

}  // namespace
}  // namespace fivm

BENCHMARK_MAIN();
