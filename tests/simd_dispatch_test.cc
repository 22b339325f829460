// Differential fuzz of the SIMD dispatch arms (src/util/simd.h): the AVX2
// and scalar kernels must agree *bitwise* — same per-element IEEE rounding,
// same ±0 handling, no FMA contraction — because the engine's bitwise
// equivalence guarantees (plan_equivalence_test, exec_parallel_test) hold
// on either dispatch path only if the ring arithmetic underneath is
// dispatch-invariant. Mirrors the SWAR-vs-SSE2 group fuzz in
// group_table_test.cc one layer up.
//
// On hardware without AVX2 (or with a compiler lacking -mavx2) both arms
// are the scalar loop and the comparisons are trivially true; the tests log
// a skip for the CI record instead of silently passing.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/rings/regression_ring.h"
#include "src/rings/sparse_regression_ring.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace fivm {
namespace {

// Toggles the dispatch arm for the duration of a scope.
class ArmGuard {
 public:
  explicit ArmGuard(bool avx2) : prev_(simd::SetAvx2Active(avx2)) {}
  ~ArmGuard() { simd::SetAvx2Active(prev_); }

 private:
  bool prev_;
};

bool BothArmsAvailable() {
  return simd::Avx2CompiledIn() && simd::Avx2Supported();
}

// Fuzz values: finite doubles with exact zeros, negative zeros, negatives,
// and subnormals mixed in — the corners where a skipped store, a fused
// multiply, or a re-associated sum would change bits.
double FuzzValue(util::Rng& rng) {
  switch (rng.Uniform(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return 5e-324;  // smallest subnormal
    case 3:
      return -1.0 / 3.0;
    default:
      return rng.UniformDouble(-8, 8);
  }
}

std::vector<double> FuzzArray(util::Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = FuzzValue(rng);
  return v;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(SimdDispatchTest, KernelsBitwiseEqualAcrossArms) {
  if (!BothArmsAvailable()) {
    GTEST_SKIP() << "AVX2 arm not available; scalar-only build or CPU";
  }
  util::Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = rng.Uniform(67);  // crosses the kMinAvx2Len cutoff
    const auto dst0 = FuzzArray(rng, n);
    const auto x = FuzzArray(rng, n);
    const auto y = FuzzArray(rng, n);
    const double a = FuzzValue(rng);
    const double b = FuzzValue(rng);

    auto run = [&](bool avx2) {
      ArmGuard guard(avx2);
      struct Out {
        std::vector<double> add, axpy, sum, scale, scale_pair, neg;
        bool any_nonzero;
      } o;
      o.add = dst0;
      simd::AddTo(o.add.data(), x.data(), n);
      o.axpy = dst0;
      simd::AxpyTo(o.axpy.data(), x.data(), a, n);
      o.sum.assign(n, 0.0);
      simd::SumTo(o.sum.data(), x.data(), y.data(), n);
      o.scale.assign(n, 0.0);
      simd::ScaleTo(o.scale.data(), x.data(), a, n);
      o.scale_pair.assign(n, 0.0);
      simd::ScalePairTo(o.scale_pair.data(), x.data(), y.data(), a, b, n);
      o.neg = dst0;
      simd::Negate(o.neg.data(), n);
      o.any_nonzero = simd::AnyNonZero(dst0.data(), n);
      return o;
    };

    auto scalar = run(false);
    auto avx2 = run(true);
    ASSERT_TRUE(BitEqual(scalar.add, avx2.add)) << "AddTo trial " << trial;
    ASSERT_TRUE(BitEqual(scalar.axpy, avx2.axpy)) << "AxpyTo trial " << trial;
    ASSERT_TRUE(BitEqual(scalar.sum, avx2.sum)) << "SumTo trial " << trial;
    ASSERT_TRUE(BitEqual(scalar.scale, avx2.scale))
        << "ScaleTo trial " << trial;
    ASSERT_TRUE(BitEqual(scalar.scale_pair, avx2.scale_pair))
        << "ScalePairTo trial " << trial;
    ASSERT_TRUE(BitEqual(scalar.neg, avx2.neg)) << "Negate trial " << trial;
    ASSERT_EQ(scalar.any_nonzero, avx2.any_nonzero)
        << "AnyNonZero trial " << trial;
  }
}

TEST(SimdDispatchTest, AnyNonZeroZeroCorners) {
  // ±0 count as zero, NaN as non-zero, on both arms, at lengths straddling
  // the vector width.
  for (bool arm : {false, true}) {
    if (arm && !BothArmsAvailable()) continue;
    ArmGuard guard(arm);
    for (size_t n : {0u, 1u, 4u, 8u, 9u, 16u, 33u}) {
      std::vector<double> zeros(n, 0.0);
      for (size_t i = 0; i + 1 < n; i += 2) zeros[i] = -0.0;
      EXPECT_FALSE(simd::AnyNonZero(zeros.data(), n)) << n << " arm " << arm;
      if (n == 0) continue;
      auto v = zeros;
      v[n - 1] = std::numeric_limits<double>::quiet_NaN();
      EXPECT_TRUE(simd::AnyNonZero(v.data(), n)) << n << " arm " << arm;
      v[n - 1] = 5e-324;
      EXPECT_TRUE(simd::AnyNonZero(v.data(), n)) << n << " arm " << arm;
    }
  }
}

// Random dense regression payload over [lo, lo+width): a count plus lifted
// sums, then perturbed by products so s and Q decouple. Built under the
// scalar arm so both arms' operations below start from identical inputs.
RegressionPayload FuzzDense(util::Rng& rng, uint32_t lo, uint32_t width) {
  ArmGuard guard(false);
  RegressionPayload p =
      RegressionPayload::Count(static_cast<double>(rng.UniformInt(-3, 3)));
  for (uint32_t i = 0; i < width; ++i) {
    p = Mul(p, RegressionPayload::Lift(lo + i, FuzzValue(rng)));
  }
  int extra = static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < extra && width > 0; ++i) {
    uint32_t slot = lo + static_cast<uint32_t>(rng.Uniform(width));
    p = Add(p, RegressionPayload::Lift(slot, FuzzValue(rng)));
  }
  return p;
}

// Bit pattern of every aggregate a payload exposes (count, sums, cofactor
// triangle over a fixed slot window) — the dispatch-arm comparison key.
std::vector<uint64_t> Fingerprint(const RegressionPayload& p) {
  std::vector<uint64_t> bits;
  bits.push_back(std::bit_cast<uint64_t>(p.count()));
  for (uint32_t i = 0; i < 40; ++i) {
    bits.push_back(std::bit_cast<uint64_t>(p.Sum(i)));
    for (uint32_t j = i; j < 40; ++j) {
      bits.push_back(std::bit_cast<uint64_t>(p.Cofactor(i, j)));
    }
  }
  return bits;
}

TEST(SimdDispatchTest, RegressionPayloadOpsBitwiseEqualAcrossArms) {
  if (!BothArmsAvailable()) {
    GTEST_SKIP() << "AVX2 arm not available; scalar-only build or CPU";
  }
  util::Rng rng(99);
  for (int trial = 0; trial < 400; ++trial) {
    // Random range relationship: disjoint, identical, contained, partial
    // overlap — each exercises a different kernel path in Add/Mul.
    uint32_t alo = rng.Uniform(6);
    uint32_t awidth = 1 + rng.Uniform(12);
    uint32_t blo = rng.Uniform(20);
    uint32_t bwidth = 1 + rng.Uniform(12);
    const auto a = FuzzDense(rng, alo, awidth);
    const auto b = FuzzDense(rng, blo, bwidth);

    auto run = [&](bool avx2) {
      ArmGuard guard(avx2);
      std::vector<std::vector<uint64_t>> prints;
      prints.push_back(Fingerprint(Add(a, b)));
      prints.push_back(Fingerprint(Mul(a, b)));
      prints.push_back(Fingerprint(Mul(b, a)));
      prints.push_back(Fingerprint(-a));
      RegressionPayload acc = Add(a, a);
      acc.AddInPlace(b);  // contained / general AddInPlace
      RegressionPayload acc2 = Add(a, b);
      acc2.AddInPlace(a);  // contained fast path (range ⊆ union)
      prints.push_back(Fingerprint(acc));
      prints.push_back(Fingerprint(acc2));
      prints.push_back({static_cast<uint64_t>(Add(a, -a).IsZero())});
      return prints;
    };

    ASSERT_EQ(run(false), run(true)) << "trial " << trial;
  }
}

SparseRegressionPayload FuzzSparse(util::Rng& rng, uint32_t lo,
                                   uint32_t width) {
  ArmGuard guard(false);
  SparseRegressionPayload p = SparseRegressionPayload::Count(
      static_cast<double>(rng.UniformInt(-3, 3)));
  for (uint32_t i = 0; i < width; ++i) {
    p = Mul(p, SparseRegressionPayload::Lift(lo + i, FuzzValue(rng)));
  }
  return p;
}

std::vector<uint64_t> Fingerprint(const SparseRegressionPayload& p) {
  std::vector<uint64_t> bits;
  bits.push_back(std::bit_cast<uint64_t>(p.count()));
  bits.push_back(p.LinearEntryCount());
  bits.push_back(p.QuadraticEntryCount());
  for (uint32_t i = 0; i < 40; ++i) {
    bits.push_back(std::bit_cast<uint64_t>(p.Sum(i)));
    for (uint32_t j = i; j < 40; ++j) {
      bits.push_back(std::bit_cast<uint64_t>(p.Cofactor(i, j)));
    }
  }
  return bits;
}

TEST(SimdDispatchTest, SparsePayloadOpsBitwiseEqualAcrossArms) {
  if (!BothArmsAvailable()) {
    GTEST_SKIP() << "AVX2 arm not available; scalar-only build or CPU";
  }
  util::Rng rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    uint32_t alo = rng.Uniform(6);
    uint32_t awidth = 1 + rng.Uniform(10);
    // Same layout half the time: the identical-key merge fast path (the
    // lane-kernel one) triggers only then.
    uint32_t blo = rng.Bernoulli(0.5) ? alo : rng.Uniform(16);
    uint32_t bwidth = blo == alo ? awidth : 1 + rng.Uniform(10);
    const auto a = FuzzSparse(rng, alo, awidth);
    const auto b = FuzzSparse(rng, blo, bwidth);

    auto run = [&](bool avx2) {
      ArmGuard guard(avx2);
      std::vector<std::vector<uint64_t>> prints;
      prints.push_back(Fingerprint(Add(a, b)));
      prints.push_back(Fingerprint(Mul(a, b)));
      prints.push_back(Fingerprint(-b));
      SparseRegressionPayload acc = a;
      acc.AddInPlace(b);
      prints.push_back(Fingerprint(acc));
      // Exact cancellation: the in-place fast path must compact to the
      // same (empty) layout the merge produces.
      SparseRegressionPayload cancel = a;
      cancel.AddInPlace(-a);
      prints.push_back({static_cast<uint64_t>(cancel.IsZero())});
      prints.push_back(Fingerprint(cancel));
      return prints;
    };

    ASSERT_EQ(run(false), run(true)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace fivm
