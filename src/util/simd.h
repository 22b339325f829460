#ifndef FIVM_UTIL_SIMD_H_
#define FIVM_UTIL_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>

namespace fivm::simd {

/// Runtime-dispatched kernels over contiguous double arrays — the arithmetic
/// substrate of the ring payloads (regression cofactor blocks, sparse
/// aggregate value lanes). Follows the dispatch pattern util::GroupTable
/// established for control-byte scans (SSE2 with a fuzz-checked scalar
/// fallback), one level up: an AVX2 arm compiled into its own translation
/// unit (src/util/simd_avx2.cc, built with -mavx2 and nothing more) and an
/// inline scalar fallback, selected at runtime.
///
/// Every kernel is *element-wise* — no horizontal reductions, no FMA
/// contraction (the AVX2 arm pairs _mm256_mul_pd with _mm256_add_pd, and
/// -mavx2 alone cannot emit vfmadd) — so both arms perform bit-identical
/// IEEE arithmetic per element in the same order. That is what lets the
/// engine's bitwise equivalence tests (plan_equivalence, exec_parallel) pass
/// unchanged on either dispatch path, and what tests/simd_dispatch_test.cc
/// fuzzes directly.
///
/// Dispatch order of authority:
///  1. Build: on non-x86-64 targets, or with a compiler that lacks -mavx2
///     (CMake then defines FIVM_SIMD_NO_AVX2), the AVX2 arm is not compiled
///     and every call inlines the scalar loop.
///  2. CPU: the AVX2 arm is used only when __builtin_cpu_supports("avx2").
///  3. Environment: FIVM_DISABLE_AVX2=1 pins the scalar path at startup
///     (the README's "force the scalar path" knob; the CI scalar-dispatch
///     job runs the whole suite under it).
///  4. SetAvx2Active(false/true): tests and benches toggle arms at runtime
///     (clamped to what the build and CPU actually support).

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(FIVM_SIMD_NO_AVX2)
#define FIVM_SIMD_AVX2_BUILD 1
#endif

namespace detail {

#if defined(FIVM_SIMD_AVX2_BUILD)
// The AVX2 arm, defined in src/util/simd_avx2.cc. Callers guarantee n >= 1.
void AddToAvx2(double* dst, const double* src, size_t n);
void AxpyToAvx2(double* dst, const double* src, double a, size_t n);
void ScalePairToAvx2(double* dst, const double* x, const double* y, double a,
                     double b, size_t n);
void ScaleToAvx2(double* dst, const double* src, double a, size_t n);
void SumToAvx2(double* dst, const double* x, const double* y, size_t n);
void NegateAvx2(double* v, size_t n);
bool AnyNonZeroAvx2(const double* v, size_t n);
void Rank1UpperToAvx2(double* q, const double* sa, const double* sb,
                      size_t len);
void DisjointMulRowsToAvx2(double* q, const double* pq, const double* ps,
                           const double* rs, double pscale, size_t plen,
                           size_t gap, size_t rlen, size_t len);
#endif

inline bool CpuSupportsAvx2() {
#if defined(FIVM_SIMD_AVX2_BUILD)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

inline bool Avx2StartupDefault() {
  if (!CpuSupportsAvx2()) return false;
  const char* env = std::getenv("FIVM_DISABLE_AVX2");
  return env == nullptr || env[0] == '\0' || env[0] == '0';
}

inline std::atomic<bool>& ActiveFlag() {
  static std::atomic<bool> active{Avx2StartupDefault()};
  return active;
}

}  // namespace detail

/// True when this binary contains the AVX2 arm at all.
constexpr bool Avx2CompiledIn() {
#if defined(FIVM_SIMD_AVX2_BUILD)
  return true;
#else
  return false;
#endif
}

/// True when the AVX2 arm could run here (build + CPU), regardless of the
/// current dispatch pin.
inline bool Avx2Supported() { return detail::CpuSupportsAvx2(); }

/// The arm the next kernel call will take.
inline bool Avx2Active() {
  return detail::ActiveFlag().load(std::memory_order_relaxed);
}

/// Pins dispatch (tests, differential fuzz, bench arms). Enabling is clamped
/// to Avx2Supported(); returns the previous state.
inline bool SetAvx2Active(bool on) {
  return detail::ActiveFlag().exchange(on && Avx2Supported(),
                                       std::memory_order_relaxed);
}

/// Below this length the scalar loop inlines into the caller and beats the
/// out-of-line AVX2 call: degree-1/2 regression payloads (2-5 doubles) stay
/// on it, cofactor blocks from width ~3 up take the vector arm.
inline constexpr size_t kMinAvx2Len = 8;

#if defined(FIVM_SIMD_AVX2_BUILD)
#define FIVM_SIMD_DISPATCH(call)                   \
  if (n >= kMinAvx2Len && Avx2Active()) {          \
    detail::call;                                  \
    return;                                        \
  }
#else
#define FIVM_SIMD_DISPATCH(call)
#endif

/// dst[i] += src[i].
inline void AddTo(double* dst, const double* src, size_t n) {
  FIVM_SIMD_DISPATCH(AddToAvx2(dst, src, n))
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

/// dst[i] += a * src[i] (mul then add: two roundings, never fused).
inline void AxpyTo(double* dst, const double* src, double a, size_t n) {
  FIVM_SIMD_DISPATCH(AxpyToAvx2(dst, src, a, n))
  for (size_t i = 0; i < n; ++i) dst[i] += a * src[i];
}

/// dst[i] = a * x[i] + b * y[i] (overwrite, same rounding order).
inline void ScalePairTo(double* dst, const double* x, const double* y,
                        double a, double b, size_t n) {
  FIVM_SIMD_DISPATCH(ScalePairToAvx2(dst, x, y, a, b, n))
  for (size_t i = 0; i < n; ++i) dst[i] = a * x[i] + b * y[i];
}

/// dst[i] = a * src[i] (overwrite).
inline void ScaleTo(double* dst, const double* src, double a, size_t n) {
  FIVM_SIMD_DISPATCH(ScaleToAvx2(dst, src, a, n))
  for (size_t i = 0; i < n; ++i) dst[i] = a * src[i];
}

/// dst[i] = x[i] + y[i] (overwrite).
inline void SumTo(double* dst, const double* x, const double* y, size_t n) {
  FIVM_SIMD_DISPATCH(SumToAvx2(dst, x, y, n))
  for (size_t i = 0; i < n; ++i) dst[i] = x[i] + y[i];
}

/// v[i] = -v[i] (sign-bit flip; exact on every value including ±0, NaN).
inline void Negate(double* v, size_t n) {
  FIVM_SIMD_DISPATCH(NegateAvx2(v, n))
  for (size_t i = 0; i < n; ++i) v[i] = -v[i];
}

/// Cofactor-structured kernels: the two per-row loops of the regression
/// ring's product, fused into one dispatch so a payload-wide product pays
/// one out-of-line call instead of one per triangle row. `q` is a packed
/// upper triangle of `len` rows (row i covers columns [i, len), rows
/// packed consecutively).

/// Rank-1 half of a same-range product: for each row i with a non-zero
/// coefficient pair, q[i][y] += sa[i]*sb[y] + sb[i]*sa[y] over y in
/// [i, len).
inline void Rank1UpperTo(double* q, const double* sa, const double* sb,
                         size_t len) {
#if defined(FIVM_SIMD_AVX2_BUILD)
  if (len >= 4 && Avx2Active()) {
    detail::Rank1UpperToAvx2(q, sa, sb, len);
    return;
  }
#endif
  for (size_t i = 0; i < len; ++i) {
    const double sax = sa[i];
    const double sbx = sb[i];
    if (sax != 0.0 || sbx != 0.0) {
      for (size_t j = 0; j < len - i; ++j) {
        q[j] += sax * sb[i + j] + sbx * sa[i + j];
      }
    }
    q += len - i;
  }
}

/// Triangle of a disjoint-range product, all block rows in one call: for
/// each row i of the earlier operand p, write [ pscale * Qp row | `gap`
/// zeros | ps[i] * sr ] — the scaled carried-over block followed by the
/// rank-1 rectangle (see regression_ring.cc for the derivation). `q`
/// points at the output triangle's first row (width `len`), `pq` at p's
/// packed triangle (width `plen`).
inline void DisjointMulRowsTo(double* q, const double* pq, const double* ps,
                              const double* rs, double pscale, size_t plen,
                              size_t gap, size_t rlen, size_t len) {
#if defined(FIVM_SIMD_AVX2_BUILD)
  if (rlen + plen >= 8 && Avx2Active()) {
    detail::DisjointMulRowsToAvx2(q, pq, ps, rs, pscale, plen, gap, rlen,
                                  len);
    return;
  }
#endif
  for (size_t i = 0; i < plen; ++i) {
    const size_t seg = plen - i;
    for (size_t j = 0; j < seg; ++j) q[j] = pscale * pq[j];
    for (size_t j = 0; j < gap; ++j) q[seg + j] = 0.0;
    const double px = ps[i];
    for (size_t j = 0; j < rlen; ++j) q[seg + gap + j] = px * rs[j];
    q += len - i;
    pq += seg;
  }
}

#undef FIVM_SIMD_DISPATCH

/// True when any v[i] != 0.0 (both signed zeros test as zero, NaN as
/// non-zero — the scalar comparison's semantics).
inline bool AnyNonZero(const double* v, size_t n) {
#if defined(FIVM_SIMD_AVX2_BUILD)
  if (n >= kMinAvx2Len && Avx2Active()) return detail::AnyNonZeroAvx2(v, n);
#endif
  for (size_t i = 0; i < n; ++i) {
    if (v[i] != 0.0) return true;
  }
  return false;
}

}  // namespace fivm::simd

#endif  // FIVM_UTIL_SIMD_H_
