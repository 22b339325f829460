#ifndef FIVM_RINGS_REGRESSION_RING_H_
#define FIVM_RINGS_REGRESSION_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/data/value.h"
#include "src/util/simd.h"
#include "src/util/small_vector.h"

namespace fivm {

/// An element of the degree-m matrix ring (Definition 6.2): a triple
/// (c, s, Q) where c is a count, s a vector of linear aggregates SUM(x_i),
/// and Q a symmetric matrix of quadratic aggregates SUM(x_i * x_j).
///
/// Variables are assigned *aggregate slots* in variable-order DFS order, so
/// the payloads flowing through a view tree always cover a contiguous slot
/// range [lo, hi). A payload stores s and the upper triangle of Q only over
/// its range and ranges merge as computation progresses towards the root —
/// this implements the paper's "store blocks of matrices with non-zero
/// values and assemble larger matrices as the computation progresses",
/// together with the symmetric-matrix optimization.
class RegressionPayload {
 public:
  /// The additive identity: zero count, empty range.
  RegressionPayload() : c_(0.0), lo_(0), hi_(0) {}

  /// A pure count payload (s = 0, Q = 0): c * multiplicative identity.
  static RegressionPayload Count(double c) {
    RegressionPayload p;
    p.c_ = c;
    return p;
  }

  /// The lifting g_X(x) for the variable at aggregate slot `slot`:
  /// (1, s, Q) with s[slot] = x and Q[slot][slot] = x^2.
  static RegressionPayload Lift(uint32_t slot, double x) {
    RegressionPayload p;
    p.c_ = 1.0;
    p.lo_ = slot;
    p.hi_ = slot + 1;
    p.buf_.resize(2);
    p.buf_[0] = x;       // s[slot]
    p.buf_[1] = x * x;   // Q[slot][slot]
    return p;
  }

  /// Inline buffer capacity: lifts (2 doubles) stay inline; anything wider
  /// spills to the heap. The default was 9 (degree-3 cofactors inline)
  /// while payload arithmetic allocated a fresh element per product — the
  /// SoA entry pool + MulInto scratch chaining (PR 5) made the steady
  /// state allocation-free regardless, and re-measurement on that layout
  /// inverted the tradeoff: N=2 shrinks every payload-pool slot 112 → 56
  /// bytes (40 since SmallVector's header is 8 bytes), which the
  /// zero-sweeps, absorbs and point-lookup walks all feel
  /// (fig13 F-IVM store 22.8 → 15.7 MB with regression arms 1.2-1.9×
  /// faster; fig7 ~1.08× and 11.4 → 9.3 MB — interleaved medians, see
  /// ROADMAP PR 5 entry).
  static constexpr size_t kInlineDoubles = 2;

  double count() const { return c_; }
  uint32_t lo() const { return lo_; }
  uint32_t hi() const { return hi_; }

  /// SUM(x_slot); zero outside the covered range.
  double Sum(uint32_t slot) const {
    if (slot < lo_ || slot >= hi_) return 0.0;
    return buf_[slot - lo_];
  }

  /// SUM(x_i * x_j); symmetric; zero outside the covered range.
  double Cofactor(uint32_t i, uint32_t j) const {
    if (i > j) std::swap(i, j);
    if (i < lo_ || j >= hi_) return 0.0;
    size_t len = hi_ - lo_;
    return buf_[len + TriIndex(len, i - lo_, j - lo_)];
  }

  bool IsZero() const {
    if (c_ != 0.0) return false;
    return !simd::AnyNonZero(buf_.data(), buf_.size());
  }

  RegressionPayload operator-() const {
    RegressionPayload p = *this;
    p.c_ = -p.c_;
    simd::Negate(p.buf_.data(), p.buf_.size());
    return p;
  }

  /// a + b: component-wise over the union of the ranges.
  friend RegressionPayload Add(const RegressionPayload& a,
                               const RegressionPayload& b);

  void AddInPlace(const RegressionPayload& b);

  /// a * b per Definition 6.2:
  ///   c = ca*cb, s = cb*sa + ca*sb, Q = cb*Qa + ca*Qb + sa sb^T + sb sa^T.
  friend RegressionPayload Mul(const RegressionPayload& a,
                               const RegressionPayload& b);

  /// a * b written into `out`, reusing out's buffer capacity: the
  /// allocation-free form the propagation term loops chain through scratch
  /// payloads (a wide product allocates kilobytes otherwise). `out` must
  /// not alias `a` or `b`.
  friend void MulInto(RegressionPayload& out, const RegressionPayload& a,
                      const RegressionPayload& b);

  bool operator==(const RegressionPayload& o) const;

  size_t ApproxBytes() const {
    size_t heap = buf_.capacity() > kInlineDoubles
                      ? buf_.capacity() * sizeof(double)
                      : 0;
    return sizeof(RegressionPayload) + heap;
  }

  /// Raw view of the packed buffer (s block then upper-triangle Q block) for
  /// the durability serializer — the wire format is exactly this layout.
  const double* raw_data() const { return buf_.data(); }
  size_t raw_size() const { return buf_.size(); }

  /// Rebuilds a payload from serialized parts (durability recovery). `n`
  /// must be the packed size for [lo, hi): (hi-lo) + (hi-lo)(hi-lo+1)/2.
  static RegressionPayload FromRaw(double c, uint32_t lo, uint32_t hi,
                                   const double* data, size_t n) {
    RegressionPayload p;
    p.c_ = c;
    p.lo_ = lo;
    p.hi_ = hi;
    p.buf_.resize(n);
    for (size_t i = 0; i < n; ++i) p.buf_[i] = data[i];
    return p;
  }

 private:
  size_t len() const { return hi_ - lo_; }
  bool has_range() const { return hi_ > lo_; }

  // Index into the packed upper triangle of a len x len symmetric matrix,
  // for local indices i <= j.
  static size_t TriIndex(size_t len, size_t i, size_t j) {
    return i * len - i * (i - 1) / 2 + (j - i);
  }

  const double* s_data() const { return buf_.data(); }
  const double* q_data() const { return buf_.data() + len(); }
  double* s_data() { return buf_.data(); }
  double* q_data() { return buf_.data() + len(); }

  double c_;
  uint32_t lo_, hi_;
  // Layout: s over [lo, hi) (len doubles), then packed upper triangle of Q
  // (len*(len+1)/2 doubles).
  util::SmallVector<double, kInlineDoubles> buf_;
};

RegressionPayload Add(const RegressionPayload& a, const RegressionPayload& b);
RegressionPayload Mul(const RegressionPayload& a, const RegressionPayload& b);
void MulInto(RegressionPayload& out, const RegressionPayload& a,
             const RegressionPayload& b);

/// Ring policy for the degree-m matrix ring. Slot assignment is the caller's
/// responsibility (see core/view_tree AssignAggregateSlots).
struct RegressionRing {
  using Element = RegressionPayload;
  static Element Zero() { return RegressionPayload(); }
  static Element One() { return RegressionPayload::Count(1.0); }
  static Element Add(const Element& a, const Element& b) {
    return fivm::Add(a, b);
  }
  static Element Mul(const Element& a, const Element& b) {
    return fivm::Mul(a, b);
  }
  /// Optional ring-policy extension (see RingMulInto in rings/ring.h):
  /// product into a reused scratch element, no allocation once the scratch
  /// buffer has grown to the view's payload width.
  static void MulInto(Element& out, const Element& a, const Element& b) {
    fivm::MulInto(out, a, b);
  }
  static Element Neg(const Element& a) { return -a; }
  static void AddInPlace(Element& a, const Element& b) { a.AddInPlace(b); }
  static bool IsZero(const Element& a) { return a.IsZero(); }
  static size_t ApproxBytes(const Element& a) { return a.ApproxBytes(); }
};

/// Lifting function for the regression ring: x at aggregate slot `slot`.
inline auto RegressionLifting(uint32_t slot) {
  return [slot](const Value& x) {
    return RegressionPayload::Lift(slot, x.AsDouble());
  };
}

}  // namespace fivm

#endif  // FIVM_RINGS_REGRESSION_RING_H_
