#ifndef FIVM_DATA_TUPLE_H_
#define FIVM_DATA_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "src/data/value.h"
#include "src/util/hash.h"
#include "src/util/small_vector.h"

namespace fivm {

/// An ordered list of values — the key of a relation entry. The empty tuple
/// `()` is the key of nullary (fully aggregated) views.
///
/// The 64-bit hash is cached inside the tuple and maintained incrementally:
/// it is a left-fold of util::HashCombine over the value hashes, so Append
/// and Concat extend it in O(1) per appended value and hash-map probes and
/// inserts never re-scan the values. The invariant "hash_ == fold over
/// values_" holds at all times; there is deliberately no mutable access to
/// individual values.
///
/// Layout: up to kInlineValues values live inline, so a key of at most
/// three values costs no heap allocation and the whole Tuple (values,
/// 8-byte SmallVector header, cached hash) is one 64-byte cache line. Wider
/// keys spill their values to the heap.
class Tuple {
 public:
  static constexpr size_t kInlineValues = 3;
  using Values = util::SmallVector<Value, kInlineValues>;

  Tuple() = default;

  Tuple(std::initializer_list<Value> vals) : values_(vals) {
    hash_ = FoldHash(kHashSeed, values_.begin(), values_.end());
  }

  explicit Tuple(Values vals) : values_(std::move(vals)) {
    hash_ = FoldHash(kHashSeed, values_.begin(), values_.end());
  }

  Tuple(const Tuple&) = default;
  Tuple& operator=(const Tuple&) = default;

  /// Moves leave the source the empty tuple, hash included, so a moved-from
  /// key is as reusable as a cleared one.
  Tuple(Tuple&& o) noexcept : values_(std::move(o.values_)), hash_(o.hash_) {
    o.hash_ = kHashSeed;
  }
  Tuple& operator=(Tuple&& o) noexcept {
    if (this == &o) return *this;
    values_ = std::move(o.values_);
    hash_ = o.hash_;
    o.hash_ = kHashSeed;
    return *this;
  }

  /// Convenience constructor for all-integer keys (tests, examples).
  static Tuple Ints(std::initializer_list<int64_t> ints) {
    Tuple t;
    t.values_.reserve(ints.size());
    for (int64_t v : ints) t.Append(Value::Int(v));
    return t;
  }

  static const Tuple& Empty();

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Value& operator[](size_t i) const { return values_[i]; }

  void Append(const Value& v) {
    hash_ = util::HashCombine(hash_, v.Hash());  // `v` may be one of ours
    values_.push_back(v);
  }

  /// Resets to the empty tuple, keeping any allocated capacity. This is what
  /// makes a scratch key reusable across hot-loop iterations.
  void Clear() {
    values_.clear();
    hash_ = kHashSeed;
  }

  /// Projects this tuple onto the given positions, in the given order.
  template <typename Positions>
  Tuple Project(const Positions& positions) const {
    Tuple out;
    out.values_.reserve(positions.size());
    for (auto p : positions) out.Append(values_[p]);
    return out;
  }

  /// Concatenation: this tuple followed by `other`. The cached hash of this
  /// tuple is extended with `other`'s value hashes — no re-scan of `*this`.
  Tuple Concat(const Tuple& other) const {
    Tuple out;
    // Assign first, reserve after: reserving before the copy-assignment
    // leaves the final capacity at the assignee's mercy, and the append
    // loop could then reallocate mid-stream.
    out.values_ = values_;
    out.values_.reserve(values_.size() + other.values_.size());
    out.hash_ = hash_;
    for (const Value& v : other.values_) out.Append(v);
    return out;
  }

  bool operator==(const Tuple& o) const {
    return hash_ == o.hash_ && values_ == o.values_;
  }
  bool operator!=(const Tuple& o) const { return !(*this == o); }
  bool operator<(const Tuple& o) const { return values_ < o.values_; }

  /// The cached hash; O(1).
  uint64_t Hash() const { return hash_; }

  std::string ToString() const;

  const Value* begin() const { return values_.begin(); }
  const Value* end() const { return values_.end(); }

 private:
  friend class TupleView;

  static constexpr uint64_t kHashSeed = 0x51ed2701a3bf2dceULL;

  static uint64_t FoldHash(uint64_t h, const Value* first, const Value* last) {
    for (; first != last; ++first) h = util::HashCombine(h, first->Hash());
    return h;
  }

  Values values_;
  uint64_t hash_ = kHashSeed;
};

static_assert(sizeof(Tuple) == 64, "a Tuple key is one 64-byte cache line");

/// A non-owning projection of a borrowed Tuple: a position list applied
/// lazily to a base tuple. Hashes and compares exactly like the owning
/// `base.Project(positions)` tuple, but costs zero allocations to build, so
/// join loops can probe indexes once per left entry without materializing a
/// key (heterogeneous lookup; see util::FlatHashMap::Find and
/// Relation::SecondaryIndex::Probe).
///
/// The view borrows both the tuple and the position array; it must not
/// outlive either.
class TupleView {
 public:
  TupleView(const Tuple& base, const uint32_t* positions, size_t n)
      : base_(&base), positions_(positions), n_(n) {
    uint64_t h = Tuple::kHashSeed;
    for (size_t i = 0; i < n; ++i) {
      h = util::HashCombine(h, base[positions[i]].Hash());
    }
    hash_ = h;
  }

  template <typename Positions>
  TupleView(const Tuple& base, const Positions& positions)
      : TupleView(base, positions.data(), positions.size()) {}

  /// Re-materializes a view whose hash was already computed (pipelined
  /// probe loops construct the view once for the hash, prefetch, and
  /// rebuild it at probe time without re-folding). `hash` MUST equal the
  /// hash the ordinary constructor would produce for (base, positions).
  template <typename Positions>
  TupleView(const Tuple& base, const Positions& positions, uint64_t hash)
      : base_(&base),
        positions_(positions.data()),
        n_(positions.size()),
        hash_(hash) {}

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  const Value& operator[](size_t i) const { return (*base_)[positions_[i]]; }

  /// Hash of the projected key, equal to base.Project(positions).Hash();
  /// computed once at construction.
  uint64_t Hash() const { return hash_; }

 private:
  const Tuple* base_;
  const uint32_t* positions_;
  size_t n_;
  uint64_t hash_;
};

inline bool operator==(const Tuple& t, const TupleView& v) {
  if (t.Hash() != v.Hash() || t.size() != v.size()) return false;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i] != v[i]) return false;
  }
  return true;
}

inline bool operator==(const TupleView& v, const Tuple& t) { return t == v; }

/// Transparent hasher: accepts owning tuples and borrowed views, which is
/// what lets FlatHashMap look up Tuple-keyed slots from a TupleView.
struct TupleHash {
  uint64_t operator()(const Tuple& t) const { return t.Hash(); }
  uint64_t operator()(const TupleView& v) const { return v.Hash(); }
};

}  // namespace fivm

#endif  // FIVM_DATA_TUPLE_H_
