#ifndef FIVM_DATA_RELATION_OPS_H_
#define FIVM_DATA_RELATION_OPS_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/data/op_specs.h"
#include "src/data/relation.h"
#include "src/data/schema.h"
#include "src/data/tuple.h"
#include "src/rings/lifting.h"
#include "src/rings/ring.h"
#include "src/util/small_vector.h"

namespace fivm {

/// The three operators of the query language (Section 2): union ⊎, natural
/// join ⊗, and aggregation-by-marginalization ⊕_X with lifting functions.
/// Join and marginalization run fused: ⊕_X(left ⊗ right) is what view-tree
/// evaluation and delta propagation use to avoid materializing intermediate
/// join results, and a plain join is the same operator with X = ∅.
///
/// Each operator has one executor, an *Into function running a precompiled
/// JoinMargSpec / MargSpec (src/data/op_specs.h) — what the compiled
/// propagation plans (src/plan/) call, with all schema algebra and position
/// maps resolved once per plan instead of once per delta — plus a
/// schema-deriving convenience that compiles the spec on the fly and calls
/// that executor, so both share one semantics definition.
///
/// Hot-path discipline: probe keys are TupleViews (no allocation per left
/// entry), output keys are built in a reused scratch tuple (no allocation
/// per match; Relation::Add copies the key only when it creates a new
/// entry), and expiring inputs are consumed by move. The *Into executors
/// additionally reuse the output relation's entry and index capacity across
/// calls (plan scratch slots).

/// ⊕ with a precompiled spec, appending into `out` (which must already carry
/// spec.out_schema; callers reuse it as a scratch slot via Relation::Reset).
template <typename Ring>
void MarginalizeInto(Relation<Ring>& out, const Relation<Ring>& rel,
                     const MargSpec& spec, const LiftingMap<Ring>& lifts) {
  using Element = typename Ring::Element;
  assert(rel.schema() == spec.in_schema);
  assert(out.schema() == spec.out_schema);
  // At most one output key per input key; presizing spares batched deltas
  // the doubling-growth entry copies and index rehashes.
  out.Reserve(rel.size());
  if (spec.lifted.empty()) {
    // Pure projection: payloads pass through by reference — Add copies
    // only when the key is new to the output.
    rel.ForEach([&](const Tuple& k, const Element& p) {
      out.Add(k.Project(spec.out_positions), p);
    });
    return;
  }
  // Lift chain through two scratch elements (ping-pong): allocation-free
  // once the scratch buffers reach the view's payload width.
  Element acc, tmp;
  rel.ForEach([&](const Tuple& k, const Element& p) {
    const Element* src = &p;
    for (const auto& [pos, var] : spec.lifted) {
      RingMulInto<Ring>(tmp, *src, lifts.Lift(var, k[pos]));
      std::swap(acc, tmp);
      src = &acc;
    }
    out.Add(k.Project(spec.out_positions), *src);
  });
}

/// ⊕: marginalizes the variables `marg` out of `rel`, lifting each
/// marginalized value via `lifts` and multiplying it into the payload.
/// Output schema is rel.schema \ marg.
template <typename Ring>
Relation<Ring> Marginalize(const Relation<Ring>& rel, const Schema& marg,
                           const LiftingMap<Ring>& lifts) {
  // Raw lambda, not TrivialityOf: the on-the-fly wrapper is a hot path and
  // must not pay std::function type erasure per call.
  const MargSpec spec = MargSpec::Compile(
      rel.schema(), marg, [&lifts](VarId v) { return lifts.IsTrivial(v); });
  Relation<Ring> out(spec.out_schema);
  MarginalizeInto(out, rel, spec, lifts);
  return out;
}

/// Writes the output key of a (left, right) match into `scratch`, which
/// keeps its capacity across calls. When the output key begins with the
/// whole left key, that prefix is copied with its cached hash and only the
/// remaining values are hashed in. Left-only specs may pass `lk` as `rk`.
inline void AssembleOutKey(Tuple& scratch, const JoinMargSpec& spec,
                           const Tuple& lk, const Tuple& rk) {
  size_t i = 0;
  if (spec.out_extends_left) {
    scratch = lk;
    i = lk.size();
  } else {
    scratch.Clear();
  }
  for (; i < spec.out_src.size(); ++i) {
    const JoinMargSpec::Source& src = spec.out_src[i];
    scratch.Append(src.from_left ? lk[src.pos] : rk[src.pos]);
  }
}

/// One right side of a full-key join: `rel` probed through its primary
/// index with the values at `key_pos` of each left key (the positions of
/// rel's whole schema within the left schema). Both pointers are borrowed.
template <typename Ring>
struct FullKeyProbe {
  const Relation<Ring>* rel = nullptr;
  const util::SmallVector<uint32_t, 6>* key_pos = nullptr;
};

/// The one inner loop of every full-key join path, binary (k = 1) or
/// multi-way: visits `left`'s live entries in slot order and calls
/// `on_hit(left_key, left_payload, right_payloads)` for each one whose key
/// matches in all `k` right sides; `right_payloads[r]` is its partner in
/// `rights[r]`. An entry is dropped at its first miss. Probes are
/// software-pipelined in batches of 8 left entries — all k probes of the
/// batch are hashed and prefetched first, probed after — so independent
/// probes' index-line latency overlaps instead of serializing per probe
/// (the hit path is a dependent ctrl→cell→key chain); each probe view is
/// re-materialized with its precomputed hash. A right side keyed on the
/// same positions as the one before it reuses that hash (the siblings of a
/// star node all key on the node's variables). The live-entry scan streams
/// the payload pool for the zero test and touches the key pool only for
/// live slots (SoA split).
template <typename Ring, typename OnHit>
void ForEachFullKeyMatch(const Relation<Ring>& left,
                         const FullKeyProbe<Ring>* rights, size_t k,
                         OnHit&& on_hit) {
  using Element = typename Ring::Element;
  assert(k >= 1);
  constexpr uint32_t kPipe = 8;
  const uint32_t n_slots = static_cast<uint32_t>(left.SlotCount());
  // Per-call buffers sized by k: inline up to 8 right sides, heap beyond.
  util::SmallVector<uint8_t, 8> same_key(k);
  for (size_t r = 1; r < k; ++r) {
    const auto& a = *rights[r - 1].key_pos;
    const auto& b = *rights[r].key_pos;
    same_key[r] = a.size() == b.size() &&
                  std::equal(a.begin(), a.end(), b.begin());
  }
  util::SmallVector<uint64_t, 8 * kPipe> hash;  // [batch entry][right side]
  hash.resize_uninitialized(kPipe * k);
  util::SmallVector<const Element*, 8> hit;
  hit.resize_uninitialized(k);
  uint32_t batch[kPipe];
  uint32_t bn = 0;
  auto flush = [&] {
    for (uint32_t j = 0; j < bn; ++j) {
      const Tuple& lk = left.KeyAt(batch[j]);
      const uint64_t* h = hash.data() + size_t{j} * k;
      size_t r = 0;
      for (; r < k; ++r) {
        hit[r] = rights[r].rel->Find(TupleView(lk, *rights[r].key_pos, h[r]));
        if (hit[r] == nullptr) break;
      }
      if (r == k) on_hit(lk, left.PayloadAt(batch[j]), hit.data());
    }
    bn = 0;
  };
  for (uint32_t i = 0; i < n_slots; ++i) {
    if (Ring::IsZero(left.PayloadAt(i))) continue;
    const Tuple& lk = left.KeyAt(i);
    uint64_t* h = hash.data() + size_t{bn} * k;
    for (size_t r = 0; r < k; ++r) {
      h[r] = same_key[r] ? h[r - 1]
                         : TupleView(lk, *rights[r].key_pos).Hash();
      rights[r].rel->PrefetchFind(h[r]);
    }
    batch[bn] = i;
    if (++bn == kPipe) flush();
  }
  flush();
}

/// The multi-way full-key join ⊕_{spec.marg}(left ⊗ rights[0] ⊗ … ⊗
/// rights[k-1]), appending into `out`: the paper's per-node product
/// δV_i ⊗ ⊗_{j≠i} V_j, run as one pass with no intermediate relation. Every
/// right side is keyed on left variables (a full-key probe), so a left entry
/// has at most one partner per side and every output and lifted variable
/// lives on the left. `spec` is the JoinMargSpec of the last right side
/// against `left` — the only one carrying the ⊕ and its lifts. Each match's
/// term is chained through two reused scratch elements in the binary
/// chain's order, left payload first, then rights[0..k-1], then the lifts,
/// so the result is bit-identical to the chain and non-commutative rings
/// (the relational ring concatenates payload schemas) keep their order.
template <typename Ring>
void FullKeyJoinAndMarginalizeInto(Relation<Ring>& out,
                                   const Relation<Ring>& left,
                                   const FullKeyProbe<Ring>* rights, size_t k,
                                   const JoinMargSpec& spec,
                                   const LiftingMap<Ring>& lifts) {
  using Element = typename Ring::Element;
  assert(spec.kind == JoinKind::kFullKeyPrimary);
  assert(left.schema() == spec.left_schema);
  assert(rights[k - 1].rel->schema() == spec.right_schema);
  assert(out.schema() == spec.out_schema);
  out.Reserve(left.size());
  Element acc, tmp;
  Tuple scratch;  // Add copies it only when the key is new to `out`
  ForEachFullKeyMatch(
      left, rights, k,
      [&](const Tuple& lk, const Element& lp, const Element* const* rp) {
        RingMulInto<Ring>(acc, lp, *rp[0]);
        for (size_t r = 1; r < k; ++r) {
          RingMulInto<Ring>(tmp, acc, *rp[r]);
          std::swap(acc, tmp);
        }
        for (const auto& [var, src] : spec.lifted) {
          RingMulInto<Ring>(tmp, acc, lifts.Lift(var, lk[src.pos]));
          std::swap(acc, tmp);
        }
        AssembleOutKey(scratch, spec, lk, lk);
        out.Add(scratch, acc);
      });
}

/// Fused ⊕_{marg}(left ⊗ right) with a precompiled spec, appending into
/// `out`. This is the inner loop of compiled delta propagation.
template <typename Ring>
void JoinAndMarginalizeInto(Relation<Ring>& out, const Relation<Ring>& left,
                            const Relation<Ring>& right,
                            const JoinMargSpec& spec,
                            const LiftingMap<Ring>& lifts) {
  using Element = typename Ring::Element;
  assert(left.schema() == spec.left_schema);
  assert(right.schema() == spec.right_schema);
  assert(out.schema() == spec.out_schema);

  // One match's ring term: Mul(left, right) times the lifted marginalized
  // values, chained through two reused scratch elements — allocation-free
  // once the scratch buffers reach the term's payload width. The returned
  // reference is valid until the next term() call.
  Element term_scratch, term_tmp;
  auto term = [&](const Tuple& lk, const Element& lp, const Tuple& rk,
                  const Element& rp) -> const Element& {
    RingMulInto<Ring>(term_scratch, lp, rp);
    for (const auto& [var, src] : spec.lifted) {
      const Value& x = src.from_left ? lk[src.pos] : rk[src.pos];
      RingMulInto<Ring>(term_tmp, term_scratch, lifts.Lift(var, x));
      std::swap(term_scratch, term_tmp);
    }
    return term_scratch;
  };

  // The scratch key is reused across all emits; Relation::Add copies it
  // only when the key is new to the output.
  Tuple scratch;
  auto emit = [&](const Tuple& lk, const Element& lp, const Tuple& rk,
                  const Element& rp) {
    AssembleOutKey(scratch, spec, lk, rk);
    out.Add(scratch, term(lk, lp, rk, rp));
  };

  switch (spec.kind) {
    case JoinKind::kCartesian:
      left.ForEach([&](const Tuple& lk, const Element& lp) {
        right.ForEach(
            [&](const Tuple& rk, const Element& rp) { emit(lk, lp, rk, rp); });
      });
      return;
    case JoinKind::kFullKeyPrimary: {
      // Full-key probe: the join key covers the whole right schema, so each
      // left entry has at most one partner, located through right's primary
      // index — no secondary index to build here or to maintain on every
      // later absorb into `right`. The binary case of the multi-way loop.
      const FullKeyProbe<Ring> probe{&right, &spec.right_key_pos};
      FullKeyJoinAndMarginalizeInto(out, left, &probe, 1, spec, lifts);
      return;
    }
    case JoinKind::kSecondaryProbe: {
      const auto& right_index = right.IndexOn(spec.common);
      // The left.size() floor (match fan-out grows beyond it) is reserved at
      // the first matching left entry, not up front, so a join with no
      // matches allocates nothing.
      bool reserved = false;
      auto reserve_floor = [&] {
        if (reserved) return;
        out.Reserve(left.size());
        reserved = true;
      };
      if (spec.left_only_key) {
        // When every output variable comes from the left side (all of the
        // right side is joined away), the output key is fixed per left
        // entry, so the whole match set folds in the ring (distributivity)
        // and costs a single hash-map update instead of one per match.
        // The fold accumulator is hoisted like the term scratch: its
        // buffer survives across left entries, keeping the steady state
        // allocation-free.
        Element acc = Ring::Zero();
        left.ForEach([&](const Tuple& lk, const Element& lp) {
          const auto* slots =
              right_index.Probe(TupleView(lk, spec.left_common));
          if (slots == nullptr) return;
          bool have = false;
          for (uint32_t slot : *slots) {
            const Element& rp = right.PayloadAt(slot);
            if (Ring::IsZero(rp)) continue;
            if (!have) {
              acc = term(lk, lp, right.KeyAt(slot), rp);
              have = true;
            } else {
              Ring::AddInPlace(acc, term(lk, lp, right.KeyAt(slot), rp));
            }
          }
          if (!have) return;
          reserve_floor();
          AssembleOutKey(scratch, spec, lk, lk);
          out.Add(scratch, acc);  // const ref: hit path copies nothing
        });
        return;
      }
      left.ForEach([&](const Tuple& lk, const Element& lp) {
        const auto* slots = right_index.Probe(TupleView(lk, spec.left_common));
        if (slots == nullptr) return;
        for (uint32_t slot : *slots) {
          const Element& rp = right.PayloadAt(slot);
          if (Ring::IsZero(rp)) continue;
          reserve_floor();
          emit(lk, lp, right.KeyAt(slot), rp);
        }
      });
      return;
    }
  }
}

/// Fused ⊕_{marg}(left ⊗ right): joins and immediately marginalizes, never
/// materializing the join result. `marg` may mention variables from either
/// side.
template <typename Ring>
Relation<Ring> JoinAndMarginalize(const Relation<Ring>& left,
                                  const Relation<Ring>& right,
                                  const Schema& marg,
                                  const LiftingMap<Ring>& lifts) {
  const JoinMargSpec spec =
      JoinMargSpec::Compile(left.schema(), right.schema(), marg,
                            [&lifts](VarId v) { return lifts.IsTrivial(v); });
  Relation<Ring> out(spec.out_schema);
  JoinAndMarginalizeInto(out, left, right, spec, lifts);
  return out;
}

/// ⊗: natural join of `left` and `right` on their common variables, i.e.
/// ⊕_∅(left ⊗ right) with no lifts. Output schema is left.schema followed by
/// right's private variables. Payload of a match is Mul(left payload, right
/// payload) — note the order, which matters for non-commutative rings (e.g.
/// the relational data ring concatenates payload schemas left-to-right).
template <typename Ring>
Relation<Ring> Join(const Relation<Ring>& left, const Relation<Ring>& right) {
  return JoinAndMarginalize(left, right, Schema{}, LiftingMap<Ring>{});
}

/// Returns `rel` with keys re-projected to `target`'s column layout
/// (schemas must be equal as sets), consuming the input: when the layout
/// already matches, the relation moves straight through; otherwise keys
/// are projected and payloads moved, with zero-payload tombstones dropped.
/// Shared by the engine's delta intake, DeltaBatcher::Flush, and the
/// parallel executor.
template <typename Ring>
Relation<Ring> Reordered(Relation<Ring>&& rel, const Schema& target) {
  assert(rel.schema().SameSet(target));
  if (rel.schema() == target) return std::move(rel);
  Relation<Ring> out(target);
  out.Reserve(rel.size());
  auto pos = rel.schema().PositionsOf(target);
  auto pool = rel.TakePool();
  for (size_t i = 0; i < pool.keys.size(); ++i) {
    if (Ring::IsZero(pool.payloads[i])) continue;
    out.Add(pool.keys[i].Project(pos), std::move(pool.payloads[i]));
  }
  return out;
}

/// Same-layout absorbs at or above this many delta keys presize the store
/// (ReserveForAbsorb) so the bulk insert proceeds at one final index
/// capacity with no mid-absorb growth rehash; below it, presizing is all
/// overhead (the capacity check is not free and small deltas rarely grow
/// the store).
inline constexpr size_t kPresizeAbsorbMinKeys = 1024;

/// Adds `delta` into `store`, re-ordering key columns if the two schemas use
/// a different positional layout. The schemas must be equal as sets. Large
/// same-layout deltas absorb presized (no mid-absorb rehash), in arrival
/// order — see the negative-result note below.
template <typename Ring>
void AbsorbInto(Relation<Ring>& store, const Relation<Ring>& delta) {
  assert(store.schema().SameSet(delta.schema()));
  if (store.schema() == delta.schema()) {
    if (delta.size() >= kPresizeAbsorbMinKeys) {
      store.ReserveForAbsorb(delta.size());
    }
    store.UnionWith(delta);
    return;
  }
  auto pos = delta.schema().PositionsOf(store.schema());
  delta.ForEach([&](const Tuple& k, const typename Ring::Element& p) {
    store.Add(k.Project(pos), p);
  });
}

/// Move-aware absorb: consumes `delta`, re-homing keys and payloads instead
/// of copying them. When the store is empty and the layouts match, this is
/// a single relation move (the common "fill a fresh store" case); large
/// same-layout deltas absorb presized, like the copying overload.
template <typename Ring>
void AbsorbInto(Relation<Ring>& store, Relation<Ring>&& delta) {
  assert(store.schema().SameSet(delta.schema()));
  if (store.schema() == delta.schema()) {
    if (store.empty()) {
      store = std::move(delta);
      return;
    }
    if (delta.size() >= kPresizeAbsorbMinKeys) {
      store.ReserveForAbsorb(delta.size());
    }
    auto pool = delta.TakePool();
    for (size_t i = 0; i < pool.keys.size(); ++i) {
      if (Ring::IsZero(pool.payloads[i])) continue;
      store.Add(std::move(pool.keys[i]), std::move(pool.payloads[i]));
    }
    return;
  }
  auto pos = delta.schema().PositionsOf(store.schema());
  auto pool = delta.TakePool();
  for (size_t i = 0; i < pool.keys.size(); ++i) {
    if (Ring::IsZero(pool.payloads[i])) continue;
    store.Add(pool.keys[i].Project(pos), std::move(pool.payloads[i]));
  }
}

/// True when `a` and `b` hold the same key → payload mapping: schemas equal
/// as sets, same live-key count, and per key the payloads agree as ring
/// values (a − b is the additive identity, which also tolerates
/// representation differences such as zero-padded aggregate ranges).
template <typename Ring>
bool ContentEquals(const Relation<Ring>& a, const Relation<Ring>& b) {
  if (!a.schema().SameSet(b.schema())) return false;
  if (a.size() != b.size()) return false;
  auto pos = a.schema().PositionsOf(b.schema());
  bool equal = true;
  a.ForEach([&](const Tuple& k, const typename Ring::Element& p) {
    if (!equal) return;
    const typename Ring::Element* q = b.Find(TupleView(k, pos));
    if (q == nullptr || !Ring::IsZero(Ring::Add(p, Ring::Neg(*q)))) {
      equal = false;
    }
  });
  return equal;
}

// Negative result: absorbing in destination home-group order ("clustered
// absorb") lost on quadratic probing, on the SwissTable core and on the
// serving merge fold, so it was deleted. Keys already in home order absorb
// up to 1.7x faster (BM_AbsorbHashOrdered order 2 vs 0), but every way to
// establish that order inside the absorb costs about what it saves.

}  // namespace fivm

#endif  // FIVM_DATA_RELATION_OPS_H_
