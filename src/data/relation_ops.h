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
/// Join and marginalization are also provided fused, which is what view-tree
/// evaluation and delta propagation use to avoid materializing intermediate
/// join results.
///
/// Every operator comes in two layers:
///  - a *spec-taking* entry point executing a precompiled JoinSpec /
///    JoinMargSpec / MargSpec (src/data/op_specs.h) — what the compiled
///    propagation plans (src/plan/) call, with all schema algebra and
///    position maps resolved once per plan instead of once per delta;
///  - the classic schema-deriving overload, now a thin wrapper that compiles
///    the spec on the fly and dispatches to the same executor, so both paths
///    share one semantics definition.
///
/// Hot-path discipline: probe keys are TupleViews (no allocation per left
/// entry), output keys are built in a reused scratch tuple (no allocation
/// per match; Relation::Add copies the key only when it creates a new
/// entry), and expiring inputs are consumed by move. The *Into variants
/// additionally reuse the output relation's entry and index capacity across
/// calls (plan scratch slots).

/// ⊎: returns left ⊎ right (schemas must match as sets; output uses left's
/// order).
template <typename Ring>
Relation<Ring> Union(const Relation<Ring>& left, const Relation<Ring>& right) {
  assert(left.schema().SameSet(right.schema()));
  Relation<Ring> out(left.schema());
  out.Reserve(left.size() + right.size());
  left.ForEach([&](const Tuple& k, const typename Ring::Element& p) {
    out.Add(k, p);
  });
  auto positions = right.schema().PositionsOf(left.schema());
  right.ForEach([&](const Tuple& k, const typename Ring::Element& p) {
    out.Add(k.Project(positions), p);
  });
  return out;
}

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

template <typename Ring>
Relation<Ring> Marginalize(const Relation<Ring>& rel, const MargSpec& spec,
                           const LiftingMap<Ring>& lifts) {
  Relation<Ring> out(spec.out_schema);
  MarginalizeInto(out, rel, spec, lifts);
  return out;
}

/// ⊕: marginalizes the variables `marg` out of `rel`, lifting each
/// marginalized value via `lifts` and multiplying it into the payload.
/// Output schema is rel.schema \ marg.
template <typename Ring>
Relation<Ring> Marginalize(const Relation<Ring>& rel, const Schema& marg,
                           const LiftingMap<Ring>& lifts) {
  // Raw lambda, not TrivialityOf: the on-the-fly wrapper is a hot path and
  // must not pay std::function type erasure per call.
  return Marginalize(rel,
                     MargSpec::Compile(
                         rel.schema(), marg,
                         [&lifts](VarId v) { return lifts.IsTrivial(v); }),
                     lifts);
}

/// The shared inner loop of the full-key join paths: visits `left`'s live
/// entries in slot order and calls `on_hit(left_key, left_payload,
/// right_payload)` for each one whose full key matches in `right`'s primary
/// index. Probes are software-pipelined in batches of 8 — hash + prefetch
/// first, probe after — so independent probes' index-line latency overlaps
/// instead of serializing per probe (the hit path is a dependent
/// ctrl→cell→key chain); the probe view is re-materialized with its
/// precomputed hash. The live-entry scan streams the payload pool for the
/// zero test and touches the key pool only for live slots (SoA split).
template <typename Ring, typename Positions, typename OnHit>
void ForEachFullKeyMatch(const Relation<Ring>& left,
                         const Relation<Ring>& right,
                         const Positions& right_key_pos, OnHit&& on_hit) {
  const uint32_t n_slots = static_cast<uint32_t>(left.SlotCount());
  constexpr uint32_t kPipe = 8;
  uint32_t batch[kPipe];
  uint64_t batch_hash[kPipe];
  uint32_t bn = 0;
  auto flush = [&] {
    for (uint32_t j = 0; j < bn; ++j) {
      const Tuple& lk = left.KeyAt(batch[j]);
      const typename Ring::Element* rp =
          right.Find(TupleView(lk, right_key_pos, batch_hash[j]));
      if (rp != nullptr) on_hit(lk, left.PayloadAt(batch[j]), *rp);
    }
    bn = 0;
  };
  for (uint32_t i = 0; i < n_slots; ++i) {
    if (Ring::IsZero(left.PayloadAt(i))) continue;
    uint64_t h = TupleView(left.KeyAt(i), right_key_pos).Hash();
    right.PrefetchFind(h);
    batch[bn] = i;
    batch_hash[bn] = h;
    if (++bn == kPipe) flush();
  }
  flush();
}

/// ⊗ with a precompiled spec, appending into `out`.
template <typename Ring>
void JoinInto(Relation<Ring>& out, const Relation<Ring>& left,
              const Relation<Ring>& right, const JoinSpec& spec) {
  using Element = typename Ring::Element;
  assert(left.schema() == spec.left_schema);
  assert(right.schema() == spec.right_schema);
  assert(out.schema() == spec.out_schema);

  // Product into a reused scratch element (no allocation steady-state);
  // Add copies it into the pool only for new keys.
  Element mul_scratch;
  Tuple scratch;
  auto emit = [&](const Tuple& lk, const Element& lp, const Tuple& rk,
                  const Element& rp) {
    scratch = lk;  // memcpy of values + cached hash; no re-fold of the prefix
    for (auto p : spec.right_private_pos) scratch.Append(rk[p]);
    RingMulInto<Ring>(mul_scratch, lp, rp);
    out.Add(scratch, mul_scratch);
  };

  switch (spec.kind) {
    case JoinKind::kCartesian:
      left.ForEach([&](const Tuple& lk, const Element& lp) {
        right.ForEach(
            [&](const Tuple& rk, const Element& rp) { emit(lk, lp, rk, rp); });
      });
      return;
    case JoinKind::kFullKeyPrimary:
      // The join key covers the whole right schema: at most one match per
      // left entry, found through right's primary index (pipelined — see
      // ForEachFullKeyMatch). No secondary index is built (or maintained
      // by later absorbs into `right`), and the output schema equals
      // left's, so keys pass through unchanged.
      out.Reserve(left.size());
      ForEachFullKeyMatch(
          left, right, spec.right_key_pos,
          [&](const Tuple& lk, const Element& lp, const Element& rp) {
            RingMulInto<Ring>(mul_scratch, lp, rp);
            out.Add(lk, mul_scratch);
          });
      return;
    case JoinKind::kSecondaryProbe: {
      const auto& right_index = right.IndexOn(spec.common);
      left.ForEach([&](const Tuple& lk, const Element& lp) {
        const auto* slots = right_index.Probe(TupleView(lk, spec.left_common));
        if (slots == nullptr) return;
        for (uint32_t slot : *slots) {
          const Element& rp = right.PayloadAt(slot);
          if (Ring::IsZero(rp)) continue;
          emit(lk, lp, right.KeyAt(slot), rp);
        }
      });
      return;
    }
  }
}

template <typename Ring>
Relation<Ring> Join(const Relation<Ring>& left, const Relation<Ring>& right,
                    const JoinSpec& spec) {
  Relation<Ring> out(spec.out_schema);
  JoinInto(out, left, right, spec);
  return out;
}

/// ⊗: natural join of `left` and `right` on their common variables. Output
/// schema is left.schema followed by right's private variables. Payload of a
/// match is Mul(left payload, right payload) — note the order, which matters
/// for non-commutative rings (e.g. the relational data ring concatenates
/// payload schemas left-to-right).
template <typename Ring>
Relation<Ring> Join(const Relation<Ring>& left, const Relation<Ring>& right) {
  return Join(left, right, JoinSpec::Compile(left.schema(), right.schema()));
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
    scratch.Clear();
    for (const auto& src : spec.out_src) {
      scratch.Append(src.from_left ? lk[src.pos] : rk[src.pos]);
    }
    out.Add(scratch, term(lk, lp, rk, rp));
  };

  switch (spec.kind) {
    case JoinKind::kCartesian:
      left.ForEach([&](const Tuple& lk, const Element& lp) {
        right.ForEach(
            [&](const Tuple& rk, const Element& rp) { emit(lk, lp, rk, rp); });
      });
      return;
    case JoinKind::kFullKeyPrimary:
      // Full-key probe: the join key covers the whole right schema, so each
      // left entry has at most one partner, located through right's primary
      // index (pipelined — see ForEachFullKeyMatch) — no secondary index to
      // build here or to maintain on every later absorb into `right`.
      // Every output and lifted variable then lives on the left
      // (out_src/lifted prefer the left position), so the right key is
      // never dereferenced and the left key stands in for it.
      out.Reserve(left.size());
      ForEachFullKeyMatch(
          left, right, spec.right_key_pos,
          [&](const Tuple& lk, const Element& lp, const Element& rp) {
            scratch.Clear();
            for (const auto& src : spec.out_src) {
              scratch.Append(lk[src.pos]);
            }
            out.Add(scratch, term(lk, lp, lk, rp));
          });
      return;
    case JoinKind::kSecondaryProbe: {
      const auto& right_index = right.IndexOn(spec.common);
      if (spec.left_only_key) {
        // When every output variable comes from the left side (all of the
        // right side is joined away), the output key is fixed per left
        // entry, so the whole match set folds in the ring (distributivity)
        // and costs a single hash-map update instead of one per match.
        // The fold accumulator is hoisted like the term scratch: its
        // buffer survives across left entries, keeping the steady state
        // allocation-free.
        out.Reserve(left.size());
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
          scratch.Clear();
          for (const auto& src : spec.out_src) scratch.Append(lk[src.pos]);
          out.Add(scratch, acc);  // const ref: hit path copies nothing
        });
        return;
      }
      out.Reserve(left.size());  // floor; match fan-out grows beyond it
      left.ForEach([&](const Tuple& lk, const Element& lp) {
        const auto* slots = right_index.Probe(TupleView(lk, spec.left_common));
        if (slots == nullptr) return;
        for (uint32_t slot : *slots) {
          const Element& rp = right.PayloadAt(slot);
          if (Ring::IsZero(rp)) continue;
          emit(lk, lp, right.KeyAt(slot), rp);
        }
      });
      return;
    }
  }
}

template <typename Ring>
Relation<Ring> JoinAndMarginalize(const Relation<Ring>& left,
                                  const Relation<Ring>& right,
                                  const JoinMargSpec& spec,
                                  const LiftingMap<Ring>& lifts) {
  Relation<Ring> out(spec.out_schema);
  JoinAndMarginalizeInto(out, left, right, spec, lifts);
  return out;
}

/// Fused ⊕_{marg}(left ⊗ right): joins and immediately marginalizes, never
/// materializing the join result. `marg` may mention variables from either
/// side.
template <typename Ring>
Relation<Ring> JoinAndMarginalize(const Relation<Ring>& left,
                                  const Relation<Ring>& right,
                                  const Schema& marg,
                                  const LiftingMap<Ring>& lifts) {
  return JoinAndMarginalize(
      left, right,
      JoinMargSpec::Compile(left.schema(), right.schema(), marg,
                            [&lifts](VarId v) { return lifts.IsTrivial(v); }),
      lifts);
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

/// Converts a relation between rings by mapping payloads through `fn`.
template <typename ToRing, typename FromRing, typename Fn>
Relation<ToRing> MapPayloads(const Relation<FromRing>& rel, Fn&& fn) {
  Relation<ToRing> out(rel.schema());
  rel.ForEach([&](const Tuple& k, const typename FromRing::Element& p) {
    out.Add(k, fn(p));
  });
  return out;
}

}  // namespace fivm

#endif  // FIVM_DATA_RELATION_OPS_H_
