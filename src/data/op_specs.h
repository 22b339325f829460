#ifndef FIVM_DATA_OP_SPECS_H_
#define FIVM_DATA_OP_SPECS_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/data/schema.h"
#include "src/util/small_vector.h"

namespace fivm {

/// Precompiled operator specs: the schema algebra of the fused ⊕_X(· ⊗ ·)
/// (JoinMargSpec; a plain join is the X = ∅ case) and of ⊕_X (MargSpec) —
/// output schema, position maps, probe strategy, lifted-var placement —
/// resolved once, so the executing loop never re-derives it per call. The spec structs are plain data — ring-independent — and are what
/// the plan layer (src/plan/) strings into compiled propagation plans; the
/// templated executors live in relation_ops.h.
///
/// Lifting triviality (whether a marginalized variable multiplies a lifted
/// value into the payload) is a property of the LiftingMap *instance*, not of
/// the ring type, so Compile takes it as a predicate. A spec is only valid
/// for executions whose LiftingMap agrees with that predicate. The Compile
/// functions are templated on the predicate so hot callers (the on-the-fly
/// wrappers in relation_ops.h) pass a raw lambda with IsTrivial inlined;
/// TrivialLiftFn is the type-erased form for the cold plan-compilation path.
using TrivialLiftFn = std::function<bool(VarId)>;

/// Returns a predicate matching `lifts.IsTrivial` (defined as a template so
/// this header does not depend on the ring layer). The predicate captures
/// `lifts` by reference and must not outlive it — use it to compile specs
/// or plans on the spot, never store it.
template <typename LiftingMapT>
TrivialLiftFn TrivialityOf(const LiftingMapT& lifts) {
  return [&lifts](VarId v) { return lifts.IsTrivial(v); };
}

/// How the right side of a join is matched per left entry.
enum class JoinKind : uint8_t {
  /// Empty join key: every (left, right) pair matches.
  kCartesian,
  /// The join key covers the whole right schema: at most one partner per
  /// left entry, found through right's primary index — no secondary index
  /// is built or maintained.
  kFullKeyPrimary,
  /// Proper-subset key: probe a secondary index on `common`.
  kSecondaryProbe,
};

/// The probe-strategy choice: the ONE place the join-kind rule lives, read
/// by JoinMargSpec::Compile and by the engine's choice of a multi-way
/// full-key evaluation (EvalOut), so execution and the plan layer's
/// secondary-probe prewarm list can never diverge.
struct JoinKeyPlan {
  Schema common;  // join key, in left's order
  JoinKind kind = JoinKind::kCartesian;
  /// Positions of `common` within the left schema (secondary probes).
  util::SmallVector<uint32_t, 6> left_common;
  /// Full-key probe: positions of the whole right schema within left.
  util::SmallVector<uint32_t, 6> right_key_pos;
};

inline JoinKeyPlan ClassifyJoin(const Schema& left, const Schema& right) {
  JoinKeyPlan k;
  k.common = left.Intersect(right);
  if (k.common.empty()) {
    k.kind = JoinKind::kCartesian;
  } else if (k.common.size() == right.size()) {
    k.kind = JoinKind::kFullKeyPrimary;
    k.right_key_pos = left.PositionsOf(right);
  } else {
    k.kind = JoinKind::kSecondaryProbe;
    k.left_common = left.PositionsOf(k.common);
  }
  return k;
}

/// Spec of the fused ⊕_{marg}(left ⊗ right): join strategy, output-key
/// assembly and lifted-variable placement resolved once.
struct JoinMargSpec {
  /// Where an output or lifted value is read from: left or right key, at
  /// `pos`.
  struct Source {
    bool from_left = true;
    uint32_t pos = 0;
  };
  struct LiftedVar {
    VarId var = kInvalidVar;
    Source src;
  };

  Schema left_schema;
  Schema right_schema;
  Schema marg;
  Schema common;      // join key, in left's order
  Schema out_schema;  // (left ∪ right-private) \ marg
  JoinKind kind = JoinKind::kCartesian;
  /// Positions of `common` within the left schema (secondary probes).
  util::SmallVector<uint32_t, 6> left_common;
  /// Full-key probe: positions of the whole right schema within left.
  util::SmallVector<uint32_t, 6> right_key_pos;
  /// Per output variable, which side/position supplies its value.
  util::SmallVector<Source, 6> out_src;
  /// Marginalized variables with non-trivial liftings.
  util::SmallVector<LiftedVar, 6> lifted;
  /// Every output variable comes from the left side: the whole match set of
  /// a left entry folds into a single ring accumulation.
  bool left_only_key = false;
  /// out_src begins with the whole left key in order: an output key starts
  /// as a copy of the left key, cached hash included, instead of being
  /// re-folded value by value.
  bool out_extends_left = false;

  template <typename TrivialFn>
  static JoinMargSpec Compile(const Schema& left, const Schema& right,
                              const Schema& marg,
                              const TrivialFn& is_trivial) {
    JoinMargSpec s;
    s.left_schema = left;
    s.right_schema = right;
    s.marg = marg;
    JoinKeyPlan k = ClassifyJoin(left, right);
    s.common = std::move(k.common);
    s.kind = k.kind;
    s.left_common = std::move(k.left_common);
    s.right_key_pos = std::move(k.right_key_pos);
    Schema right_private = right.Minus(s.common);
    Schema joined = left.Union(right_private);
    s.out_schema = joined.Minus(marg);

    for (VarId v : s.out_schema) {
      int lp = left.PositionOf(v);
      if (lp >= 0) {
        s.out_src.push_back(Source{true, static_cast<uint32_t>(lp)});
      } else {
        int rp = right.PositionOf(v);
        assert(rp >= 0);
        s.out_src.push_back(Source{false, static_cast<uint32_t>(rp)});
      }
    }
    for (VarId v : marg) {
      if (!joined.Contains(v) || is_trivial(v)) continue;
      int lp = left.PositionOf(v);
      if (lp >= 0) {
        s.lifted.push_back(
            LiftedVar{v, Source{true, static_cast<uint32_t>(lp)}});
      } else {
        int rp = right.PositionOf(v);
        assert(rp >= 0);
        s.lifted.push_back(
            LiftedVar{v, Source{false, static_cast<uint32_t>(rp)}});
      }
    }
    s.left_only_key = true;
    for (const Source& src : s.out_src) {
      s.left_only_key = s.left_only_key && src.from_left;
    }
    s.out_extends_left = s.out_src.size() >= left.size();
    for (uint32_t i = 0; s.out_extends_left && i < left.size(); ++i) {
      s.out_extends_left = s.out_src[i].from_left && s.out_src[i].pos == i;
    }
    return s;
  }
};

/// Spec of ⊕_{marg}: output projection and lifted positions resolved once.
struct MargSpec {
  struct LiftedVar {
    uint32_t pos = 0;
    VarId var = kInvalidVar;
  };

  Schema in_schema;
  Schema out_schema;  // in \ marg
  util::SmallVector<uint32_t, 6> out_positions;
  util::SmallVector<LiftedVar, 6> lifted;

  template <typename TrivialFn>
  static MargSpec Compile(const Schema& in, const Schema& marg,
                          const TrivialFn& is_trivial) {
    MargSpec s;
    s.in_schema = in;
    s.out_schema = in.Minus(marg);
    s.out_positions = in.PositionsOf(s.out_schema);
    for (VarId v : marg) {
      int pos = in.PositionOf(v);
      assert(pos >= 0);
      if (!is_trivial(v)) {
        s.lifted.push_back(LiftedVar{static_cast<uint32_t>(pos), v});
      }
    }
    return s;
  }
};

}  // namespace fivm

#endif  // FIVM_DATA_OP_SPECS_H_
