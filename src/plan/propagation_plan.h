#ifndef FIVM_PLAN_PROPAGATION_PLAN_H_
#define FIVM_PLAN_PROPAGATION_PLAN_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/view_tree.h"
#include "src/data/op_specs.h"
#include "src/data/schema.h"
#include "src/util/small_vector.h"

namespace fivm::plan {

/// One sibling join of a kJoin step: the materialized store of view
/// `sibling` is the right side, matched per the precompiled JoinMargSpec
/// (join kind, probe positions, output assembly, fused store-marginalization
/// placement are all baked in).
struct JoinLink {
  int sibling = -1;
  JoinMargSpec join;
};

/// One resolved step of a compiled leaf-to-root propagation route. The step
/// sequence is executed against a running delta relation (the "left" side):
///  - kJoin: fused join+marginalize of the delta with the stores of the
///    step's `links`. One link is a binary join of any kind. Two or more
///    links are the paper's per-node product δV_i ⊗ ⊗_{j≠i} V_j run as one
///    multi-way full-key join: every link is kFullKeyPrimary, every link but
///    the last keeps the step's left schema (out_schema == left_schema, so
///    each link's right_key_pos indexes the step's left key), and only the
///    last link carries the fused ⊕ and its lifts. Each delta entry probes
///    every sibling store and is multiplied through in link order; no
///    intermediate relation is materialized;
///  - kMarginalize: marginalize per the precompiled MargSpec (store-level or
///    out-level marginalization that could not be fused into a join);
///  - kStoreDelta: the delta, in `node`'s store schema, is a store delta of
///    materialized view `node` — stage it for IvmEngine::AbsorbStaged.
struct PropagationStep {
  enum class Kind : uint8_t { kJoin, kMarginalize, kStoreDelta };

  Kind kind = Kind::kStoreDelta;
  /// View-tree node this step belongs to (the store target for kStoreDelta).
  int node = -1;
  /// kJoin: the sibling joins, in the order the chain would run them.
  std::vector<JoinLink> links;
  MargSpec marg;  // kMarginalize

  /// kJoin: the spec carrying the step's output schema, ⊕ and lifts.
  const JoinMargSpec& last_join() const { return links.back().join; }
};

/// The compiled propagation route of one leaf: F-IVM's per-path delta
/// trigger (paper §4) resolved once at engine construction instead of
/// re-interpreted from the view tree on every delta. Replaces the seed
/// engine's per-update schema algebra (intersections/unions/position maps/
/// join-strategy choices) and the WalkPropagationJoins lockstep replay that
/// index prewarming used to depend on: the prewarm list and the partition
/// key now fall out of the same compiled steps the execution runs.
class PropagationPlan {
 public:
  /// A secondary index a propagation join will probe: the store of view
  /// `node` must be indexed on `key` before concurrent propagation.
  struct SecondaryProbe {
    int node = -1;
    Schema key;
  };

  /// Compiles the leaf-to-root route of `leaf` (a relation or indicator
  /// leaf). `is_trivial` must match the engine's LiftingMap (it decides
  /// which marginalized variables carry ring multiplications).
  static PropagationPlan Compile(const ViewTree& tree, int leaf,
                                 const TrivialLiftFn& is_trivial);

  int leaf() const { return leaf_; }
  /// Layout the delta must be in when propagation starts (the leaf's
  /// out-schema).
  const Schema& leaf_schema() const { return leaf_schema_; }
  const std::vector<PropagationStep>& steps() const { return steps_; }

  /// The join key on which the first sibling join matches delta tuples —
  /// the natural partitioning key for shard-parallel batch propagation.
  /// Restricted to the leaf's out-schema; falls back to the full out-schema
  /// when no sibling join shares a leaf variable.
  const Schema& partition_key() const { return partition_key_; }
  /// Positions of partition_key within leaf_schema (precomputed for the
  /// shard partitioner).
  const util::SmallVector<uint32_t, 6>& partition_positions() const {
    return partition_positions_;
  }

  /// Every secondary index the compiled joins probe (kSecondaryProbe steps,
  /// in step order). Full-key joins probe the primary index and Cartesian
  /// steps scan, so neither appears here.
  const std::vector<SecondaryProbe>& secondary_probes() const {
    return secondary_probes_;
  }

  /// True when every sibling store on the route is materialized — the
  /// precondition for executing the plan (guaranteed by
  /// ViewTree::ComputeMaterialization for updatable relations).
  bool executable() const { return executable_; }

  /// Human-readable dump of the compiled route — one line per step with
  /// view names, schemas, join kinds and probe keys — so a plan can be
  /// diffed against another engine's in bug reports.
  std::string DebugString(const ViewTree& tree) const;

  /// Annotated variant: `annotate(i)` is appended to the line of step `i`
  /// (0-based, in steps() order). IvmEngine::ExplainAnalyze uses this to
  /// turn the static route dump into a profile with observed per-step
  /// time/tuples/allocations.
  std::string DebugString(
      const ViewTree& tree,
      const std::function<std::string(size_t)>& annotate) const;

 private:
  int leaf_ = -1;
  Schema leaf_schema_;
  Schema partition_key_;
  util::SmallVector<uint32_t, 6> partition_positions_;
  std::vector<PropagationStep> steps_;
  std::vector<SecondaryProbe> secondary_probes_;
  bool executable_ = true;
};

/// The compiled plans of a whole view tree: one PropagationPlan per leaf
/// (base-relation and indicator leaves), addressable by query relation or by
/// leaf node. Ring-independent plain data; IvmEngine compiles one at
/// construction and the exec layer (DeltaBatcher / ParallelExecutor) holds
/// handles into it.
class PlanSet {
 public:
  PlanSet() = default;

  static PlanSet Compile(const ViewTree& tree,
                         const TrivialLiftFn& is_trivial);

  const ViewTree& tree() const { return *tree_; }

  /// Plan for updates to query relation `r` (its base leaf).
  const PropagationPlan& ForRelation(int r) const {
    return ForLeaf(tree_->LeafOfRelation(r));
  }

  /// Plan rooted at leaf node `leaf` (base or indicator). Only leaves have
  /// plans — propagation always starts at one.
  const PropagationPlan& ForLeaf(int leaf) const {
    assert(HasPlanForLeaf(leaf) && "no compiled plan: node is not a leaf");
    return plans_[static_cast<size_t>(plan_of_node_[leaf])];
  }

  bool HasPlanForLeaf(int leaf) const {
    return leaf >= 0 && static_cast<size_t>(leaf) < plan_of_node_.size() &&
           plan_of_node_[leaf] >= 0;
  }

  /// All compiled plans, in leaf-node order.
  const std::vector<PropagationPlan>& plans() const { return plans_; }

  std::string DebugString() const;

 private:
  const ViewTree* tree_ = nullptr;
  std::vector<PropagationPlan> plans_;
  std::vector<int> plan_of_node_;  // node id -> index into plans_, or -1
};

}  // namespace fivm::plan

#endif  // FIVM_PLAN_PROPAGATION_PLAN_H_
