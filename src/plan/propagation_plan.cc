#include "src/plan/propagation_plan.h"

#include <cassert>

#include "src/data/catalog.h"

namespace fivm::plan {
namespace {

std::string SchemaNames(const Catalog& catalog, const Schema& s) {
  std::string out = "[";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i) out += ",";
    out += catalog.NameOf(s[i]);
  }
  out += "]";
  return out;
}

const char* JoinKindName(JoinKind k) {
  switch (k) {
    case JoinKind::kCartesian:
      return "cartesian-scan";
    case JoinKind::kFullKeyPrimary:
      return "full-key primary probe";
    case JoinKind::kSecondaryProbe:
      return "secondary probe";
  }
  return "?";
}

/// True when a sibling join compiled as `join` at node `node` can be
/// folded into the last step of `steps` as one more link of a multi-way
/// full-key join: that step is a join at the same node whose links are all
/// full-key probes, and its last link neither marginalizes nor adds columns
/// (so its output is its left side and `join`'s probe positions index the
/// step's left key).
bool ExtendsFusedJoin(const std::vector<PropagationStep>& steps, int node,
                      const JoinMargSpec& join) {
  if (steps.empty() || join.kind != JoinKind::kFullKeyPrimary) return false;
  const PropagationStep& last = steps.back();
  return last.kind == PropagationStep::Kind::kJoin && last.node == node &&
         last.last_join().kind == JoinKind::kFullKeyPrimary &&
         last.last_join().out_schema == last.last_join().left_schema;
}

}  // namespace

PropagationPlan PropagationPlan::Compile(const ViewTree& tree, int leaf,
                                         const TrivialLiftFn& is_trivial) {
  PropagationPlan p;
  p.leaf_ = leaf;
  p.leaf_schema_ = tree.node(leaf).out_schema;

  // Replay — once — the exact schema algebra the seed interpreter performed
  // per delta: per path node, fold each sibling store into the running
  // delta, fusing the store-level marginalization into the last sibling
  // join, then marginalize leftovers, stage the store delta, and marginalize
  // the retained variables before handing the delta to the parent. A run of
  // full-key sibling probes at one node compiles to a single multi-way join
  // step (ExtendsFusedJoin) instead of a chain of materialized binary joins.
  Schema cur = p.leaf_schema_;
  int prev = leaf;
  int idx = tree.node(leaf).parent;
  while (idx >= 0) {
    const ViewTree::Node& n = tree.node(idx);
    Schema store_marg = n.marg_vars.Minus(n.retained_vars);
    int last_sibling = -1;
    for (int c : n.children) {
      if (c != prev) last_sibling = c;
    }
    for (int c : n.children) {
      if (c == prev) continue;
      if (!tree.node(c).materialized) p.executable_ = false;
      const Schema& sib = tree.node(c).store_schema;
      Schema marg = tree.node(c).retained_vars;
      if (c == last_sibling && !store_marg.empty()) {
        marg = marg.Union(store_marg);
        store_marg = Schema{};
      }
      JoinLink link{c, JoinMargSpec::Compile(cur, sib, marg, is_trivial)};
      if (link.join.kind == JoinKind::kSecondaryProbe) {
        p.secondary_probes_.push_back(SecondaryProbe{c, link.join.common});
      }
      if (p.partition_key_.empty()) {
        Schema usable = link.join.common.Intersect(p.leaf_schema_);
        if (!usable.empty()) p.partition_key_ = std::move(usable);
      }
      cur = link.join.out_schema;
      if (ExtendsFusedJoin(p.steps_, idx, link.join)) {
        p.steps_.back().links.push_back(std::move(link));
        continue;
      }
      PropagationStep step;
      step.kind = PropagationStep::Kind::kJoin;
      step.node = idx;
      step.links.push_back(std::move(link));
      p.steps_.push_back(std::move(step));
    }
    if (!store_marg.empty()) {
      PropagationStep step;
      step.kind = PropagationStep::Kind::kMarginalize;
      step.node = idx;
      step.marg = MargSpec::Compile(cur, store_marg, is_trivial);
      cur = step.marg.out_schema;
      p.steps_.push_back(std::move(step));
    }
    if (n.materialized) {
      PropagationStep step;
      step.kind = PropagationStep::Kind::kStoreDelta;
      step.node = idx;
      p.steps_.push_back(std::move(step));
    }
    Schema out_marg = n.marg_vars.Intersect(n.retained_vars);
    if (!out_marg.empty()) {
      PropagationStep step;
      step.kind = PropagationStep::Kind::kMarginalize;
      step.node = idx;
      step.marg = MargSpec::Compile(cur, out_marg, is_trivial);
      cur = step.marg.out_schema;
      p.steps_.push_back(std::move(step));
    }
    prev = idx;
    idx = n.parent;
  }

  if (p.partition_key_.empty()) p.partition_key_ = p.leaf_schema_;
  p.partition_positions_ = p.leaf_schema_.PositionsOf(p.partition_key_);
  return p;
}

std::string PropagationPlan::DebugString(const ViewTree& tree) const {
  return DebugString(tree, nullptr);
}

std::string PropagationPlan::DebugString(
    const ViewTree& tree,
    const std::function<std::string(size_t)>& annotate) const {
  const Catalog& catalog = tree.query().catalog();
  std::string out = "plan for leaf " + tree.node(leaf_).name +
                    SchemaNames(catalog, leaf_schema_) +
                    (executable_ ? "" : "  (NOT executable: sibling "
                                        "store not materialized)") +
                    "\n  partition key " +
                    SchemaNames(catalog, partition_key_) + "\n";
  int i = 0;
  for (const PropagationStep& s : steps_) {
    out += "  " + std::to_string(++i) + ". ";
    switch (s.kind) {
      case PropagationStep::Kind::kJoin: {
        // A fused multi-way join prints as one line listing every sibling.
        out += "join";
        for (const JoinLink& l : s.links) {
          out += " ⊗ " + tree.node(l.sibling).name +
                 SchemaNames(catalog, l.join.right_schema);
        }
        const JoinMargSpec& j = s.last_join();
        out += std::string(" [") + JoinKindName(j.kind);
        if (j.kind == JoinKind::kSecondaryProbe) {
          out += " on " + SchemaNames(catalog, j.common);
        }
        out += "]";
        if (!j.marg.empty()) out += " fused ⊕" + SchemaNames(catalog, j.marg);
        if (j.kind == JoinKind::kSecondaryProbe && j.left_only_key) {
          out += " (left-key ring fold)";
        }
        out += " -> " + SchemaNames(catalog, j.out_schema);
        break;
      }
      case PropagationStep::Kind::kMarginalize:
        out += "⊕" + SchemaNames(catalog, s.marg.in_schema.Minus(
                                              s.marg.out_schema)) +
               " -> " + SchemaNames(catalog, s.marg.out_schema);
        break;
      case PropagationStep::Kind::kStoreDelta:
        out += "store δ" + tree.node(s.node).name + " (absorb)";
        break;
    }
    if (annotate) out += annotate(static_cast<size_t>(i - 1));
    out += "\n";
  }
  return out;
}

PlanSet PlanSet::Compile(const ViewTree& tree,
                         const TrivialLiftFn& is_trivial) {
  PlanSet set;
  set.tree_ = &tree;
  set.plan_of_node_.assign(tree.nodes().size(), -1);
  for (size_t i = 0; i < tree.nodes().size(); ++i) {
    const ViewTree::Node& n = tree.node(static_cast<int>(i));
    if (n.relation < 0 && n.indicator_for < 0) continue;
    set.plan_of_node_[i] = static_cast<int>(set.plans_.size());
    set.plans_.push_back(
        PropagationPlan::Compile(tree, static_cast<int>(i), is_trivial));
  }
  return set;
}

std::string PlanSet::DebugString() const {
  std::string out;
  for (const PropagationPlan& p : plans_) {
    out += p.DebugString(*tree_);
  }
  return out;
}

}  // namespace fivm::plan
