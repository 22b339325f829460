#ifndef FIVM_CORE_VIEW_TREE_H_
#define FIVM_CORE_VIEW_TREE_H_

#include <string>
#include <vector>

#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/data/schema.h"
#include "src/util/flat_hash_map.h"
#include "src/util/small_vector.h"

namespace fivm {

/// The ring-independent structure of a view tree τ(ω, F) (Figure 3): which
/// views exist, their key schemas, which variables each view marginalizes,
/// and which views a materialization plan stores (Figure 5). The ring, the
/// payload stores, and the delta propagation live in IvmEngine<Ring>.
class ViewTree {
 public:
  struct Options {
    /// Compose maximal single-child chains of views into one view that
    /// marginalizes several variables at a time (paper Section 3, "long
    /// chains"). Also merges stacked identical views.
    bool compose_chains = true;
    /// Factorized-result mode (Section 6.3): every variable is marginalized
    /// on the way up, but each view's store additionally retains its own
    /// variable, so the stores together form the factorized representation
    /// over ω. Implies compose_chains = false.
    bool retain_vars = false;
  };

  struct Node {
    /// >= 0: leaf wrapper for this query relation (vars empty).
    int relation = -1;
    /// Variable-order variables composed into this view, top-down.
    std::vector<VarId> vars;
    /// Bound vars marginalized by this view (with their lifting functions).
    Schema marg_vars;
    /// Schema of the view value passed to the parent.
    Schema out_schema;
    /// Schema of the materialized store: out_schema plus retained vars.
    Schema store_schema;
    /// store_schema \ out_schema — marginalized by the parent when probing.
    Schema retained_vars;
    int parent = -1;
    util::SmallVector<int, 4> children;
    /// Query relations in this node's subtree.
    util::SmallVector<int, 4> subtree_relations;
    /// >= 0: this leaf is the indicator projection ∃_{out_schema} R of query
    /// relation `indicator_for` (Appendix B). Its payloads are always the
    /// multiplicative identity; the engine maintains per-key support counts.
    int indicator_for = -1;
    bool materialized = false;
    std::string name;
  };

  ViewTree(const Query* query, const VariableOrder* vorder, Options options);
  ViewTree(const Query* query, const VariableOrder* vorder)
      : ViewTree(query, vorder, Options{}) {}

  const Query& query() const { return *query_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(int i) const { return nodes_[i]; }
  int root() const { return root_; }
  const Options& options() const { return options_; }

  /// Index of the leaf node wrapping query relation `r`.
  int LeafOfRelation(int r) const { return leaf_of_relation_[r]; }

  /// Leaf-to-root node path for updates to relation `r` (leaf first).
  std::vector<int> PathToRoot(int r) const;

  /// Figure 10: extends the tree with indicator projections ∃_pk R wherever
  /// a relation outside a view's subtree forms a cycle with the view's
  /// children (detected by GYO reduction). Call before
  /// ComputeMaterialization. Returns the number of indicators added.
  int AddIndicatorProjections();

  /// Indicator leaves maintained for relation `r` (empty unless
  /// AddIndicatorProjections was called and found cycles).
  std::vector<int> IndicatorLeavesOfRelation(int r) const;

  /// Figure 5: marks the views to materialize for the given updatable
  /// relation indices. The root is always materialized.
  void ComputeMaterialization(const std::vector<int>& updatable);

  /// Marks every view materialized (updates to all relations).
  void MaterializeAll();

  /// Number of materialized views.
  int MaterializedCount() const;

  /// Assigns aggregate slots to query variables in view-tree DFS order, so
  /// every subtree covers a contiguous slot range (used by the regression
  /// ring payloads). Returns slot by VarId.
  std::vector<uint32_t> AssignAggregateSlots() const;

  std::string ToString() const;

  /// Renders every view's defining expression with variable names, e.g.
  ///   V@C_ST[A] = ⊕C ( V@D_T[C] ⊗ V@E_S[A,C] )
  /// (the Figure 2b view definitions).
  std::string ExplainViews() const;

 private:
  std::string SchemaNames(const Schema& s) const;
  int BuildFromVarOrder(int vo_node, int parent);
  void ComposeChains();
  void ComputeNames();

  const Query* query_;
  const VariableOrder* vorder_;
  Options options_;
  std::vector<Node> nodes_;
  std::vector<int> leaf_of_relation_;
  int root_ = -1;
};

}  // namespace fivm

#endif  // FIVM_CORE_VIEW_TREE_H_
