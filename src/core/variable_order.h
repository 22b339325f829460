#ifndef FIVM_CORE_VARIABLE_ORDER_H_
#define FIVM_CORE_VARIABLE_ORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/query.h"
#include "src/data/schema.h"
#include "src/util/rng.h"
#include "src/util/small_vector.h"

namespace fivm {

/// A variable order ω = (F, dep) for a join query (Definition 3.1): a rooted
/// forest with one node per query variable, plus the dependency sets dep(X).
/// It dictates the order in which join variables are solved; the constraint
/// is that every relation's variables lie along one root-to-leaf path.
///
/// Build a variable order by adding nodes top-down (AddNode), then call
/// Finalize(query) to attach relations to their lowest variables, validate
/// the path constraint, and compute dep sets and subtree variables. The
/// Auto() builder produces a valid order via recursive connected-component
/// decomposition, placing free variables on top.
class VariableOrder {
 public:
  struct Node {
    VarId var = kInvalidVar;
    int parent = -1;
    util::SmallVector<int, 4> children;
    /// Query relation indices anchored at this node (their lowest variable).
    util::SmallVector<int, 2> relations;
    /// dep(X): ancestors on which the subtree rooted here depends.
    Schema dep;
    /// All variables in the subtree rooted here (including var).
    Schema subtree_vars;
    /// Indices of all query relations whose schema intersects the subtree.
    util::SmallVector<int, 4> subtree_relations;
  };

  /// Adds a node for `var` under `parent` (-1 for a root). Returns its index.
  int AddNode(VarId var, int parent);

  /// Attaches relations, validates, and computes dep/subtree metadata.
  /// Returns false and sets *error on an invalid order (variable missing, or
  /// a relation's variables not on one path).
  bool Finalize(const Query& q, std::string* error);

  /// Builds a valid variable order automatically: free variables first, then
  /// greedy highest-degree elimination with connected-component splitting.
  static VariableOrder Auto(const Query& q);

  /// Like Auto but picks uniformly among valid candidates at every step
  /// (still free-variables-first). Every returned order is valid; used by
  /// property tests to check that results are independent of the chosen
  /// order, and available to users for plan-space exploration.
  static VariableOrder AutoRandom(const Query& q, uint64_t seed);

  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(int i) const { return nodes_[i]; }
  const std::vector<int>& roots() const { return roots_; }
  int node_of_var(VarId v) const;
  bool finalized() const { return finalized_; }

  /// Nodes in a top-down (parents before children) order.
  std::vector<int> TopDown() const;

 private:
  static VariableOrder AutoImpl(const Query& q, util::Rng* rng);
  void ComputeSubtrees(const Query& q);

  std::vector<Node> nodes_;
  std::vector<int> roots_;
  bool finalized_ = false;
};

}  // namespace fivm

#endif  // FIVM_CORE_VARIABLE_ORDER_H_
