#include "src/core/view_tree.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "src/core/gyo.h"

namespace fivm {

ViewTree::ViewTree(const Query* query, const VariableOrder* vorder,
                   Options options)
    : query_(query), vorder_(vorder), options_(options) {
  assert(vorder->finalized() && "variable order must be finalized");
  if (options_.retain_vars) options_.compose_chains = false;

  leaf_of_relation_.assign(query->relation_count(), -1);

  // Build one view node per variable-order node (plus relation leaves),
  // bottom-up, following Figure 3.
  std::vector<int> tops;
  for (int r : vorder->roots()) tops.push_back(BuildFromVarOrder(r, -1));

  if (tops.size() == 1) {
    root_ = tops[0];
  } else {
    // Disconnected query: a virtual root joins the independent components
    // (Cartesian product in the key space).
    root_ = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    Node& root = nodes_[root_];
    for (int t : tops) {
      root.children.push_back(t);
      nodes_[t].parent = root_;
      root.out_schema = root.out_schema.Union(nodes_[t].out_schema);
      for (int r : nodes_[t].subtree_relations) {
        root.subtree_relations.push_back(r);
      }
    }
    root.store_schema = root.out_schema;
  }

  if (options_.compose_chains) ComposeChains();
  ComputeNames();
}

int ViewTree::BuildFromVarOrder(int vo_node, int parent) {
  const VariableOrder::Node& vn = vorder_->node(vo_node);
  int idx = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  {
    Node& n = nodes_[idx];
    n.parent = parent;
    n.vars.push_back(vn.var);
  }

  // Children: recurse into variable-order children, then wrap anchored
  // relations as leaves.
  util::SmallVector<int, 4> children;
  for (int c : vn.children) {
    children.push_back(BuildFromVarOrder(c, idx));
  }
  for (int r : vn.relations) {
    int leaf = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    Node& ln = nodes_[leaf];
    ln.relation = r;
    ln.parent = idx;
    ln.out_schema = query_->relation(r).schema;
    ln.store_schema = ln.out_schema;
    ln.subtree_relations.push_back(r);
    leaf_of_relation_[r] = leaf;
    children.push_back(leaf);
  }

  Node& n = nodes_[idx];
  n.children = children;

  // Keys: dep(X) ∪ (F ∩ union of child keys). In retain mode all variables
  // are treated as bound (the factorization lives in the stores).
  Schema child_keys;
  for (int c : n.children) {
    child_keys = child_keys.Union(nodes_[c].out_schema);
    for (int r : nodes_[c].subtree_relations) {
      bool present = false;
      for (int existing : n.subtree_relations) {
        if (existing == r) present = true;
      }
      if (!present) n.subtree_relations.push_back(r);
    }
  }
  const Schema& free =
      options_.retain_vars ? Schema{} : query_->free_vars();
  bool var_is_free = free.Contains(vn.var);

  n.out_schema = vn.dep;
  for (VarId v : child_keys) {
    if (free.Contains(v)) n.out_schema.Add(v);
  }
  if (!var_is_free && child_keys.Contains(vn.var)) {
    n.marg_vars = Schema{vn.var};
  }
  n.store_schema = n.out_schema;
  if (options_.retain_vars && child_keys.Contains(vn.var)) {
    n.store_schema = n.out_schema.Union(Schema{vn.var});
    n.retained_vars = Schema{vn.var};
  }
  return idx;
}

void ViewTree::ComposeChains() {
  // Merge every variable node P whose single child C is also a variable
  // node: the composed view marginalizes both nodes' variables at once
  // (V_P = ⊕_{P.marg} ⊕_{C.marg} ⊗ C.children, with keys(P)).
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t p = 0; p < nodes_.size(); ++p) {
      Node& pn = nodes_[p];
      if (pn.relation >= 0 || pn.children.size() != 1) continue;
      int c = pn.children[0];
      Node& cn = nodes_[c];
      if (cn.relation >= 0) continue;
      // Absorb C into P.
      for (VarId v : cn.vars) pn.vars.push_back(v);
      pn.marg_vars = pn.marg_vars.Union(cn.marg_vars);
      pn.children = cn.children;
      for (int gc : pn.children) nodes_[gc].parent = static_cast<int>(p);
      cn.children.clear();
      cn.parent = -2;  // detached marker
      changed = true;
    }
  }

  // Compact: drop detached nodes, remap indices.
  std::vector<int> remap(nodes_.size(), -1);
  std::vector<Node> compact;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].parent == -2) continue;
    remap[i] = static_cast<int>(compact.size());
    compact.push_back(std::move(nodes_[i]));
  }
  for (Node& n : compact) {
    if (n.parent >= 0) n.parent = remap[n.parent];
    for (int& c : n.children) c = remap[c];
  }
  for (int& l : leaf_of_relation_) l = remap[l];
  root_ = remap[root_];
  nodes_ = std::move(compact);
}

int ViewTree::AddIndicatorProjections() {
  int added = 0;
  // Bottom-up over variable nodes (leaves have no children to cycle with).
  std::vector<int> order;
  std::function<void(int)> collect = [&](int idx) {
    for (int c : nodes_[idx].children) collect(c);
    order.push_back(idx);
  };
  collect(root_);

  for (int idx : order) {
    if (nodes_[idx].relation >= 0 || nodes_[idx].indicator_for >= 0) continue;
    // Hyperedges: the children's out schemas.
    std::vector<Schema> edges;
    for (int c : nodes_[idx].children) edges.push_back(nodes_[c].out_schema);
    size_t child_count = edges.size();
    if (child_count < 2) continue;

    // Candidate indicators: relations outside this subtree whose schema
    // intersects the view keys.
    std::vector<int> candidates;
    for (int r = 0; r < query_->relation_count(); ++r) {
      bool in_subtree = false;
      for (int own : nodes_[idx].subtree_relations) {
        if (own == r) in_subtree = true;
      }
      if (in_subtree) continue;
      Schema pk = query_->relation(r).schema.Intersect(nodes_[idx].out_schema);
      if (pk.empty()) continue;
      candidates.push_back(r);
      edges.push_back(pk);
    }
    if (candidates.empty()) continue;

    std::vector<int> core = GyoCyclicCore(edges);
    for (int e : core) {
      if (static_cast<size_t>(e) < child_count) continue;  // a child edge
      int r = candidates[e - child_count];
      int leaf = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      Node& ln = nodes_[leaf];
      ln.indicator_for = r;
      ln.parent = idx;
      ln.out_schema = edges[e];
      ln.store_schema = edges[e];
      ln.name = "Ind" + query_->relation(r).name + edges[e].ToString();
      nodes_[idx].children.push_back(leaf);
      // The node (and its ancestors) now depend on r for maintenance.
      int anc = idx;
      while (anc >= 0) {
        bool present = false;
        for (int own : nodes_[anc].subtree_relations) {
          if (own == r) present = true;
        }
        if (!present) nodes_[anc].subtree_relations.push_back(r);
        anc = nodes_[anc].parent;
      }
      ++added;
    }
  }
  return added;
}

std::vector<int> ViewTree::IndicatorLeavesOfRelation(int r) const {
  std::vector<int> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].indicator_for == r) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> ViewTree::PathToRoot(int r) const {
  std::vector<int> path;
  int n = leaf_of_relation_[r];
  while (n >= 0) {
    path.push_back(n);
    n = nodes_[n].parent;
  }
  return path;
}

void ViewTree::ComputeMaterialization(const std::vector<int>& updatable) {
  auto is_updatable = [&](int rel) {
    for (int u : updatable) {
      if (u == rel) return true;
    }
    return false;
  };

  // Leaf descendants per node. Indicator leaves count as instances of their
  // underlying relation, so a view that hosts an indicator for R is still
  // materialized when R's *real* leaf sits in a sibling branch (and vice
  // versa) — the Figure 5 rule applied to relation instances.
  std::vector<std::vector<int>> leaves(nodes_.size());
  std::function<void(int)> collect = [&](int idx) {
    const Node& n = nodes_[idx];
    if (n.relation >= 0 || n.indicator_for >= 0) {
      leaves[idx].push_back(idx);
      return;
    }
    for (int c : n.children) {
      collect(c);
      for (int l : leaves[c]) leaves[idx].push_back(l);
    }
  };
  collect(root_);

  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[static_cast<int>(i)];
    if (n.parent < 0) {
      n.materialized = true;
      continue;
    }
    bool store = false;
    for (int leaf : leaves[n.parent]) {
      bool in_self = false;
      for (int own : leaves[i]) {
        if (own == leaf) in_self = true;
      }
      if (in_self) continue;
      const Node& ln = nodes_[leaf];
      int rel = ln.relation >= 0 ? ln.relation : ln.indicator_for;
      if (is_updatable(rel)) store = true;
    }
    n.materialized = store;
  }

  // The engine derives indicator deltas from the base relation's payloads,
  // so an indicated relation's leaf must be stored when it is updatable.
  for (const Node& n : nodes_) {
    if (n.indicator_for >= 0 && is_updatable(n.indicator_for)) {
      nodes_[leaf_of_relation_[n.indicator_for]].materialized = true;
    }
  }
}

void ViewTree::MaterializeAll() {
  for (Node& n : nodes_) n.materialized = true;
}

int ViewTree::MaterializedCount() const {
  int count = 0;
  for (const Node& n : nodes_) count += n.materialized ? 1 : 0;
  return count;
}

std::vector<uint32_t> ViewTree::AssignAggregateSlots() const {
  size_t max_var = 0;
  for (VarId v : query_->AllVars()) {
    max_var = std::max<size_t>(max_var, v + 1);
  }
  std::vector<uint32_t> slots(max_var, 0);
  uint32_t next = 0;
  std::function<void(int)> rec = [&](int idx) {
    const Node& n = nodes_[idx];
    for (VarId v : n.vars) slots[v] = next++;
    for (int c : n.children) {
      if (nodes_[c].relation < 0) rec(c);
    }
  };
  rec(root_);
  return slots;
}

void ViewTree::ComputeNames() {
  for (Node& n : nodes_) {
    if (n.relation >= 0) {
      n.name = query_->relation(n.relation).name;
      continue;
    }
    std::string at;
    for (size_t i = 0; i < n.vars.size(); ++i) {
      if (i > 0) at += ",";
      at += query_->catalog().NameOf(n.vars[i]);
    }
    std::string rels;
    for (int r : n.subtree_relations) {
      rels += query_->relation(r).name.substr(0, 2);
    }
    n.name = "V@" + at + "_" + rels;
  }
}

std::string ViewTree::SchemaNames(const Schema& s) const {
  std::string out = "[";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += ",";
    out += query_->catalog().NameOf(s[i]);
  }
  out += "]";
  return out;
}

std::string ViewTree::ExplainViews() const {
  std::string out;
  std::function<void(int)> rec = [&](int idx) {
    const Node& n = nodes_[idx];
    for (int c : n.children) rec(c);
    if (n.relation >= 0) return;
    out += n.name + SchemaNames(n.store_schema) + " = ";
    if (!n.marg_vars.empty()) {
      Schema shown = n.marg_vars.Minus(n.retained_vars);
      if (!shown.empty()) {
        out += "⊕";
        for (VarId v : shown) out += query_->catalog().NameOf(v);
        out += " ";
      }
    }
    out += "( ";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (i > 0) out += " ⊗ ";
      const Node& c = nodes_[n.children[i]];
      out += c.name + SchemaNames(c.out_schema);
    }
    out += " )\n";
  };
  rec(root_);
  return out;
}

std::string ViewTree::ToString() const {
  std::string out;
  std::function<void(int, int)> rec = [&](int idx, int indent) {
    const Node& n = nodes_[idx];
    out.append(indent, ' ');
    out += n.name + n.store_schema.ToString();
    if (n.materialized) out += " *";
    out += "\n";
    for (int c : n.children) rec(c, indent + 2);
  };
  rec(root_, 0);
  return out;
}

}  // namespace fivm
