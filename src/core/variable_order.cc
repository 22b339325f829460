#include "src/core/variable_order.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace fivm {

int VariableOrder::AddNode(VarId var, int parent) {
  int idx = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[idx].var = var;
  nodes_[idx].parent = parent;
  if (parent < 0) {
    roots_.push_back(idx);
  } else {
    nodes_[parent].children.push_back(idx);
  }
  return idx;
}

int VariableOrder::node_of_var(VarId v) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].var == v) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> VariableOrder::TopDown() const {
  std::vector<int> order;
  order.reserve(nodes_.size());
  std::vector<int> stack(roots_.rbegin(), roots_.rend());
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    order.push_back(n);
    for (int c : nodes_[n].children) stack.push_back(c);
  }
  return order;
}

bool VariableOrder::Finalize(const Query& q, std::string* error) {
  // Every query variable must have exactly one node.
  Schema all = q.AllVars();
  for (VarId v : all) {
    int count = 0;
    for (const Node& n : nodes_) {
      if (n.var == v) ++count;
    }
    if (count != 1) {
      if (error) {
        *error = "variable " + q.catalog().NameOf(v) +
                 (count == 0 ? " missing from" : " duplicated in") +
                 " variable order";
      }
      return false;
    }
  }

  // Depth of each node, for path checks and lowest-variable anchoring.
  std::vector<int> depth(nodes_.size(), 0);
  for (int n : TopDown()) {
    depth[n] = nodes_[n].parent < 0 ? 0 : depth[nodes_[n].parent] + 1;
  }

  auto is_ancestor = [&](int anc, int node) {
    int cur = node;
    while (cur >= 0) {
      if (cur == anc) return true;
      cur = nodes_[cur].parent;
    }
    return false;
  };

  // Attach each relation to its deepest variable and validate the
  // root-to-leaf path constraint.
  for (int r = 0; r < q.relation_count(); ++r) {
    const Schema& sch = q.relation(r).schema;
    int deepest = -1;
    for (VarId v : sch) {
      int n = node_of_var(v);
      if (deepest < 0 || depth[n] > depth[deepest]) deepest = n;
    }
    if (deepest < 0) {
      if (error) *error = "relation " + q.relation(r).name + " has no vars";
      return false;
    }
    for (VarId v : sch) {
      int n = node_of_var(v);
      if (!is_ancestor(n, deepest)) {
        if (error) {
          *error = "relation " + q.relation(r).name +
                   " variables not on one root-to-leaf path (" +
                   q.catalog().NameOf(v) + ")";
        }
        return false;
      }
    }
    nodes_[deepest].relations.push_back(r);
  }

  ComputeSubtrees(q);
  finalized_ = true;
  return true;
}

void VariableOrder::ComputeSubtrees(const Query& q) {
  std::vector<int> order = TopDown();
  // Bottom-up: subtree vars and subtree relations.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node& n = nodes_[*it];
    n.subtree_vars = Schema{};
    n.subtree_vars.Add(n.var);
    n.subtree_relations.clear();
    for (int c : n.children) {
      n.subtree_vars = n.subtree_vars.Union(nodes_[c].subtree_vars);
      for (int r : nodes_[c].subtree_relations) {
        bool present = false;
        for (int existing : n.subtree_relations) {
          if (existing == r) present = true;
        }
        if (!present) n.subtree_relations.push_back(r);
      }
    }
    for (int r : n.relations) n.subtree_relations.push_back(r);
  }
  // dep(X) = ancestors(X) ∩ vars of relations intersecting subtree(X).
  for (int idx : order) {
    Node& n = nodes_[idx];
    Schema reachable;
    for (int r = 0; r < q.relation_count(); ++r) {
      if (q.relation(r).schema.Intersects(n.subtree_vars)) {
        reachable = reachable.Union(q.relation(r).schema);
      }
    }
    n.dep = Schema{};
    int anc = n.parent;
    while (anc >= 0) {
      if (reachable.Contains(nodes_[anc].var)) n.dep.Add(nodes_[anc].var);
      anc = nodes_[anc].parent;
    }
  }
}

namespace {
struct AutoTask {
  std::vector<VarId> vars;
  std::vector<Schema> schemas;  // remaining relation schemas (restricted)
  int parent;
};
}  // namespace

VariableOrder VariableOrder::Auto(const Query& q) {
  return AutoImpl(q, nullptr);
}

VariableOrder VariableOrder::AutoRandom(const Query& q, uint64_t seed) {
  util::Rng rng(seed);
  return AutoImpl(q, &rng);
}

VariableOrder VariableOrder::AutoImpl(const Query& q, util::Rng* rng) {
  VariableOrder vo;
  using Task = AutoTask;

  std::vector<Schema> schemas;
  for (const auto& rel : q.relations()) schemas.push_back(rel.schema);

  std::function<void(Task)> build = [&](Task task) {
    if (task.vars.empty()) return;
    // Prefer free variables (keeps them on top of every path), then either
    // the highest relation degree (deterministic) or a uniform pick
    // (randomized plan exploration).
    VarId best = task.vars[0];
    if (rng != nullptr) {
      std::vector<VarId> candidates;
      for (VarId v : task.vars) {
        if (q.free_vars().Contains(v)) candidates.push_back(v);
      }
      if (candidates.empty()) candidates = task.vars;
      best = candidates[rng->Uniform(candidates.size())];
    } else {
      int best_score = -1;
      bool best_free = false;
      for (VarId v : task.vars) {
        bool is_free = q.free_vars().Contains(v);
        int score = 0;
        for (const Schema& s : task.schemas) {
          if (s.Contains(v)) ++score;
        }
        if ((is_free && !best_free) ||
            (is_free == best_free && score > best_score)) {
          best = v;
          best_score = score;
          best_free = is_free;
        }
      }
    }

    int node = vo.AddNode(best, task.parent);

    // Remove best; split the remainder into connected components (two
    // variables connect if they co-occur in a remaining relation schema).
    std::vector<VarId> rest;
    for (VarId v : task.vars) {
      if (v != best) rest.push_back(v);
    }
    if (rest.empty()) return;

    // Union-find over rest via shared schemas.
    std::vector<int> comp(rest.size());
    for (size_t i = 0; i < rest.size(); ++i) comp[i] = static_cast<int>(i);
    std::function<int(int)> find = [&](int x) {
      while (comp[x] != x) x = comp[x] = comp[comp[x]];
      return x;
    };
    auto unite = [&](int a, int b) { comp[find(a)] = find(b); };
    auto index_of = [&](VarId v) -> int {
      for (size_t i = 0; i < rest.size(); ++i) {
        if (rest[i] == v) return static_cast<int>(i);
      }
      return -1;
    };
    for (const Schema& s : task.schemas) {
      int first = -1;
      for (VarId v : s) {
        if (v == best) continue;
        int i = index_of(v);
        if (i < 0) continue;
        if (first < 0) {
          first = i;
        } else {
          unite(first, i);
        }
      }
    }

    // Group into component tasks.
    std::vector<int> reps;
    std::vector<Task> subtasks;
    for (size_t i = 0; i < rest.size(); ++i) {
      int rep = find(static_cast<int>(i));
      int t = -1;
      for (size_t k = 0; k < reps.size(); ++k) {
        if (reps[k] == rep) t = static_cast<int>(k);
      }
      if (t < 0) {
        reps.push_back(rep);
        subtasks.push_back(Task{{}, {}, node});
        t = static_cast<int>(subtasks.size()) - 1;
      }
      subtasks[t].vars.push_back(rest[i]);
    }
    for (const Schema& s : task.schemas) {
      // A schema (with best removed) belongs to the component of any of its
      // remaining vars (they are all connected through it).
      Schema reduced;
      for (VarId v : s) {
        if (v != best && index_of(v) >= 0) reduced.Add(v);
      }
      if (reduced.empty()) continue;
      int rep = find(index_of(reduced[0]));
      for (size_t k = 0; k < reps.size(); ++k) {
        if (reps[k] == rep) subtasks[k].schemas.push_back(reduced);
      }
    }
    for (Task& t : subtasks) build(std::move(t));
  };

  Schema all = q.AllVars();
  Task root;
  root.parent = -1;
  for (VarId v : all) root.vars.push_back(v);
  root.schemas = schemas;
  // If the query itself is disconnected, the recursion handles it only below
  // the first pick; split the top level into components as well.
  // (Simplest: run build once; disconnected queries get a chain through the
  // first component then separate roots are not created. To support multiple
  // roots we split here.)
  {
    std::vector<int> comp(root.vars.size());
    for (size_t i = 0; i < comp.size(); ++i) comp[i] = static_cast<int>(i);
    std::function<int(int)> find = [&](int x) {
      while (comp[x] != x) x = comp[x] = comp[comp[x]];
      return x;
    };
    auto index_of = [&](VarId v) -> int {
      for (size_t i = 0; i < root.vars.size(); ++i) {
        if (root.vars[i] == v) return static_cast<int>(i);
      }
      return -1;
    };
    for (const Schema& s : root.schemas) {
      int first = -1;
      for (VarId v : s) {
        int i = index_of(v);
        if (i < 0) continue;
        if (first < 0) {
          first = i;
        } else {
          comp[find(first)] = find(i);
        }
      }
    }
    std::vector<int> reps;
    std::vector<Task> tops;
    for (size_t i = 0; i < root.vars.size(); ++i) {
      int rep = find(static_cast<int>(i));
      int t = -1;
      for (size_t k = 0; k < reps.size(); ++k) {
        if (reps[k] == rep) t = static_cast<int>(k);
      }
      if (t < 0) {
        reps.push_back(rep);
        tops.push_back(Task{{}, {}, -1});
        t = static_cast<int>(tops.size()) - 1;
      }
      tops[t].vars.push_back(root.vars[i]);
    }
    for (const Schema& s : root.schemas) {
      if (s.empty()) continue;
      int rep = find(index_of(s[0]));
      for (size_t k = 0; k < reps.size(); ++k) {
        if (reps[k] == rep) tops[k].schemas.push_back(s);
      }
    }
    for (Task& t : tops) build(std::move(t));
  }

  std::string error;
  bool ok = vo.Finalize(q, &error);
  assert(ok && "Auto() must produce a valid variable order");
  (void)ok;
  return vo;
}

}  // namespace fivm
