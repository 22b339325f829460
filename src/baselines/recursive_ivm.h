#ifndef FIVM_BASELINES_RECURSIVE_IVM_H_
#define FIVM_BASELINES_RECURSIVE_IVM_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/query.h"
#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/rings/lifting.h"
#include "src/rings/ring.h"
#include "src/util/flat_hash_map.h"
#include "src/util/hash.h"

namespace fivm {

/// DBToaster-style fully recursive higher-order IVM (the DBT and DBT-RING
/// baselines of Section 7).
///
/// For every updatable relation R of every maintained view, the delta
/// δ_R(view) is a query over the remaining relations; its connected
/// components (two relations connect iff they share a variable that is not
/// bound by the delta tuple or the group-by) are materialized as auxiliary
/// views and themselves maintained recursively. This yields one
/// materialization hierarchy per relation, in contrast to F-IVM's single
/// view tree — the structural difference the paper measures.
///
/// Several aggregates over the same join can be registered; auxiliary views
/// are shared across aggregates through (relations, group-by, interior
/// lifting signature) memoization. This reproduces the paper's view counts
/// (e.g. DBT maintaining 990 scalar regression aggregates over Retailer with
/// thousands of views rather than 990 independent hierarchies).
template <typename Ring>
class RecursiveIvm {
 public:
  using Element = typename Ring::Element;

  /// `signature[v]` describes how the aggregate lifts variable v (any small
  /// integer code; 0 = trivial). Views are shared between two aggregates iff
  /// their interior variables carry identical codes — the caller guarantees
  /// that equal codes mean equal lifting functions.
  struct Aggregate {
    LiftingMap<Ring> lifts;
    std::vector<uint8_t> signature;  // indexed by VarId; may be short
  };

  RecursiveIvm(const Query* query, std::vector<int> updatable)
      : query_(query), updatable_(std::move(updatable)) {}

  /// Registers an aggregate; returns its index. Call before Initialize /
  /// ApplyDelta.
  int AddAggregate(Aggregate agg) {
    aggregates_.push_back(std::move(agg));
    int a = static_cast<int>(aggregates_.size()) - 1;
    uint64_t all = (uint64_t{1} << query_->relation_count()) - 1;
    top_views_.push_back(Define(all, query_->free_vars(), a));
    return a;
  }

  void Initialize(const Database<Ring>& db) {
    for (ViewDef& v : views_) {
      v.store.Clear();
      Relation<Ring> acc;
      bool have = false;
      for (int r = 0; r < query_->relation_count(); ++r) {
        if ((v.mask >> r) & 1) {
          if (!have) {
            acc = db[r];
            have = true;
          } else {
            acc = Join(acc, db[r]);
          }
        }
      }
      Schema interior = acc.schema().Minus(v.group_by);
      acc = Marginalize(acc, interior, aggregates_[v.aggregate].lifts);
      AbsorbInto(v.store, acc);
    }
  }

  /// Applies δR to every maintained view whose mask contains `relation`.
  /// Views not defined over R are unaffected, so update order is irrelevant.
  void ApplyDelta(int relation, const Relation<Ring>& delta) {
    for (ViewDef& v : views_) {
      if (((v.mask >> relation) & 1) == 0) continue;
      const Plan* plan = nullptr;
      for (const Plan& p : v.plans) {
        if (p.relation == relation) plan = &p;
      }
      assert(plan != nullptr && "relation not updatable for this view");
      Relation<Ring> acc = delta;
      for (int child : plan->components) {
        acc = Join(acc, views_[child].store);
      }
      Schema interior = acc.schema().Minus(v.group_by);
      if (!interior.empty()) {
        acc = Marginalize(acc, interior, aggregates_[v.aggregate].lifts);
      }
      AbsorbInto(v.store, acc);
    }
  }

  const Relation<Ring>& result(int aggregate = 0) const {
    return views_[top_views_[aggregate]].store;
  }

  int ViewCount() const { return static_cast<int>(views_.size()); }

  size_t TotalBytes() const {
    size_t bytes = 0;
    for (const ViewDef& v : views_) bytes += v.store.ApproxBytes();
    return bytes;
  }

 private:
  struct Plan {
    int relation;
    std::vector<int> components;  // child view ids
  };

  struct ViewDef {
    uint64_t mask;
    Schema group_by;   // canonical (sorted) order
    int aggregate;     // whose liftings marginalize the interior vars
    Relation<Ring> store;
    std::vector<Plan> plans;
  };

  Schema VarsOfMask(uint64_t mask) const {
    Schema out;
    for (int r = 0; r < query_->relation_count(); ++r) {
      if ((mask >> r) & 1) out = out.Union(query_->relation(r).schema);
    }
    return out;
  }

  static Schema Canonical(const Schema& s) {
    std::vector<VarId> vars(s.begin(), s.end());
    std::sort(vars.begin(), vars.end());
    Schema out;
    for (VarId v : vars) out.Add(v);
    return out;
  }

  std::string MemoKey(uint64_t mask, const Schema& gb, int aggregate) const {
    std::string key = std::to_string(mask) + "|";
    for (VarId v : gb) key += std::to_string(v) + ",";
    key += "|";
    // Interior lifting signature: degree codes of the marginalized vars.
    const auto& sig = aggregates_[aggregate].signature;
    Schema interior = VarsOfMask(mask).Minus(gb);
    std::vector<VarId> vars(interior.begin(), interior.end());
    std::sort(vars.begin(), vars.end());
    for (VarId v : vars) {
      uint8_t code = v < sig.size() ? sig[v] : 0;
      key += std::to_string(v) + ":" + std::to_string(code) + ";";
    }
    return key;
  }

  int Define(uint64_t mask, const Schema& group_by, int aggregate) {
    Schema gb = Canonical(group_by);
    std::string key = MemoKey(mask, gb, aggregate);
    if (const int* found = memo_.Find(key)) return *found;

    int id = static_cast<int>(views_.size());
    views_.push_back(ViewDef{});
    memo_.Insert(key, id);
    {
      ViewDef& v = views_[id];
      v.mask = mask;
      v.group_by = gb;
      v.aggregate = aggregate;
      v.store = Relation<Ring>(gb);
    }

    // Delta plans (built after the view is registered; recursion may append
    // to views_, so re-fetch by id).
    std::vector<Plan> plans;
    for (int r : updatable_) {
      if (((mask >> r) & 1) == 0) continue;
      uint64_t rest = mask & ~(uint64_t{1} << r);
      Plan plan;
      plan.relation = r;
      if (rest != 0) {
        const Schema& rsch = query_->relation(r).schema;
        Schema bound_by_delta = gb.Union(rsch);
        for (uint64_t comp : ConnectedComponents(rest, bound_by_delta)) {
          Schema cgb = VarsOfMask(comp).Intersect(bound_by_delta);
          plan.components.push_back(Define(comp, cgb, aggregate));
        }
      }
      plans.push_back(std::move(plan));
    }
    views_[id].plans = std::move(plans);
    return id;
  }

  /// Splits `mask` into connected components; relations connect iff they
  /// share a variable outside `bound` (variables fixed by the delta tuple or
  /// the group-by do not connect — DBToaster aggregates such components
  /// separately).
  std::vector<uint64_t> ConnectedComponents(uint64_t mask,
                                            const Schema& bound) const {
    std::vector<int> rels;
    for (int r = 0; r < query_->relation_count(); ++r) {
      if ((mask >> r) & 1) rels.push_back(r);
    }
    std::vector<int> comp(rels.size());
    for (size_t i = 0; i < rels.size(); ++i) comp[i] = static_cast<int>(i);
    std::function<int(int)> find = [&](int x) {
      while (comp[x] != x) x = comp[x] = comp[comp[x]];
      return x;
    };
    for (size_t i = 0; i < rels.size(); ++i) {
      for (size_t j = i + 1; j < rels.size(); ++j) {
        Schema shared = query_->relation(rels[i])
                            .schema.Intersect(query_->relation(rels[j]).schema);
        bool connects = false;
        for (VarId v : shared) {
          if (!bound.Contains(v)) connects = true;
        }
        if (connects) comp[find(static_cast<int>(i))] = find(static_cast<int>(j));
      }
    }
    std::vector<uint64_t> out;
    std::vector<int> reps;
    for (size_t i = 0; i < rels.size(); ++i) {
      int rep = find(static_cast<int>(i));
      int at = -1;
      for (size_t k = 0; k < reps.size(); ++k) {
        if (reps[k] == rep) at = static_cast<int>(k);
      }
      if (at < 0) {
        reps.push_back(rep);
        out.push_back(0);
        at = static_cast<int>(out.size()) - 1;
      }
      out[at] |= uint64_t{1} << rels[i];
    }
    return out;
  }

  struct StringHash {
    uint64_t operator()(const std::string& s) const {
      return util::HashString(s);
    }
  };

  const Query* query_;
  std::vector<int> updatable_;
  std::vector<Aggregate> aggregates_;
  std::vector<ViewDef> views_;
  std::vector<int> top_views_;
  util::FlatHashMap<std::string, int, StringHash> memo_;
};

}  // namespace fivm

#endif  // FIVM_BASELINES_RECURSIVE_IVM_H_
