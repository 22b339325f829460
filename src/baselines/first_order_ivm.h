#ifndef FIVM_BASELINES_FIRST_ORDER_IVM_H_
#define FIVM_BASELINES_FIRST_ORDER_IVM_H_

#include <cassert>
#include <utility>
#include <vector>

#include "src/core/query.h"
#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/rings/lifting.h"
#include "src/rings/ring.h"

namespace fivm {

/// Classical first-order IVM (1-IVM): stores only the input relations and
/// the query result(s); no auxiliary views. On an update δR the delta query
/// is recomputed from scratch by joining δR with the other base relations,
/// aggregating on the fly (DBToaster's first-order compilation places an
/// aggregate around each disconnected component of the delta query, which is
/// what the eager marginalization below implements).
///
/// Supports several aggregates over the same join (e.g. the quadratically
/// many scalar regression aggregates of Section 7's 1-IVM baseline); the
/// base relations are shared but each aggregate recomputes its own delta —
/// exactly the redundancy the paper measures.
template <typename Ring>
class FirstOrderIvm {
 public:
  using Element = typename Ring::Element;

  /// One result view per lifting map ("aggregate").
  FirstOrderIvm(const Query* query, std::vector<LiftingMap<Ring>> aggregates)
      : query_(query), aggregates_(std::move(aggregates)) {
    assert(!aggregates_.empty());
    for (const auto& rel : query_->relations()) {
      base_.emplace_back(rel.schema);
    }
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      results_.emplace_back(query_->free_vars());
    }
  }

  void Initialize(const Database<Ring>& db) {
    for (int r = 0; r < query_->relation_count(); ++r) {
      base_[r] = db[r];
    }
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      results_[a].Clear();
      Relation<Ring> full = JoinAll(db);
      AbsorbResult(a, Marginalize(full, query_->BoundVars(), aggregates_[a]));
    }
  }

  void ApplyDelta(int relation, const Relation<Ring>& delta) {
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      Relation<Ring> d = ComputeDelta(relation, delta, aggregates_[a]);
      AbsorbResult(a, d);
    }
    base_[relation].UnionWith(delta);
  }

  const Relation<Ring>& result(size_t aggregate = 0) const {
    return results_[aggregate];
  }

  /// Stored state: base relations plus result maps (the paper counts these
  /// as "views" for 1-IVM).
  int StoredViewCount() const {
    return query_->relation_count() + static_cast<int>(results_.size());
  }

  size_t TotalBytes() const {
    size_t bytes = 0;
    for (const auto& r : base_) bytes += r.ApproxBytes();
    for (const auto& r : results_) bytes += r.ApproxBytes();
    return bytes;
  }

 private:
  Relation<Ring> JoinAll(const Database<Ring>& db) const {
    Relation<Ring> acc = db[0];
    for (int i = 1; i < query_->relation_count(); ++i) acc = Join(acc, db[i]);
    return acc;
  }

  /// Joins δR with the remaining base relations, greedily picking connected
  /// relations and marginalizing (with liftings) every bound variable that
  /// no longer occurs in the remaining relations or the output.
  Relation<Ring> ComputeDelta(int relation, const Relation<Ring>& delta,
                              const LiftingMap<Ring>& lifts) const {
    std::vector<int> remaining;
    for (int r = 0; r < query_->relation_count(); ++r) {
      if (r != relation) remaining.push_back(r);
    }

    Relation<Ring> acc = delta;
    // Marginalize delta-local vars that occur nowhere else right away.
    acc = Marginalize(acc, DisposableVars(acc.schema(), remaining), lifts);

    while (!remaining.empty()) {
      // Pick the relation sharing the most variables with acc (fall back to
      // any, producing a Cartesian component join).
      size_t best = 0;
      int best_shared = -1;
      for (size_t i = 0; i < remaining.size(); ++i) {
        const Schema& sch = query_->relation(remaining[i]).schema;
        int shared = static_cast<int>(sch.Intersect(acc.schema()).size());
        if (shared > best_shared) {
          best_shared = shared;
          best = i;
        }
      }
      int r = remaining[best];
      remaining.erase(remaining.begin() + best);
      Schema joined = acc.schema().Union(query_->relation(r).schema);
      Schema disposable = DisposableVars(joined, remaining);
      acc = JoinAndMarginalize(acc, base_[r], disposable, lifts);
    }
    // Any bound vars still present (e.g. free of liftings) are marginalized
    // at the end.
    Schema leftover = acc.schema().Minus(query_->free_vars());
    if (!leftover.empty()) acc = Marginalize(acc, leftover, lifts);
    return acc;
  }

  /// Bound variables of `schema` that occur in no remaining relation.
  Schema DisposableVars(const Schema& schema,
                        const std::vector<int>& remaining) const {
    Schema out;
    for (VarId v : schema) {
      if (query_->free_vars().Contains(v)) continue;
      bool needed = false;
      for (int r : remaining) {
        if (query_->relation(r).schema.Contains(v)) needed = true;
      }
      if (!needed) out.Add(v);
    }
    return out;
  }

  void AbsorbResult(size_t a, const Relation<Ring>& delta) {
    AbsorbInto(results_[a], delta);
  }

  const Query* query_;
  std::vector<LiftingMap<Ring>> aggregates_;
  std::vector<Relation<Ring>> base_;
  std::vector<Relation<Ring>> results_;
};

}  // namespace fivm

#endif  // FIVM_BASELINES_FIRST_ORDER_IVM_H_
