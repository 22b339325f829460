#ifndef FIVM_CORE_IVM_ENGINE_H_
#define FIVM_CORE_IVM_ENGINE_H_

#include <atomic>
#include <cassert>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/query.h"
#include "src/core/view_tree.h"
#include "src/data/op_specs.h"
#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/obs/metrics.h"
#include "src/plan/propagation_plan.h"
#include "src/rings/lifting.h"
#include "src/rings/ring.h"
#include "src/util/memory_tracker.h"

namespace fivm {

namespace engine_obs {

/// Observed execution profile of one compiled plan step, accumulated across
/// every PropagateDelta that reached it (including concurrent shard
/// callers, hence the relaxed atomics). Engine-owned — not in the global
/// registry — so each engine instance profiles its own plans and
/// ExplainAnalyze never mixes arms of an A/B bench.
struct StepObs {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> in_tuples{0};
  std::atomic<uint64_t> out_tuples{0};
  std::atomic<uint64_t> time_ns{0};
  std::atomic<uint64_t> allocs{0};
};

/// Per-plan step profiles, sized once at engine construction (atomics are
/// immovable, so the vector is never grown).
struct LeafObs {
  explicit LeafObs(size_t steps) : step(steps) {}
  std::vector<StepObs> step;
};

}  // namespace engine_obs

/// F-IVM: the factorized higher-order incremental view maintenance engine
/// (Section 4). Owns the materialized stores of a view tree and implements
/// the IVM triggers: an update to relation R propagates delta views along
/// the single leaf-to-root path of R, joining each delta with the
/// materialized sibling views (Figure 4).
///
/// Propagation is *compiled*, DBToaster-style: at construction the engine
/// compiles one plan::PropagationPlan per leaf (src/plan/) — the full
/// leaf-to-root route as a flat vector of resolved steps with precomputed
/// schemas, position maps, per-join probe strategy, fused marginalization
/// placement and store-absorb points. PropagateDelta executes those steps;
/// PrewarmPropagationIndexes and the executor's sharding (the plan's
/// partition positions) read the same compiled plan, so execution,
/// prewarming and partitioning can never drift apart
/// (the seed interpreter needed a schema-algebra replay kept in lockstep by
/// hand). Intermediate delta relations ping-pong through reusable scratch
/// slots, so repeated batches refill existing entry/index capacity.
///
/// ApplyFactorizedDelta additionally implements the Optimize step of
/// Section 5: a delta given as a product of factors is propagated without
/// materializing its Cartesian product — sibling views join into the factor
/// they share variables with, and marginalization is pushed into the factor
/// that owns each variable. (Factor schemas vary per update, so this path
/// derives its specs per call.)
///
/// Every apply follows the trigger's two phases: propagation *stages* the
/// delta of each materialized store on the path (StagedDeltas), and only
/// then does AbsorbStaged add them to the stores. AbsorbStaged is the one
/// store-write path after Initialize/RestoreStore — for the engine's own
/// triggers and the parallel executor's shard merge alike — so an apply
/// that throws mid-propagation leaves every store as it was.
///
/// If the tree carries indicator projections (Appendix B), updates to an
/// indicated relation trigger a second, sequential propagation from each
/// indicator leaf; per-key support counts (Example B.2) turn base-relation
/// deltas into indicator deltas. Those counts advance once the base
/// propagation has succeeded, so a fault there leaves the engine unchanged;
/// a fault in an indicator propagation does not (the counts and the base
/// delta are already in).
template <typename Ring>
class IvmEngine {
 public:
  using Element = typename Ring::Element;

  /// Reusable intermediate-delta buffers for one propagation execution.
  /// PropagateDelta ping-pongs join/marginalize outputs through the two
  /// slots (Relation::Reset keeps their entry and index capacity), so a
  /// caller that owns a scratch across calls — as the engine itself does for
  /// the sequential trigger — re-fills allocated memory instead of growing
  /// fresh relations per delta. Each concurrent PropagateDelta caller must
  /// use its own scratch.
  struct PropagationScratch {
    Relation<Ring> buf[2];
  };

  /// Store deltas staged by propagation, (view node, store-schema delta)
  /// in leaf-to-root path order.
  using StagedDeltas = std::vector<std::pair<int, Relation<Ring>>>;

  /// `tree` must outlive the engine and must already carry a
  /// materialization plan (ComputeMaterialization / MaterializeAll).
  IvmEngine(const ViewTree* tree, LiftingMap<Ring> lifts)
      : IvmEngine(tree, std::move(lifts), /*compile_plans=*/true) {}

  const ViewTree& tree() const { return *tree_; }
  const LiftingMap<Ring>& lifts() const { return lifts_; }

  /// The compiled propagation plans (one per base/indicator leaf). The exec
  /// layer holds handles into this set; PropagationPlan::DebugString()
  /// dumps one route for diffing in bug reports, ExplainAnalyze() every
  /// route.
  const plan::PlanSet& plans() const { return plans_; }

  /// The maintained query result (root view).
  const Relation<Ring>& result() const { return stores_[tree_->root()]; }

  /// The materialized store of view `node` (empty if not materialized).
  const Relation<Ring>& store(int node) const { return stores_[node]; }

  /// Bulk-loads an initial database: evaluates the whole tree bottom-up and
  /// fills every materialized store.
  void Initialize(const Database<Ring>& db) {
    for (auto& s : stores_) s.Clear();
    EvalOut(tree_->root(), db);
  }

  /// Durability hook: overwrites the store of `node` with recovered
  /// checkpoint contents. Like Initialize this bypasses the store-delta
  /// observer (construct a SnapshotServer after recovery); the
  /// caller (durability::LoadNewestCheckpoint) has already validated that
  /// the image's schema matches this node's store schema.
  void RestoreStore(int node, Relation<Ring>&& contents) {
    stores_[static_cast<size_t>(node)] = std::move(contents);
  }

  /// Applies an update δR to relation `relation` (Figure 4 delta tree) in
  /// the trigger's two phases: propagation stages the delta of every
  /// materialized store on the leaf-to-root path (the leaf's own included),
  /// then AbsorbStaged adds them to the stores; any indicator deltas follow
  /// the same way, one after the other. The apply is all-or-nothing: if
  /// propagation throws, no store and no support count has changed — except
  /// for a fault in an indicator propagation, which runs after the base
  /// delta and the support counts are in. The rvalue overload consumes the
  /// delta, so a freshly built update batch flows into propagation without
  /// a per-batch deep copy.
  void ApplyDelta(int relation, const Relation<Ring>& delta) {
    const Schema& target =
        tree_->node(tree_->LeafOfRelation(relation)).out_schema;
    if (delta.schema() == target) {
      ApplyDelta(relation, Relation<Ring>(delta));
      return;
    }
    // Reorder straight from the reference: one materialization, not a deep
    // copy followed by a rebuild inside Reordered.
    Relation<Ring> reordered(target);
    reordered.Reserve(delta.size());
    auto pos = delta.schema().PositionsOf(target);
    delta.ForEach([&](const Tuple& k, const Element& p) {
      reordered.Add(k.Project(pos), p);
    });
    ApplyDelta(relation, std::move(reordered));
  }

  void ApplyDelta(int relation, Relation<Ring>&& delta) {
    if (applied_deltas_ != nullptr) {
      applied_deltas_->Inc();
      applied_tuples_->Add(delta.size());
    }
    int leaf = tree_->LeafOfRelation(relation);
    staged_.clear();  // a propagation that threw may have left entries
    PropagateDelta(leaf,
                   Reordered(std::move(delta), tree_->node(leaf).out_schema),
                   &staged_, &seq_scratch_);

    // Indicator deltas are derived from the staged leaf delta and the
    // pre-update base relation: after the base propagation, so a fault there
    // leaves the support counts unchanged, and before the absorb.
    std::vector<std::pair<int, Relation<Ring>>> indicator_deltas;
    for (int ind_leaf : tree_->IndicatorLeavesOfRelation(relation)) {
      assert(!staged_.empty() && staged_.front().first == leaf);
      indicator_deltas.emplace_back(
          ind_leaf, ComputeIndicatorDelta(ind_leaf, staged_.front().second));
    }
    AbsorbStaged(staged_);

    for (auto& [ind_leaf, ind_delta] : indicator_deltas) {
      if (ind_delta.empty()) continue;
      PropagateDelta(ind_leaf, std::move(ind_delta), &staged_, &seq_scratch_);
      AbsorbStaged(staged_);
    }
  }

  /// Applies a factorizable update δR = factors[0] ⊗ ... ⊗ factors[k-1]
  /// (disjoint schemas covering sch(R)) without materializing the product
  /// except where a store on the path requires it (Section 5). Like
  /// ApplyDelta, the store deltas are staged along the path and absorbed
  /// only once the walk has finished.
  void ApplyFactorizedDelta(int relation,
                            std::vector<Relation<Ring>> factors) {
    assert(!factors.empty());
    if (!tree_->IndicatorLeavesOfRelation(relation).empty()) {
      // Indicator maintenance needs per-tuple payloads; fall back to the
      // expanded form.
      ApplyDelta(relation, Product(factors));
      return;
    }

    staged_.clear();
    std::vector<int> path = tree_->PathToRoot(relation);
    int leaf = path[0];
    if (tree_->node(leaf).materialized) {
      staged_.emplace_back(leaf, Product(factors));
    }

    int prev = leaf;
    for (size_t i = 1; i < path.size(); ++i) {
      const ViewTree::Node& n = tree_->node(path[i]);
      Schema remaining = n.marg_vars;

      for (size_t ci = 0; ci < n.children.size(); ++ci) {
        int c = n.children[ci];
        if (c == prev) continue;
        assert(tree_->node(c).materialized);
        const Relation<Ring>& sib = stores_[c];

        // Merge every factor sharing variables with the sibling. Consumed
        // factors are compacted out in one stable pass (the erase-in-loop
        // alternative is quadratic on wide products).
        Relation<Ring> combined;
        bool have = false;
        size_t keep = 0;
        for (size_t f = 0; f < factors.size(); ++f) {
          if (factors[f].schema().Intersects(sib.schema())) {
            if (!have) {
              combined = std::move(factors[f]);
              have = true;
            } else {
              combined = Join(combined, factors[f]);
            }
          } else {
            if (keep != f) factors[keep] = std::move(factors[f]);
            ++keep;
          }
        }
        factors.resize(keep);
        if (!have) {
          // Sibling independent of all factors: it becomes its own factor
          // (Cartesian term), with retained vars marginalized.
          Relation<Ring> copy = sib;
          if (!tree_->node(c).retained_vars.empty()) {
            copy = Marginalize(copy, tree_->node(c).retained_vars, lifts_);
          }
          factors.push_back(std::move(copy));
          continue;
        }

        // Marginalize now the vars that live only in this join's scope.
        Schema now = tree_->node(c).retained_vars;
        Schema scope = combined.schema().Union(sib.schema());
        for (VarId v : remaining) {
          if (!scope.Contains(v)) continue;
          bool elsewhere = false;
          for (const auto& f : factors) {
            if (f.schema().Contains(v)) elsewhere = true;
          }
          for (size_t cj = ci + 1; cj < n.children.size(); ++cj) {
            if (n.children[cj] == prev) continue;
            if (stores_[n.children[cj]].schema().Contains(v)) {
              elsewhere = true;
            }
          }
          if (!elsewhere) now.Add(v);
        }
        factors.push_back(JoinAndMarginalize(combined, sib, now, lifts_));
        remaining = remaining.Minus(now);
      }

      // Marginalize leftover node vars inside the factor that owns them.
      for (VarId v : remaining) {
        for (auto& f : factors) {
          if (f.schema().Contains(v)) {
            f = Marginalize(f, Schema{v}, lifts_);
            break;
          }
        }
      }

      if (n.materialized) staged_.emplace_back(path[i], Product(factors));
      prev = path[i];
    }
    AbsorbStaged(staged_);
  }

  /// True when updates to `relation` also fire indicator-leaf propagations.
  /// Indicator maintenance is stateful (per-key support counts transition
  /// between zero and non-zero), hence not linear in the delta: such updates
  /// must be applied sequentially, never shard-parallel.
  bool HasIndicatorLeaves(int relation) const {
    return !tree_->IndicatorLeavesOfRelation(relation).empty();
  }

  /// Builds every sibling-store secondary index that propagation from
  /// `relation`'s leaf probes. Index construction is lazy and not
  /// thread-safe, so concurrent PropagateDelta callers must prewarm first;
  /// after this call the parallel shards only perform read-only probes.
  /// The probe list is part of the compiled plan — the same steps execution
  /// runs — so it is exact by construction: empty join keys scan (no
  /// index), full-key joins probe the primary index, and only proper-subset
  /// keys appear as secondary probes.
  void PrewarmPropagationIndexes(int relation) const {
    const plan::PropagationPlan& p = plans_.ForRelation(relation);
    for (const auto& probe : p.secondary_probes()) {
      stores_[probe.node].IndexOn(probe.key);
    }
  }

  /// Adds staged store deltas to the stores in order, then clears
  /// `staged`. Every store write after Initialize/RestoreStore goes through
  /// here — the engine's own triggers and the parallel executor's shard
  /// merge alike — which is what makes the store-delta observer below a
  /// complete feed for the serving layer's differential staging
  /// (src/serve/).
  void AbsorbStaged(StagedDeltas& staged) {
    for (auto& [node, d] : staged) AbsorbStoreDelta(node, std::move(d));
    staged.clear();
  }

  /// Adds one store-schema delta into the store of view `node`, firing the
  /// observer first.
  void AbsorbStoreDelta(int node, Relation<Ring>&& delta) {
    if (store_delta_observer_) store_delta_observer_(node, delta);
    AbsorbInto(stores_[node], std::move(delta));
  }

  /// Observer of every store delta the engine absorbs, invoked (on the
  /// absorbing thread, i.e. the thread applying deltas) with the view node
  /// and the delta *before* it merges into the store. One observer at a
  /// time; pass nullptr to detach. Initialize() fills stores directly and
  /// does not fire it — construct serving-layer consumers afterwards.
  using StoreDeltaObserver = std::function<void(int, const Relation<Ring>&)>;
  void SetStoreDeltaObserver(StoreDeltaObserver observer) {
    store_delta_observer_ = std::move(observer);
  }

  /// Propagates a delta from (just above) leaf `from` toward the root by
  /// executing the compiled plan, appending to `staged` the store delta of
  /// every materialized node on the path — the leaf's own first, when the
  /// leaf is materialized — instead of writing the stores. Propagation
  /// reads each staged delta in place. `cur` must be in the leaf's
  /// out-schema layout. Nothing is written until the caller hands the list
  /// to AbsorbStaged, so a step that throws leaves the engine unchanged.
  ///
  /// The method only *reads* engine state (sibling stores are probed,
  /// never written), so several shards of one batch may run it
  /// concurrently after PrewarmPropagationIndexes; propagation is linear
  /// in the delta, so the per-shard results merge by ⊎ into exactly the
  /// sequential result. Each concurrent caller must pass its own `staged`
  /// list and `scratch`.
  void PropagateDelta(int from, Relation<Ring> cur, StagedDeltas* staged,
                      PropagationScratch* scratch) const {
    const plan::PropagationPlan& p = plans_.ForLeaf(from);
    assert(p.executable() &&
           "sibling view not materialized for this updatable set");
    assert(cur.schema() == p.leaf_schema());
    Relation<Ring> owned = std::move(cur);
    const Relation<Ring>* left = &owned;
    if (tree_->node(from).materialized) {
      staged->emplace_back(from, std::move(owned));
      left = &staged->back().second;
    }
    int next_buf = 0;
    // Per-step profile: timer + tuple counts + this thread's allocation
    // delta, recorded into the engine-owned step atomics that ExplainAnalyze
    // reads (a fused multi-way join counts as one step). One
    // Enabled() load decides the whole propagation; a disabled run pays a
    // single well-predicted null check per step.
    engine_obs::LeafObs* lobs =
        obs::Enabled() && static_cast<size_t>(from) < obs_by_node_.size()
            ? obs_by_node_[static_cast<size_t>(from)].get()
            : nullptr;
    size_t step_i = 0;
    for (const plan::PropagationStep& s : p.steps()) {
      if (left->empty()) return;  // nothing changes upstream
      uint64_t t0 = 0;
      int64_t a0 = 0;
      size_t in_n = 0;
      if (lobs != nullptr) {
        t0 = obs::TickClock::Now();
        a0 = util::MemoryTracker::ThreadAllocationCount();
        in_n = left->size();
      }
      switch (s.kind) {
        case plan::PropagationStep::Kind::kJoin: {
          Relation<Ring>& out = scratch->buf[next_buf];
          next_buf = 1 - next_buf;
          out.Reset(s.last_join().out_schema);
          JoinStep(out, *left, s);
          left = &out;
          break;
        }
        case plan::PropagationStep::Kind::kMarginalize: {
          Relation<Ring>& out = scratch->buf[next_buf];
          next_buf = 1 - next_buf;
          out.Reset(s.marg.out_schema);
          MarginalizeInto(out, *left, s.marg, lifts_);
          left = &out;
          break;
        }
        case plan::PropagationStep::Kind::kStoreDelta: {
          // Staging takes the current buffer (its slot refills from scratch
          // on the next step). When `left` is itself staged — two
          // materialized nodes with nothing in between — stage a copy, made
          // before the emplace can move the staged relations.
          Relation<Ring> d =
              left == &owned || left == &scratch->buf[0] ||
                      left == &scratch->buf[1]
                  ? std::move(*const_cast<Relation<Ring>*>(left))
                  : Relation<Ring>(*left);
          staged->emplace_back(s.node, std::move(d));
          left = &staged->back().second;
          break;
        }
      }
      if (lobs != nullptr) {
        engine_obs::StepObs& so = lobs->step[step_i];
        so.calls.fetch_add(1, std::memory_order_relaxed);
        so.in_tuples.fetch_add(in_n, std::memory_order_relaxed);
        so.out_tuples.fetch_add(left->size(), std::memory_order_relaxed);
        so.time_ns.fetch_add(
            obs::TickClock::ToNanos(obs::TickClock::Now() - t0),
            std::memory_order_relaxed);
        so.allocs.fetch_add(
            static_cast<uint64_t>(
                util::MemoryTracker::ThreadAllocationCount() - a0),
            std::memory_order_relaxed);
      }
      ++step_i;
    }
  }

  /// Memory footprint of all materialized stores and indicator counts.
  size_t TotalBytes() const {
    size_t bytes = 0;
    for (size_t i = 0; i < stores_.size(); ++i) {
      if (tree_->node(static_cast<int>(i)).materialized) {
        bytes += stores_[i].ApproxBytes();
      }
      bytes += counts_[i].ApproxBytes();
    }
    return bytes;
  }

  int StoredViewCount() const { return tree_->MaterializedCount(); }

  /// EXPLAIN ANALYZE: every compiled propagation route, annotated per step
  /// with the observed execution profile — calls, input/output tuples,
  /// cumulative wall time and the propagating threads' own heap
  /// allocations (allocations require the memhook-linked binaries;
  /// elsewhere they read 0). A fused multi-way join is one step: its
  /// tuple counts are delta entries in, joined keys out. Steps a propagation
  /// never reached show calls=0; steps run while obs::SetEnabled(false)
  /// was in force are not counted.
  std::string ExplainAnalyze() const {
    std::string out;
    for (const plan::PropagationPlan& p : plans_.plans()) {
      const engine_obs::LeafObs* lobs =
          static_cast<size_t>(p.leaf()) < obs_by_node_.size()
              ? obs_by_node_[static_cast<size_t>(p.leaf())].get()
              : nullptr;
      if (lobs == nullptr) {
        out += p.DebugString(*tree_);
        continue;
      }
      out += p.DebugString(*tree_, [lobs](size_t i) {
        const engine_obs::StepObs& so = lobs->step[i];
        char buf[160];
        std::snprintf(
            buf, sizeof buf,
            "  [calls=%llu in=%llu out=%llu time=%.3fms allocs=%llu]",
            static_cast<unsigned long long>(
                so.calls.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(
                so.in_tuples.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(
                so.out_tuples.load(std::memory_order_relaxed)),
            static_cast<double>(so.time_ns.load(std::memory_order_relaxed)) /
                1e6,
            static_cast<unsigned long long>(
                so.allocs.load(std::memory_order_relaxed)));
        return std::string(buf);
      });
    }
    return out;
  }

  /// Non-incremental evaluation (F-RE): computes the root view over `db`
  /// using the factorized view-tree plan, materializing nothing. The
  /// throwaway engine skips propagation-plan compilation — re-evaluation
  /// never propagates a delta.
  static Relation<Ring> Evaluate(const ViewTree& tree,
                                 const LiftingMap<Ring>& lifts,
                                 const Database<Ring>& db) {
    IvmEngine tmp(&tree, lifts, /*compile_plans=*/false);
    return tmp.EvalOut(tree.root(), db);
  }

 private:
  IvmEngine(const ViewTree* tree, LiftingMap<Ring> lifts, bool compile_plans)
      : tree_(tree), lifts_(std::move(lifts)) {
    stores_.reserve(tree_->nodes().size());
    counts_.resize(tree_->nodes().size());
    for (size_t i = 0; i < tree_->nodes().size(); ++i) {
      const auto& n = tree_->node(static_cast<int>(i));
      stores_.emplace_back(n.store_schema);
      if (n.indicator_for >= 0) {
        counts_[i] = Relation<I64Ring>(n.out_schema);
      }
    }
    if (compile_plans) {
      plans_ = plan::PlanSet::Compile(*tree_, TrivialityOf(lifts_));
      obs_by_node_.resize(tree_->nodes().size());
      for (const plan::PropagationPlan& p : plans_.plans()) {
        obs_by_node_[static_cast<size_t>(p.leaf())] =
            std::make_unique<engine_obs::LeafObs>(p.steps().size());
      }
      auto& reg = obs::MetricRegistry::Default();
      applied_deltas_ = reg.GetCounter("engine.applied_deltas");
      applied_tuples_ = reg.GetCounter("engine.applied_tuples");
    }
  }
  /// Turns a base-relation delta into an indicator delta (±1 for keys whose
  /// support transitions between zero and non-zero), maintaining the
  /// support counts (Example B.2). Must run before the base leaf absorbs
  /// the delta.
  Relation<Ring> ComputeIndicatorDelta(int ind_leaf,
                                       const Relation<Ring>& delta) {
    const ViewTree::Node& ln = tree_->node(ind_leaf);
    int relation = ln.indicator_for;
    int rleaf = tree_->LeafOfRelation(relation);
    assert(tree_->node(rleaf).materialized &&
           "indicated relation must be stored");
    const Relation<Ring>& rstore = stores_[rleaf];

    Relation<I64Ring>& counts = counts_[ind_leaf];

    auto store_pos = delta.schema().PositionsOf(rstore.schema());
    auto pk_pos = delta.schema().PositionsOf(ln.out_schema);

    Relation<Ring> dind(ln.out_schema);
    delta.ForEach([&](const Tuple& t, const Element& p) {
      const Element* old = rstore.Find(TupleView(t, store_pos));
      bool old_nz = old != nullptr;
      Element updated = old ? Ring::Add(*old, p) : p;
      bool new_nz = !Ring::IsZero(updated);
      if (old_nz == new_nz) return;
      Tuple pk = t.Project(pk_pos);
      const int64_t* before_ptr = counts.Find(pk);
      int64_t before = before_ptr ? *before_ptr : 0;
      if (new_nz) {
        counts.Add(pk, 1);
        if (before == 0) dind.Add(pk, Ring::One());
      } else {
        counts.Add(pk, -1);
        if (before == 1) dind.Add(pk, Ring::Neg(Ring::One()));
      }
    });
    return dind;
  }

  /// Materializes factors[0] ⊗ ... ⊗ factors[k-1] without consuming the
  /// factors (one factor is copied).
  static Relation<Ring> Product(const std::vector<Relation<Ring>>& factors) {
    assert(!factors.empty());
    if (factors.size() == 1) return factors[0];
    Relation<Ring> acc = Join(factors[0], factors[1]);
    for (size_t i = 2; i < factors.size(); ++i) acc = Join(acc, factors[i]);
    return acc;
  }

  /// Executes a compiled kJoin step: full-key steps (one link or a fused
  /// run of them) through the multi-way executor, any other join kind as a
  /// binary join.
  void JoinStep(Relation<Ring>& out, const Relation<Ring>& left,
                const plan::PropagationStep& s) const {
    const JoinMargSpec& last = s.last_join();
    if (last.kind != JoinKind::kFullKeyPrimary) {
      JoinAndMarginalizeInto(out, left, stores_[s.links[0].sibling], last,
                             lifts_);
      return;
    }
    util::SmallVector<FullKeyProbe<Ring>, 8> probes;
    for (const plan::JoinLink& l : s.links) {
      probes.push_back({&stores_[l.sibling], &l.join.right_key_pos});
    }
    FullKeyJoinAndMarginalizeInto(out, left, probes.data(), probes.size(),
                                  last, lifts_);
  }

  /// True when EvalOut can evaluate node `n` as one multi-way full-key join
  /// over its children's stores: two or more children, each materialized
  /// with its store equal to its out value, and every child after the
  /// first keyed on the first child's variables.
  bool ChildrenJoinOnFirstKey(const ViewTree::Node& n) const {
    if (n.children.size() < 2) return false;
    const Schema& first = tree_->node(n.children[0]).out_schema;
    for (size_t ci = 0; ci < n.children.size(); ++ci) {
      const ViewTree::Node& c = tree_->node(n.children[ci]);
      if (!c.materialized || c.store_schema != c.out_schema) return false;
      if (ci > 0 && ClassifyJoin(first, c.out_schema).kind !=
                        JoinKind::kFullKeyPrimary) {
        return false;
      }
    }
    return true;
  }

  // Computes the node's *store* value (pre-out-marginalization) and fills
  // the store if materialized; returns the *out* value for the parent.
  Relation<Ring> EvalOut(int idx, const Database<Ring>& db) {
    const ViewTree::Node& n = tree_->node(idx);
    if (n.relation >= 0) {
      Relation<Ring> copy(n.out_schema);
      AbsorbInto(copy, db[n.relation]);
      if (n.materialized) {
        stores_[idx].Clear();
        stores_[idx].UnionWith(copy);
      }
      return copy;
    }
    if (n.indicator_for >= 0) {
      // ∃_pk R over the database instance, with fresh support counts.
      counts_[idx] = Relation<I64Ring>(n.out_schema);
      const Relation<Ring>& r = db[n.indicator_for];
      auto pos = r.schema().PositionsOf(n.out_schema);
      r.ForEach([&](const Tuple& t, const Element&) {
        counts_[idx].Add(t.Project(pos), 1);
      });
      Relation<Ring> ones(n.out_schema);
      counts_[idx].ForEach([&](const Tuple& pk, const int64_t&) {
        ones.Add(pk, Ring::One());
      });
      if (n.materialized) {
        stores_[idx].Clear();
        stores_[idx].UnionWith(ones);
      }
      return ones;
    }

    Relation<Ring> acc;
    Schema store_marg = n.marg_vars.Minus(n.retained_vars);
    if (ChildrenJoinOnFirstKey(n)) {
      // The node's product over its children as one multi-way full-key join
      // — the executor compiled propagation runs — probing the children's
      // stores. Each child's store holds exactly its out value (no retained
      // variables), so the copies EvalOut returns are dropped on the spot
      // rather than held next to the stores.
      for (int c : n.children) EvalOut(c, db);
      const Relation<Ring>& first = stores_[n.children[0]];
      util::SmallVector<util::SmallVector<uint32_t, 6>, 8> key_pos;
      key_pos.reserve(n.children.size());  // probes point into it
      util::SmallVector<FullKeyProbe<Ring>, 8> probes;
      for (size_t ci = 1; ci < n.children.size(); ++ci) {
        const Relation<Ring>& child = stores_[n.children[ci]];
        key_pos.push_back(first.schema().PositionsOf(child.schema()));
        probes.push_back({&child, &key_pos.back()});
      }
      const JoinMargSpec spec = JoinMargSpec::Compile(
          first.schema(), probes.back().rel->schema(), store_marg,
          TrivialityOf(lifts_));
      acc = Relation<Ring>(spec.out_schema);
      FullKeyJoinAndMarginalizeInto(acc, first, probes.data(), probes.size(),
                                    spec, lifts_);
      store_marg = Schema{};
    } else {
      bool have = false;
      for (size_t ci = 0; ci < n.children.size(); ++ci) {
        Relation<Ring> child = EvalOut(n.children[ci], db);
        if (!have) {
          acc = std::move(child);
          have = true;
        } else if (ci + 1 == n.children.size() && !store_marg.empty()) {
          // Fuse the final join with the store-level marginalization.
          acc = JoinAndMarginalize(acc, child, store_marg, lifts_);
          store_marg = Schema{};
        } else {
          acc = Join(acc, child);
        }
      }
      if (!have) acc = Relation<Ring>(n.out_schema);
    }
    if (!store_marg.empty()) acc = Marginalize(acc, store_marg, lifts_);
    if (n.materialized) {
      stores_[idx].Clear();
      AbsorbInto(stores_[idx], acc);
    }
    Schema out_marg = n.marg_vars.Intersect(n.retained_vars);
    if (!out_marg.empty()) acc = Marginalize(acc, out_marg, lifts_);
    return acc;
  }

  const ViewTree* tree_;
  LiftingMap<Ring> lifts_;
  plan::PlanSet plans_;
  std::vector<Relation<Ring>> stores_;
  std::vector<Relation<I64Ring>> counts_;  // indicator support counters
  /// Scratch and staging list for the engine's own (sequential)
  /// triggers. Concurrent PropagateDelta callers bring their own.
  PropagationScratch seq_scratch_;
  StagedDeltas staged_;
  /// Serving-layer tee over absorbed store deltas (empty = one untaken
  /// branch per absorb). Invoked on the absorbing thread only.
  StoreDeltaObserver store_delta_observer_;
  /// Per-plan-step execution profiles, indexed by leaf node id (null for
  /// non-leaf nodes and for plan-less engines). unique_ptr keeps the
  /// atomic-holding LeafObs at a stable address — PropagateDelta is const
  /// but records through the (shallow-const) pointer.
  std::vector<std::unique_ptr<engine_obs::LeafObs>> obs_by_node_;
  obs::Counter* applied_deltas_ = nullptr;  // engine.applied_deltas
  obs::Counter* applied_tuples_ = nullptr;  // engine.applied_tuples
};

}  // namespace fivm

#endif  // FIVM_CORE_IVM_ENGINE_H_
