#ifndef FIVM_EXEC_PARALLEL_EXECUTOR_H_
#define FIVM_EXEC_PARALLEL_EXECUTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/data/tuple.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/thread_pool.h"
#include "src/plan/propagation_plan.h"
#include "src/util/fail_point.h"

namespace fivm::exec {

/// Applies coalesced delta batches to an IvmEngine, hash-partitioning each
/// batch on the leaf's propagation join key across a worker pool. Every
/// shard runs the ordinary leaf-to-root propagation against the sibling
/// stores — which the propagation only reads — staging its per-store deltas
/// locally; the staged deltas are then merged into the shared stores in
/// shard order on the calling thread.
///
/// Correctness rests on two properties:
///  - Propagation is linear in the delta (it joins the delta against
///    sibling stores that the update does not modify), so the shard
///    results merged by ⊎ equal sequential application of the whole batch.
///  - The shard count is fixed by the pool and the partitioner hashes only
///    key values, so the merge order — and with it the final store state —
///    is deterministic, independent of thread scheduling.
///
/// Updates that fire indicator propagations are stateful (support counts)
/// and automatically fall back to the sequential engine path, as do batches
/// too small to amortize the fork/merge overhead.
///
/// ApplyBatch is all-or-nothing with respect to engine state on both
/// paths: every store delta — the leaf's included — is staged (in
/// worker-local lists here, in the engine's own list on the sequential
/// path) and absorbed through IvmEngine::AbsorbStaged only after
/// propagation completed, so an exception thrown by a worker task (see the
/// "exec.task" failpoint) or by a propagation step propagates out of
/// ApplyBatch with no store modified. The one exception is a fault in an
/// indicator propagation, which runs after the base delta and the support
/// counts are in (IvmEngine::ApplyDelta).
template <typename Ring>
  requires RingPolicy<Ring>
class ParallelExecutor {
 public:
  using Element = typename Ring::Element;

  /// Below this many coalesced delta keys a batch is applied sequentially:
  /// the propagation is cheaper than partitioning plus task dispatch.
  static constexpr size_t kMinParallelKeys = 64;

  struct Options {
    /// Number of shards a batch is split into. 0 = auto: the pool size
    /// capped by the hardware's concurrency — oversharding beyond physical
    /// cores pays staging and merge overhead with no wall-clock gain.
    /// Tests pin this explicitly to exercise multi-shard execution on any
    /// machine.
    size_t shards = 0;
  };

  /// `engine` and `pool` must outlive the executor. The executor holds a
  /// handle to the engine's compiled plan set: partition keys, leaf
  /// layouts and prewarm lists are read off the per-relation
  /// PropagationPlan instead of being re-derived per batch.
  ParallelExecutor(IvmEngine<Ring>* engine, ThreadPool* pool,
                   Options options = {})
      : engine_(engine),
        plans_(&engine->plans()),
        pool_(pool),
        options_(options) {
    auto& reg = obs::MetricRegistry::Default();
    obs_parallel_ = reg.GetCounter("exec.parallel_batches");
    obs_sequential_ = reg.GetCounter("exec.sequential_batches");
    obs_partition_ns_ = reg.GetHistogram("exec.partition_ns");
    obs_merge_ns_ = reg.GetHistogram("exec.merge_ns");
    obs_imbalance_ = reg.GetHistogram("exec.shard_imbalance_x100");
  }

  /// Invoked at the end of every ApplyBatch (parallel and sequential
  /// fallback alike), after all of the batch's store absorbs merged — the
  /// publish-per-batch hook of the serving layer: wiring
  /// serve::SnapshotServer::Publish here makes each applied batch visible
  /// to new snapshots atomically. Empty batches fire nothing.
  void SetPostBatchHook(std::function<void()> hook) {
    post_batch_ = std::move(hook);
  }

  size_t ShardCount() const {
    if (options_.shards > 0) return options_.shards;
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    return std::min(pool_->thread_count(), hw);
  }

  /// Applies one coalesced batch to `relation`. The delta may be keyed in
  /// the query relation's layout or the leaf's out-schema layout; the final
  /// store contents equal engine->ApplyDelta(relation, delta).
  void ApplyBatch(int relation, Relation<Ring> delta) {
    if (delta.empty()) return;
    const size_t shards = ShardCount();
    if (shards <= 1 || delta.size() < kMinParallelKeys ||
        engine_->HasIndicatorLeaves(relation)) {
      obs_sequential_->Inc();
      engine_->ApplyDelta(relation, std::move(delta));
      if (post_batch_) post_batch_();
      return;
    }
    obs_parallel_->Inc();

    const plan::PropagationPlan& plan = plans_->ForRelation(relation);
    const int leaf = plan.leaf();
    const Schema& leaf_schema = plan.leaf_schema();
    delta = Reordered(std::move(delta), leaf_schema);

    // Each shard stages its store deltas, the leaf's own included, and no
    // shared store is written until every worker task has finished: a task
    // that throws (an injected fault or a real one) leaves the engine
    // exactly as it was. The batch content is consumed either way; retry
    // policy lives in the caller (see ingest::IngestService).

    // Partition on the first sibling join's key so entries sharing a join
    // partner land in the same shard; any partition is correct
    // (linearity), this one keeps each shard's probe working set disjoint.
    // Key and positions are precompiled into the plan.
    const auto& part_pos = plan.partition_positions();
    const size_t batch_keys = delta.size();
    const uint64_t part_t0 = obs::TickClock::Now();
    std::vector<Relation<Ring>> shard_delta;
    shard_delta.reserve(shards);
    // Presize each shard for its expected share of the batch (hash
    // partitioning spreads keys near-uniformly), so the partition loop
    // runs without mid-batch rehashes; the 2× slack absorbs skew.
    const size_t per_shard = delta.size() / shards * 2 + 16;
    for (size_t s = 0; s < shards; ++s) {
      shard_delta.emplace_back(leaf_schema);
      shard_delta[s].Reserve(per_shard);
    }
    auto pool = delta.TakePool();
    for (size_t i = 0; i < pool.keys.size(); ++i) {
      if (Ring::IsZero(pool.payloads[i])) continue;
      size_t s = TupleView(pool.keys[i], part_pos).Hash() % shards;
      shard_delta[s].Add(std::move(pool.keys[i]), std::move(pool.payloads[i]));
    }

    obs_partition_ns_->RecordTicks(obs::TickClock::Now() - part_t0);
    if (obs::Enabled()) {
      // Shard-size imbalance: largest shard over the perfectly-even share,
      // in percent (100 = perfectly balanced). The histogram's tail shows
      // how often hash partitioning leaves one worker with the batch.
      size_t largest = 0;
      for (const auto& sd : shard_delta) largest = std::max(largest, sd.size());
      obs_imbalance_->Record(largest * shards * 100 / std::max<size_t>(1, batch_keys));
    }

    // Lazy secondary-index construction is not thread-safe; build every
    // index the shards will probe — the plan's exact probe list — before
    // forking.
    engine_->PrewarmPropagationIndexes(relation);

    std::vector<typename IvmEngine<Ring>::StagedDeltas> staged(shards);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      tasks.push_back([this, leaf, s, &shard_delta, &staged] {
        FIVM_FAIL_POINT("exec.task");
        // Scratch is per task: concurrent plan executions must not share
        // buffers.
        typename IvmEngine<Ring>::PropagationScratch scratch;
        engine_->PropagateDelta(leaf, std::move(shard_delta[s]), &staged[s],
                                &scratch);
      });
    }
    // Rethrows the first task exception only after every task finished its
    // round (ThreadPool barrier semantics), so no staged delta has touched
    // the shared stores when an exception escapes here.
    pool_->RunTasks(std::move(tasks));

    // Deterministic shard-ordered merge into the shared stores; each staged
    // delta is absorbed in arrival order (see AbsorbInto).
    const uint64_t merge_t0 = obs::TickClock::Now();
    for (size_t s = 0; s < shards; ++s) engine_->AbsorbStaged(staged[s]);
    obs_merge_ns_->RecordTicks(obs::TickClock::Now() - merge_t0);
    if (post_batch_) post_batch_();
  }

  /// Flushes `batcher` and applies every emitted batch in emission order.
  void Drain(DeltaBatcher<Ring>& batcher) {
    for (auto& b : batcher.Flush()) {
      ApplyBatch(b.relation, std::move(b.delta));
    }
  }

 private:
  IvmEngine<Ring>* engine_;
  const plan::PlanSet* plans_;  // the engine's compiled propagation plans
  ThreadPool* pool_;
  Options options_;
  std::function<void()> post_batch_;  // serving-layer publish hook
  /// Registry handles, resolved once at construction (process-wide exec.*
  /// series; recording is lock-free).
  obs::Counter* obs_parallel_ = nullptr;
  obs::Counter* obs_sequential_ = nullptr;
  obs::Histogram* obs_partition_ns_ = nullptr;
  obs::Histogram* obs_merge_ns_ = nullptr;
  obs::Histogram* obs_imbalance_ = nullptr;
};

/// True when the two engines (over the same view tree) hold content-equal
/// materialized stores — the invariant the parallel executor preserves
/// relative to sequential per-tuple application.
template <typename Ring>
bool StoresContentEqual(const IvmEngine<Ring>& a, const IvmEngine<Ring>& b) {
  const ViewTree& tree = a.tree();
  for (size_t i = 0; i < tree.nodes().size(); ++i) {
    int node = static_cast<int>(i);
    if (!tree.node(node).materialized) continue;
    if (!ContentEquals(a.store(node), b.store(node))) return false;
  }
  return true;
}

}  // namespace fivm::exec

#endif  // FIVM_EXEC_PARALLEL_EXECUTOR_H_
