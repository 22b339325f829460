#ifndef FIVM_EXEC_DELTA_BATCHER_H_
#define FIVM_EXEC_DELTA_BATCHER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/core/view_tree.h"
#include "src/data/relation.h"
#include "src/data/tuple.h"
#include "src/obs/metrics.h"
#include "src/plan/propagation_plan.h"
#include "src/rings/ring.h"
#include "src/util/fail_point.h"

namespace fivm::exec {

/// Ingestion buffer in front of the IVM engine: accumulates single-tuple
/// updates per relation, coalescing identical keys by ring addition as they
/// arrive (an insert/delete pair of the same key cancels before the engine
/// ever sees it), and emits one delta relation per touched relation, keyed
/// in the query relation's schema — the out-schema of its view-tree leaf,
/// so the engine applies it without a reorder. One coalesced leaf-to-root
/// propagation then amortizes the join/marginalize work the per-tuple path
/// repeats per update.
///
/// Cross-relation ordering inside one batch window collapses to first-touch
/// order: Flush() emits relations in the order they first received an
/// update since the previous flush. Per-relation, coalescing makes the
/// emitted delta independent of arrival order (ring addition commutes).
template <typename Ring>
  requires RingPolicy<Ring>
class DeltaBatcher {
 public:
  using Element = typename Ring::Element;

  struct Batch {
    int relation;
    Relation<Ring> delta;  // keyed in the leaf's out-schema layout
  };

  /// `plans` (a compiled plan set, e.g. IvmEngine::plans()) must outlive
  /// the batcher, which reads the query relations off its view tree.
  /// `capacity` is the number of buffered updates (counted pre-coalescing)
  /// after which Full() turns true and the caller should Flush(); 0 means
  /// "never full" (manual flushing only).
  DeltaBatcher(const plan::PlanSet* plans, size_t capacity)
      : tree_(&plans->tree()),
        capacity_(capacity),
        accums_(tree_->query().relation_count()),
        in_batch_(tree_->query().relation_count(), 0) {
    auto& reg = obs::MetricRegistry::Default();
    obs_flushes_ = reg.GetCounter("batcher.flushes");
    obs_pushed_ = reg.GetCounter("batcher.pushed_updates");
    obs_emitted_ = reg.GetCounter("batcher.emitted_keys");
    obs_cancelled_ = reg.GetCounter("batcher.cancelled_keys");
  }

  size_t capacity() const { return capacity_; }

  /// Updates buffered since the last flush, before coalescing.
  size_t pending_updates() const { return pending_updates_; }

  bool Full() const { return capacity_ > 0 && pending_updates_ >= capacity_; }

  /// Buffers key → payload into `relation`'s accumulator. The key uses the
  /// query relation's schema layout.
  void Push(int relation, const Tuple& key, Element payload) {
    if (pending_updates_ == 0) first_push_ticks_ = obs::TickClock::Now();
    Accumulator(relation).Add(key, std::move(payload));
    ++pending_updates_;
  }

  void PushInsert(int relation, const Tuple& key) {
    Push(relation, key, Ring::One());
  }

  void PushDelete(int relation, const Tuple& key) {
    Push(relation, key, Ring::Neg(Ring::One()));
  }

  void PushInserts(int relation, const std::vector<Tuple>& keys) {
    if (pending_updates_ == 0 && !keys.empty()) {
      first_push_ticks_ = obs::TickClock::Now();
    }
    Relation<Ring>& acc = Accumulator(relation);
    for (const Tuple& k : keys) acc.Add(k, Ring::One());
    pending_updates_ += keys.size();
  }

  /// TickClock timestamp of the first update buffered since the last
  /// Flush (0 when the window is empty). The serving bench derives
  /// update-visibility latency from it: publish time minus this stamp is
  /// how long the window's oldest update waited to become readable.
  uint64_t first_push_ticks() const { return first_push_ticks_; }

  /// Emits the coalesced per-relation deltas (first-touch order), dropping
  /// keys whose payloads cancelled to zero. Resets the batcher.
  std::vector<Batch> Flush() {
    // Failpoint before any accumulator is surrendered: a flush that throws
    // here leaves every buffered update in place, so the caller can simply
    // retry Flush() (see ingest::IngestService supervision).
    FIVM_FAIL_POINT("batcher.flush");
    std::vector<Batch> out;
    out.reserve(touched_.size());
    // Coalescing accounting, read off the accumulators before they are
    // surrendered: emitted = live keys, cancelled = keys whose payloads
    // summed to the ring zero, coalesced = updates folded into an existing
    // key. pushed/emitted gives the batch's coalesce ratio.
    size_t emitted = 0;
    size_t cancelled = 0;
    for (int r : touched_) {
      Relation<Ring>& acc = accums_[r];
      emitted += acc.size();
      cancelled += acc.KeyPoolSize() - acc.size();
      if (!acc.empty()) out.push_back(Batch{r, std::move(acc)});
      accums_[r] = Relation<Ring>();
      in_batch_[r] = 0;
    }
    if (obs_flushes_ != nullptr && !touched_.empty()) {
      obs_flushes_->Inc();
      obs_pushed_->Add(pending_updates_);
      obs_emitted_->Add(emitted);
      obs_cancelled_->Add(cancelled);
    }
    touched_.clear();
    pending_updates_ = 0;
    first_push_ticks_ = 0;
    return out;
  }

 private:
  Relation<Ring>& Accumulator(int relation) {
    if (!in_batch_[relation]) {
      accums_[relation] =
          Relation<Ring>(tree_->query().relation(relation).schema);
      in_batch_[relation] = 1;
      touched_.push_back(relation);
    }
    return accums_[relation];
  }

  const ViewTree* tree_;
  size_t capacity_;
  std::vector<Relation<Ring>> accums_;
  std::vector<char> in_batch_;
  std::vector<int> touched_;  // first-touch emission order
  size_t pending_updates_ = 0;
  uint64_t first_push_ticks_ = 0;  // visibility-latency stamp
  /// Registry counters, resolved once at construction (lookups are
  /// mutexed; recording is lock-free). Process-wide: every batcher feeds
  /// the same batcher.* series.
  obs::Counter* obs_flushes_ = nullptr;
  obs::Counter* obs_pushed_ = nullptr;
  obs::Counter* obs_emitted_ = nullptr;
  obs::Counter* obs_cancelled_ = nullptr;
};

}  // namespace fivm::exec

#endif  // FIVM_EXEC_DELTA_BATCHER_H_
