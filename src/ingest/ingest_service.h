// Streaming ingest front-end: the long-running service loop that turns the
// library's batch machinery into a deployment-shaped system. Producers Offer()
// single-tuple updates into bounded per-relation admission queues; a service
// thread moves admitted updates into the DeltaBatcher and flushes on EITHER
// trigger — enough buffered updates (flush-by-size) or the oldest admitted
// update aging past the flush deadline (flush-by-time) — then drives
// ParallelExecutor propagation and SnapshotServer::Publish, so every flush
// becomes one atomically visible snapshot step.
//
//   sources → Offer() → admission queues → DeltaBatcher → ParallelExecutor
//                                              → engine stores → Publish()
//
// Robustness properties:
//  * Admission control: each relation's queue is bounded and governed by an
//    AdmissionPolicy — kBlock (backpressure the producer), kShedNewest
//    (reject the incoming update), kDropOldest (evict the queue head). Every
//    outcome is counted in IngestStats, which the registry exports as
//    ingest.* gauges.
//  * Graceful degradation: update visibility (steady-clock age of the oldest
//    update in a flushed window, recorded into the ingest.visibility_ns
//    histogram) is checked against ServiceOptions::visibility_slo; when more
//    than half the flushes in a window violate the SLO the service doubles
//    its effective batch window (size and deadline) — trading per-update
//    latency for throughput instead of falling over — and narrows it back
//    once a full window is clean.
//  * Fault supervision: the WAL seal, Flush, ApplyBatch and Publish run in
//    one retry-with-capped-backoff envelope (Supervise); each stage keeps
//    only its exhaustion policy — a seal sheds the window, flush and apply
//    rethrow, publish counts publish_failures and absorbs. The underlying
//    operations are all-or-nothing (batcher.flush / serve.publish
//    failpoints sit before any state change; every apply, parallel or
//    sequential, stages its store deltas and writes them through
//    IvmEngine::AbsorbStaged only after propagation succeeded), so a retry
//    can never double-apply. One exception: a fault in an indicator
//    propagation, which runs after the base delta and the indicator support
//    counts are in, is not rolled back, and a retry applies them again.
//    ApplyBatch consumes its delta, so every attempt but the last applies
//    a copy. An absorbed publish failure leaves the segments staged for
//    the next flush's publish — visibility delayed, never lost. Merges are
//    not retried: a failed merge (MergeSmall after each publish, MergeStep
//    after each flush) is counted in merge_failures and its segments wait
//    for the next merge.
//  * Clean shutdown: Stop() stops admission, drains every queued update
//    through flush→apply→publish, then joins the service thread. With
//    kBlock admission nothing offered before Stop() is lost.
//  * Durability (optional): AttachDurability() wires a write-ahead log and
//    checkpointer into the loop. Under DurabilityPolicy::kWindow every
//    update entering the batcher is also staged into the WAL, and the
//    window's frames are sealed + group-fsync'd BEFORE the flush touches
//    any store — a crash mid-apply replays the whole window from the log.
//    If the seal cannot complete (e.g. disk full, modeled by the
//    "wal.append" failpoint) the window is shed wholesale: WAL staging and
//    batcher accumulators are discarded together, counted in
//    wal_failed_windows — degraded ingest, never an unlogged apply.
//    Checkpoints run between flush windows every checkpoint_every_flushes
//    flushes, when sealed == applied holds.
//
// Threading: any number of producer threads may Offer() concurrently; the
// single service thread owns batcher/executor/server/WAL/checkpointer. The
// engine write path, every SnapshotServer writer-side call (Publish,
// MergeSmall, MergeStep) and every WAL append, seal and checkpoint are
// single-writer by contract, and all of them run on that thread, one after
// another. Tests can instead run the loop inline with PumpOnce()/DrainNow()
// — same code paths, no thread; the calling thread is then the writer.
#ifndef FIVM_INGEST_INGEST_SERVICE_H_
#define FIVM_INGEST_INGEST_SERVICE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/durability/checkpoint.h"
#include "src/durability/wal.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/parallel_executor.h"
#include "src/obs/metrics.h"
#include "src/serve/snapshot_server.h"
#include "src/util/fail_point.h"

namespace fivm::ingest {

/// What Offer() does when a relation's admission queue is full.
enum class AdmissionPolicy {
  kBlock,      // wait for the service to drain the queue (backpressure)
  kShedNewest, // reject the incoming update (Offer returns false)
  kDropOldest, // evict the oldest queued update, admit the incoming one
};

struct QueuePolicy {
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Maximum queued (admitted, not yet batched) updates for the relation.
  size_t capacity = 8192;
};

/// Whether updates reach the write-ahead log.
enum class DurabilityPolicy {
  kOff,     // no logging (AttachDurability not required)
  kWindow,  // log at batcher entry, seal + group-fsync before each apply
};

/// Flushes per SLO evaluation window: degrade when more than half the
/// window violated ServiceOptions::visibility_slo, recover when the whole
/// window was clean.
inline constexpr size_t kSloWindow = 32;
/// Ceiling on degradation: effective window = configured × 2^level.
inline constexpr size_t kMaxDegradeLevel = 3;

struct ServiceOptions {
  /// Flush-by-size: buffered updates (queue + batcher, pre-coalescing) that
  /// trigger a flush. Doubled per degradation level.
  size_t flush_updates = 512;
  /// Flush-by-time: a flush fires when the oldest admitted-but-unflushed
  /// update is older than this. Doubled per degradation level.
  std::chrono::microseconds flush_deadline{1000};
  /// Per-flush visibility SLO driving degradation; 0 disables degradation.
  std::chrono::microseconds visibility_slo{0};
  /// Supervision retry budget per operation (0 disables retry: a fault
  /// meets its stage's exhaustion policy at once).
  size_t max_retries = 16;
  /// First retry sleep; doubles per attempt up to retry_backoff_cap.
  std::chrono::microseconds retry_backoff{50};
  std::chrono::microseconds retry_backoff_cap{10000};
  /// Run SnapshotServer::MergeSmall after each published batch and one
  /// MergeStep after each flush (merge failures are counted and absorbed
  /// — the next merge retries).
  bool merge_each_flush = true;
  /// Admission policy applied to every relation's queue.
  QueuePolicy default_queue;
  /// Write-ahead logging mode; anything but kOff requires
  /// AttachDurability() before Start()/PumpOnce().
  DurabilityPolicy durability = DurabilityPolicy::kOff;
  /// Checkpoint after every N flush windows (0 disables automatic
  /// checkpoints). A failed checkpoint is counted and retried at the next
  /// flush boundary.
  size_t checkpoint_every_flushes = 0;
};

/// The service's counters, kept whether or not obs::Enabled() (tests and
/// benches read them with metrics switched off too). The registry exports
/// them as ingest.* gauges read from here — this struct is their only owner.
struct IngestStats {
  uint64_t admitted = 0;
  uint64_t shed = 0;          // kShedNewest rejections (+ offers after Stop)
  uint64_t dropped = 0;       // kDropOldest evictions
  uint64_t blocks = 0;        // kBlock wait episodes
  uint64_t flushes = 0;
  uint64_t size_flushes = 0;
  uint64_t deadline_flushes = 0;
  uint64_t drain_flushes = 0;
  uint64_t flush_retries = 0;
  uint64_t apply_retries = 0;
  uint64_t publish_retries = 0;
  uint64_t publish_failures = 0;  // retry budget exhausted (absorbed)
  uint64_t merge_failures = 0;    // absorbed; next merge retries
  /// Flush/apply retry budget exhausted on the service thread: the window's
  /// updates were abandoned (engine state stays consistent — the failed
  /// operation was all-or-nothing). Only non-zero under persistent faults.
  uint64_t failed_flushes = 0;
  uint64_t degrade_enters = 0;
  uint64_t degrade_exits = 0;
  uint64_t wal_appended = 0;       // updates staged into the WAL
  uint64_t wal_retries = 0;        // WAL seal retries
  /// Windows shed because the WAL could not seal them within the retry
  /// budget — degraded ingest, never an unlogged apply (disk-full behaves
  /// like sustained shedding, not corruption).
  uint64_t wal_failed_windows = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_failures = 0;  // absorbed; retried next boundary
};

template <typename Ring>
  requires RingPolicy<Ring>
class IngestService {
 public:
  using Element = typename Ring::Element;
  using Clock = std::chrono::steady_clock;

  /// All pointees must outlive the service; `server` must not be null. The
  /// service installs its own supervised publish as the executor's
  /// post-batch hook and owns that wiring until destruction.
  IngestService(IvmEngine<Ring>* engine, exec::ParallelExecutor<Ring>* executor,
                exec::DeltaBatcher<Ring>* batcher,
                serve::SnapshotServer<Ring>* server, ServiceOptions options = {})
      : engine_(engine),
        executor_(executor),
        batcher_(batcher),
        server_(server),
        opts_(options) {
    assert(server_ != nullptr && "ingest always serves");
    queues_.resize(engine_->tree().query().relation_count());
    // Publish runs inside ApplyBatch (after the batch merged into the
    // stores), so an escaping exception would make the apply supervisor
    // re-run an already applied batch; exhaustion is absorbed instead, as
    // is a failed small-differential fold (the next one retries).
    executor_->SetPostBatchHook([this] {
      Supervise(
          &IngestStats::publish_retries, [this](bool) { server_->Publish(); },
          [this] {
            std::lock_guard<std::mutex> lk(mu_);
            stats_.publish_failures += 1;
          });
      if (!opts_.merge_each_flush) return;
      try {
        server_->MergeSmall();
      } catch (const std::exception&) {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.merge_failures += 1;
      }
    });
    obs_visibility_ns_ =
        obs::MetricRegistry::Default().GetHistogram("ingest.visibility_ns");
    // IngestStats is the only owner of these numbers; the registry reads
    // them under mu_ at scrape time (a sum for the aggregate names).
    auto export_sum = [this](const char* name, auto... fields) {
      gauges_.Add(name, [this, fields...] {
        std::lock_guard<std::mutex> lk(mu_);
        return static_cast<int64_t>(((stats_.*fields) + ...));
      });
    };
    export_sum("ingest.admitted", &IngestStats::admitted);
    export_sum("ingest.shed", &IngestStats::shed);
    export_sum("ingest.dropped", &IngestStats::dropped);
    export_sum("ingest.blocks", &IngestStats::blocks);
    export_sum("ingest.flushes", &IngestStats::flushes);
    export_sum("ingest.retries", &IngestStats::flush_retries,
               &IngestStats::apply_retries, &IngestStats::publish_retries,
               &IngestStats::wal_retries);
    export_sum("ingest.degrade_transitions", &IngestStats::degrade_enters,
               &IngestStats::degrade_exits);
    export_sum("ingest.wal_appended", &IngestStats::wal_appended);
    export_sum("ingest.wal_failed_windows", &IngestStats::wal_failed_windows);
    export_sum("ingest.checkpoints", &IngestStats::checkpoints);
    gauges_.Add("ingest.queue_depth",
                [this] { return static_cast<int64_t>(queue_depth()); });
    gauges_.Add("ingest.degrade_level",
                [this] { return static_cast<int64_t>(degrade_level()); });
  }

  ~IngestService() {
    if (service_.joinable()) Stop();
    executor_->SetPostBatchHook(nullptr);
  }

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Wires the durability layer in; call before Start()/PumpOnce() and keep
  /// both pointees alive for the service's lifetime. `ckpt` may be null
  /// (WAL-only durability: recovery replays the whole log). Both are
  /// driven from the service thread only.
  void AttachDurability(durability::WalWriter* wal,
                        durability::Checkpointer<Ring>* ckpt) {
    wal_ = wal;
    ckpt_ = ckpt;
  }

  /// Admits one update (any thread). Returns false when the update was shed:
  /// queue full under kShedNewest, or the service is stopping. Under kBlock
  /// a full queue blocks until the service drains it (or Stop() begins).
  bool Offer(int relation, const Tuple& key, Element payload) {
    const uint64_t now = NowNs();
    std::unique_lock<std::mutex> lk(mu_);
    RelQueue& rq = queues_[static_cast<size_t>(relation)];
    const QueuePolicy& policy = opts_.default_queue;
    if (!accepting_) {
      Shed(1);
      return false;
    }
    while (rq.q.size() >= policy.capacity) {
      switch (policy.admission) {
        case AdmissionPolicy::kShedNewest:
          Shed(1);
          return false;
        case AdmissionPolicy::kDropOldest:
          if (rq.q.empty()) {  // capacity 0: nothing to evict, shed instead
            Shed(1);
            return false;
          }
          rq.q.pop_front();
          --queued_total_;
          stats_.dropped += 1;
          continue;
        case AdmissionPolicy::kBlock:
          stats_.blocks += 1;
          space_cv_.wait(lk, [&] {
            return !accepting_ || rq.q.size() < policy.capacity;
          });
          if (!accepting_) {
            Shed(1);
            return false;
          }
          continue;
      }
    }
    rq.q.push_back(Pending{key, std::move(payload), now});
    ++queued_total_;
    queued_depth_.store(queued_total_, std::memory_order_relaxed);
    stats_.admitted += 1;
    lk.unlock();
    ingest_cv_.notify_one();
    return true;
  }

  /// Starts the service thread. Pair with Stop(); do not mix with
  /// PumpOnce()/DrainNow().
  void Start() {
    assert(!service_.joinable());
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = false;
      accepting_ = true;
    }
    service_ = std::thread([this] { ServiceLoop(); });
  }

  /// Stops admission, drains everything already admitted (flush → apply →
  /// publish), and joins the service thread.
  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      accepting_ = false;
      stop_ = true;
    }
    ingest_cv_.notify_all();
    space_cv_.notify_all();
    if (service_.joinable()) service_.join();
  }

  /// Synchronous single step for tests and benches (no service thread):
  /// admits queued updates into the batcher and flushes when a trigger
  /// holds (or unconditionally with force_flush). Returns true when a
  /// flush ran. Producers on other threads may Offer() concurrently, but
  /// beware kBlock with a single thread: an Offer that blocks with nobody
  /// pumping deadlocks — use a capacity ≥ the offered burst.
  bool PumpOnce(bool force_flush = false) {
    MoveQueuedToBatcher();
    FlushTrigger trigger;
    if (force_flush) {
      trigger = FlushTrigger::kDrain;
    } else if (batcher_->pending_updates() >= EffectiveFlushUpdates()) {
      trigger = FlushTrigger::kSize;
    } else if (batcher_->pending_updates() > 0 &&
               NowNs() >= window_oldest_ns_ + EffectiveDeadlineNs()) {
      trigger = FlushTrigger::kDeadline;
    } else {
      return false;
    }
    if (batcher_->pending_updates() == 0) return false;
    FlushWindow(trigger);
    return true;
  }

  /// Drains every queued update through flush/apply/publish, inline.
  void DrainNow() {
    bool more = true;
    while (more) {
      PumpOnce(/*force_flush=*/true);
      std::lock_guard<std::mutex> lk(mu_);
      more = queued_total_ > 0;
    }
  }

  IngestStats GetStats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }
  size_t degrade_level() const {
    return degrade_level_.load(std::memory_order_relaxed);
  }
  size_t queue_depth() const {
    return queued_depth_.load(std::memory_order_relaxed);
  }
  size_t EffectiveFlushUpdates() const {
    return opts_.flush_updates
           << degrade_level_.load(std::memory_order_relaxed);
  }
  uint64_t EffectiveDeadlineNs() const {
    return static_cast<uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   opts_.flush_deadline)
                   .count())
           << degrade_level_.load(std::memory_order_relaxed);
  }

  /// Per-flush visibility callback (latency in ns), invoked on the service
  /// thread after each flush; benches use this for per-arm histograms.
  void SetVisibilityProbe(std::function<void(uint64_t)> probe) {
    visibility_probe_ = std::move(probe);
  }

 private:
  struct Pending {
    Tuple key;
    Element payload;
    uint64_t arrival_ns;
  };
  struct RelQueue {
    std::deque<Pending> q;
  };
  enum class FlushTrigger { kSize, kDeadline, kDrain };

  static uint64_t NowNs() {
    // steady_clock, not obs::TickClock: flush deadlines are waited on with
    // Clock::time_point, so they must be stamped in the same clock's units.
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  void Shed(uint64_t n) {  // caller holds mu_
    stats_.shed += n;
  }

  /// The service thread: wait for work, admit, flush on whichever trigger
  /// fires first, drain on stop.
  void ServiceLoop() {
    for (;;) {
      FlushTrigger trigger = FlushTrigger::kSize;
      {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
          if (stop_) break;
          const size_t window = batcher_->pending_updates();
          if (queued_total_ == 0 && window == 0) {
            ingest_cv_.wait(lk, [&] { return stop_ || queued_total_ > 0; });
            continue;
          }
          if (queued_total_ + window >= EffectiveFlushUpdates()) {
            trigger = FlushTrigger::kSize;
            break;
          }
          const uint64_t oldest =
              std::min(window > 0 ? window_oldest_ns_ : kNoDeadline,
                       OldestQueuedLocked());
          const uint64_t due_ns = oldest + EffectiveDeadlineNs();
          if (NowNs() >= due_ns) {
            trigger = FlushTrigger::kDeadline;
            break;
          }
          ingest_cv_.wait_until(
              lk, Clock::time_point(std::chrono::nanoseconds(due_ns)));
        }
        if (stop_) break;
      }
      MoveQueuedToBatcher();
      if (batcher_->pending_updates() > 0) {
        // An exception here means a retry budget was exhausted under a
        // persistent fault. Letting it escape the service thread would
        // std::terminate; engine/serving state is still consistent
        // (failed operations are all-or-nothing), so count the lost
        // window and keep serving.
        try {
          FlushWindow(trigger);
        } catch (const std::exception&) {
          std::lock_guard<std::mutex> lk(mu_);
          stats_.failed_flushes += 1;
        }
      }
    }
    // Shutdown drain: admission is closed (Stop set accepting_ = false), so
    // this terminates; everything admitted becomes visible before join.
    try {
      DrainNow();
    } catch (const std::exception&) {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.failed_flushes += 1;
    }
  }

  uint64_t OldestQueuedLocked() const {
    uint64_t oldest = kNoDeadline;
    for (const RelQueue& rq : queues_) {
      if (!rq.q.empty()) oldest = std::min(oldest, rq.q.front().arrival_ns);
    }
    return oldest;
  }

  /// Moves queued updates into the batcher, up to one effective window's
  /// worth, oldest-first across relations; wakes blocked producers.
  void MoveQueuedToBatcher() {
    moved_.clear();
    {
      std::lock_guard<std::mutex> lk(mu_);
      size_t budget = EffectiveFlushUpdates();
      const size_t pending = batcher_->pending_updates();
      budget = budget > pending ? budget - pending : 0;
      for (size_t r = 0; r < queues_.size() && budget > 0; ++r) {
        auto& q = queues_[r].q;
        while (!q.empty() && budget > 0) {
          moved_.emplace_back(static_cast<int>(r), std::move(q.front()));
          q.pop_front();
          --queued_total_;
          --budget;
        }
      }
      queued_depth_.store(queued_total_, std::memory_order_relaxed);
    }
    if (!moved_.empty()) space_cv_.notify_all();
    const bool log_window = opts_.durability == DurabilityPolicy::kWindow &&
                            wal_ != nullptr;
    for (auto& [rel, p] : moved_) {
      window_oldest_ns_ = std::min(window_oldest_ns_, p.arrival_ns);
      // Window-mode logging happens here — at batcher entry — so the WAL's
      // staged frames cover exactly the updates the next seal/flush pair
      // makes durable and applied.
      if (log_window) wal_->template Append<Ring>(rel, p.key, p.payload);
      batcher_->Push(rel, std::move(p.key), std::move(p.payload));
    }
    if (log_window && !moved_.empty()) {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.wal_appended += moved_.size();
    }
    moved_.clear();
  }

  /// One supervised flush→apply[→merge] pass over the current window.
  /// (Publish runs inside ApplyBatch via the post-batch hook.)
  void FlushWindow(FlushTrigger trigger) {
    const uint64_t window_oldest = window_oldest_ns_;
    window_oldest_ns_ = kNoDeadline;
    bool sealed = false;
    if (opts_.durability == DurabilityPolicy::kWindow && wal_ != nullptr &&
        wal_->HasPending()) {
      // Write-ahead: the window's frames hit the disk (one group fsync)
      // before any delta touches a store. A seal that cannot complete sheds
      // the whole window — WAL staging and batcher accumulators dropped
      // together, so nothing is ever applied unlogged. (If the failure
      // struck after some frames were written, recovery may replay a
      // superset of what the live engine applied — over-delivery, never a
      // logged-but-lost update.) Seal() re-writes only the still-unwritten
      // pending frames on retry and re-arms the group fsync, so a mid-seal
      // fault never duplicates a frame.
      sealed = Supervise(
          &IngestStats::wal_retries,
          [this](bool) {
            wal_->Seal(/*sync=*/true);
            return true;
          },
          [] { return false; });
      if (!sealed) {
        wal_->DropPending();
        batcher_->Flush();  // discard the undurable window
        std::lock_guard<std::mutex> lk(mu_);
        stats_.wal_failed_windows += 1;
        return;
      }
    }
    using Batches = std::vector<typename exec::DeltaBatcher<Ring>::Batch>;
    try {
      // Flush throws only before surrendering any accumulator (its
      // failpoint sits at entry), so a failed flush is retried verbatim.
      Batches batches = Supervise(
          &IngestStats::flush_retries,
          [this](bool) { return batcher_->Flush(); },
          []() -> Batches { throw; });
      for (auto& b : batches) {
        // ApplyBatch consumes its delta but is all-or-nothing with respect
        // to engine state (and the publish hook never throws), so retrying
        // from the retained original cannot double-apply (a fault in an
        // indicator propagation aside; see the header comment).
        Supervise(
            &IngestStats::apply_retries,
            [&](bool last) {
              executor_->ApplyBatch(b.relation,
                                    last ? std::move(b.delta)
                                         : Relation<Ring>(b.delta));
            },
            [] { throw; });
      }
    } catch (...) {
      // Retry budget exhausted after a successful seal: the WAL is now
      // ahead of the engine, so a checkpoint stamped at the sealed LSN
      // would misrepresent the stores. Recovery-by-replay stays correct
      // (and even restores this lost window); just stop checkpointing.
      if (sealed) wal_ahead_of_engine_ = true;
      throw;
    }
    // Visibility is stamped here: every update in the window is applied and
    // published (readers see it). The merge below is compaction, not
    // visibility.
    const uint64_t vis_ns = NowNs() - window_oldest;
    obs_visibility_ns_->Record(vis_ns);
    if (visibility_probe_) visibility_probe_(vis_ns);
    if (opts_.merge_each_flush) {
      try {
        server_->MergeStep();
      } catch (const std::exception&) {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.merge_failures += 1;  // segments wait for the next flush
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.flushes += 1;
      switch (trigger) {
        case FlushTrigger::kSize: stats_.size_flushes += 1; break;
        case FlushTrigger::kDeadline: stats_.deadline_flushes += 1; break;
        case FlushTrigger::kDrain: stats_.drain_flushes += 1; break;
      }
    }
    UpdateDegradation(vis_ns);
    MaybeCheckpoint();
  }

  /// Checkpoint between flush windows, every checkpoint_every_flushes
  /// flushes. sealed == applied holds right here (the window just sealed
  /// was just applied), no locking needed beyond service-thread ownership.
  /// Failures are counted and the saturated flush counter retries at the
  /// next boundary.
  void MaybeCheckpoint() {
    if (ckpt_ == nullptr || wal_ == nullptr ||
        opts_.checkpoint_every_flushes == 0 ||
        opts_.durability == DurabilityPolicy::kOff || wal_ahead_of_engine_) {
      return;
    }
    if (++flushes_since_ckpt_ < opts_.checkpoint_every_flushes) return;
    try {
      ckpt_->WriteCheckpoint();
      flushes_since_ckpt_ = 0;
      std::lock_guard<std::mutex> lk(mu_);
      stats_.checkpoints += 1;
    } catch (const std::exception&) {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.checkpoint_failures += 1;
    }
  }

  /// Widens the batch window ×2 per level under sustained SLO violation,
  /// narrows it back after a clean window.
  void UpdateDegradation(uint64_t vis_ns) {
    if (opts_.visibility_slo.count() <= 0) return;
    const uint64_t slo_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            opts_.visibility_slo)
            .count());
    slo_flushes_ += 1;
    if (vis_ns > slo_ns) slo_violations_ += 1;
    if (slo_flushes_ < kSloWindow) return;
    const size_t level = degrade_level_.load(std::memory_order_relaxed);
    if (slo_violations_ * 2 > slo_flushes_ && level < kMaxDegradeLevel) {
      degrade_level_.store(level + 1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu_);
      stats_.degrade_enters += 1;
    } else if (slo_violations_ == 0 && level > 0) {
      degrade_level_.store(level - 1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu_);
      stats_.degrade_exits += 1;
    }
    slo_flushes_ = 0;
    slo_violations_ = 0;
  }

  /// The retry envelope of every supervised stage: runs
  /// `attempt(last_attempt)` until it returns, counting each retry into
  /// `retry_field` and sleeping with capped exponential backoff between
  /// attempts. When the attempt after max_retries retries fails too,
  /// `on_exhausted` runs inside its handler: it returns the stage's result
  /// or rethrows with `throw;`.
  template <typename Attempt, typename OnExhausted>
  auto Supervise(uint64_t IngestStats::* retry_field, Attempt&& attempt,
                 OnExhausted&& on_exhausted) {
    auto backoff = opts_.retry_backoff;
    for (size_t retries = 0;; ++retries) {
      try {
        return attempt(retries == opts_.max_retries);
      } catch (const std::exception&) {
        if (retries == opts_.max_retries) return on_exhausted();
        {
          std::lock_guard<std::mutex> lk(mu_);
          stats_.*retry_field += 1;
        }
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, opts_.retry_backoff_cap);
      }
    }
  }

  static constexpr uint64_t kNoDeadline =
      std::numeric_limits<uint64_t>::max();

  IvmEngine<Ring>* engine_;
  exec::ParallelExecutor<Ring>* executor_;
  exec::DeltaBatcher<Ring>* batcher_;
  serve::SnapshotServer<Ring>* server_;
  ServiceOptions opts_;

  /// Durability layer (AttachDurability); both may be null under kOff.
  durability::WalWriter* wal_ = nullptr;
  durability::Checkpointer<Ring>* ckpt_ = nullptr;

  /// Admission state (mu_). queued_total_ mirrors into queued_depth_ for
  /// lock-free gauge reads.
  mutable std::mutex mu_;
  std::condition_variable ingest_cv_;  // service waits for work
  std::condition_variable space_cv_;   // kBlock producers wait for space
  std::vector<RelQueue> queues_;
  size_t queued_total_ = 0;
  bool accepting_ = true;
  bool stop_ = false;
  IngestStats stats_;  // guarded by mu_

  /// Service-thread-only state.
  std::thread service_;
  std::vector<std::pair<int, Pending>> moved_;  // MoveQueuedToBatcher scratch
  uint64_t window_oldest_ns_ = kNoDeadline;  // oldest unflushed arrival
  size_t slo_flushes_ = 0;
  size_t slo_violations_ = 0;
  size_t flushes_since_ckpt_ = 0;
  /// A window sealed into the WAL but abandoned mid-apply (retry budget
  /// exhausted): checkpoints are disabled from here on — see FlushWindow.
  bool wal_ahead_of_engine_ = false;
  std::function<void(uint64_t)> visibility_probe_;

  std::atomic<size_t> degrade_level_{0};
  std::atomic<size_t> queued_depth_{0};

  obs::Histogram* obs_visibility_ns_ = nullptr;
  obs::GaugeSet gauges_;  // last: unregisters before the state it reads
};

}  // namespace fivm::ingest

#endif  // FIVM_INGEST_INGEST_SERVICE_H_
