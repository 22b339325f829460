#ifndef FIVM_SERVE_SNAPSHOT_SERVER_H_
#define FIVM_SERVE_SNAPSHOT_SERVER_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/data/relation.h"
#include "src/data/relation_ops.h"
#include "src/obs/metrics.h"
#include "src/serve/epoch.h"
#include "src/util/fail_point.h"

namespace fivm::serve {

/// When a store's differential is folded into its next base generation.
/// A merge fires when EITHER bound is hit; MergeNow() ignores both.
struct MergePolicy {
  /// Frozen segments a store accumulates before a merge folds them.
  size_t max_segments = 8;
  /// Total differential keys (summed over segments) that trigger a merge.
  size_t max_diff_keys = 4096;
};

/// The concurrent read path over an IvmEngine's root store (the serving
/// half of F-IVM's promise: views are maintained *to be queried*).
///
/// Design: the root store is published as an immutable *generation* (a
/// frozen Relation behind shared_ptr<const>) plus an ordered list of frozen
/// *differential segments* — one per publish that touched the root. One
/// VersionSet holds that version at a publish sequence number, and a single
/// atomic pointer swap per publish installs it. The writer-side flow:
///
///  - the engine's root-delta observer tees every absorbed root delta into
///    a small mutable staging relation (the only mutable differential
///    state, touched exclusively by the writer);
///  - Publish() — wired per batch via ParallelExecutor::SetPostBatchHook —
///    freezes the staging relation into a segment by move, swaps in a new
///    VersionSet, retires the old one, and advances the reclamation epoch;
///  - MergeStep()/MergeNow()/MergeSmall() (IngestService calls MergeSmall
///    after each publish and MergeStep after each flush) fold base ⊎
///    segments into the next generation: the segments coalesce into one
///    differential, which is absorbed into the *spare* — the base
///    generation the previous merge displaced, double-buffered against the
///    installed one. The spare is generation g-1; absorbing the previous
///    merge's differential (`last_fold`, which made g) and then this one
///    makes it g+1, so a merge costs O(|differential|), not
///    O(|base|). The spare is mutated only once no reader can reach it:
///    the epoch rule that frees VersionSets (every set referencing it
///    retired before MinPinned()) marks it drained. A merge clones the
///    installed base instead — with a small fixed pool headroom — for one
///    of three causes: there is no spare (the first merge, or the one after
///    an aborted install), the spare is still pinned by a long-lived
///    snapshot or checkpoint, or the fold could overflow the spare's pool
///    capacity.
///    Memory therefore holds two base generations in steady state;
///    ClonedGenerations() counts the clone path.
///
/// Readers call Acquire() for an RAII Snapshot: pin an epoch slot
/// (lock-free), load the current VersionSet, and read. Point lookups and
/// scans see (base ⊎ segments) — a ring-sum over at most 1 + segment-count
/// immutable probes — and are wait-free: no lock, no refcount, no
/// allocation on the lookup path (tests/zero_alloc_probe_test.cc proves
/// the scalar-ring case). Retired VersionSets are freed only after every
/// snapshot pinned at or before their retire epoch drains (serve/epoch.h
/// has the full memory-order argument).
///
/// Threading contract: single writer. Deltas, Publish(), the merges,
/// Reclaim() and RetiredCount() are writer-side calls, and the
/// caller must never run two of them at the same time — the writer owns
/// every mutable field, so the server takes no lock. A merge never waits
/// for a reader: it reads the current set directly, which only the writer
/// can retire. Acquire()/TryAcquire(), every Snapshot method and the
/// atomic-backed stat getters are safe from any thread, for any number of
/// readers up to EpochRegistry::kMaxReaders live snapshots. The server
/// registers itself as the engine's root-delta observer for its lifetime
/// and must outlive every Snapshot it hands out. Engine::Initialize
/// bypasses the observer — construct the server afterwards.
template <typename Ring>
class SnapshotServer {
 public:
  using Element = typename Ring::Element;
  using Rel = Relation<Ring>;
  using RelPtr = std::shared_ptr<const Rel>;

  /// The root store at one publish: an immutable base generation plus the
  /// frozen differential segments published after it (oldest first).
  /// Segments hold ring *deltas*: a reader's value for a key is the ring
  /// sum of the base hit and every segment hit.
  struct StoreVersion {
    RelPtr base;
    std::vector<RelPtr> segments;
    uint64_t base_gen = 0;
  };

  /// The root store at one publish sequence. Immutable once installed; the
  /// atomic current-set pointer is the only mutable cell readers touch.
  struct VersionSet {
    uint64_t seq = 0;
    StoreVersion store;
  };

  /// `engine` must outlive the server, and its root must be materialized.
  /// The served contents are frozen from the engine's root store at
  /// construction.
  SnapshotServer(IvmEngine<Ring>* engine, MergePolicy policy = {})
      : engine_(engine),
        policy_(policy),
        staging_(engine_->result().schema()) {
    assert(engine_->tree().node(engine_->tree().root()).materialized &&
           "can only serve a materialized root");
    auto& reg = obs::MetricRegistry::Default();
    obs_reads_ = reg.GetCounter("serve.reads");
    obs_base_hits_ = reg.GetCounter("serve.base_hits");
    obs_diff_hits_ = reg.GetCounter("serve.diff_hits");
    obs_merge_ns_ = reg.GetHistogram("serve.merge_ns");
    // Owned here (stats_* atomics, epochs_); the registry reads at scrape.
    gauges_.Add("serve.pinned_epochs", [this] { return PinnedCount(); });
    gauges_.Add("serve.segments",
                [this] { return static_cast<int64_t>(SegmentCount()); });
    gauges_.Add("serve.publishes",
                [this] { return static_cast<int64_t>(PublishCount()); });
    gauges_.Add("serve.merges",
                [this] { return static_cast<int64_t>(MergeCount()); });
    gauges_.Add("serve.reclaimed_generations", [this] {
      return static_cast<int64_t>(ReclaimedGenerations());
    });
    gauges_.Add("serve.cloned_generations",
                [this] { return static_cast<int64_t>(ClonedGenerations()); });

    fold_.live = std::make_shared<Rel>(engine_->result());
    auto* init = new VersionSet();
    init->store.base = fold_.live;
    current_.store(init, std::memory_order_seq_cst);
    // Writer thread: staging absorbs by ring addition, so several root
    // deltas within a batch coalesce before freezing.
    engine_->SetRootDeltaObserver([this](const Rel& delta) {
      AbsorbInto(staging_, delta);
      dirty_ = true;
    });
  }

  /// Differentials of at most this many keys (summed over segments) are
  /// what MergeSmall() folds.
  static constexpr size_t kSmallFoldKeys = 32;

  ~SnapshotServer() {
    engine_->SetRootDeltaObserver(nullptr);
    assert(epochs_.PinnedCount() == 0 &&
           "snapshots must not outlive their server");
    for (auto& [epoch, set] : retired_) delete set;
    delete current_.load(std::memory_order_relaxed);
  }

  SnapshotServer(const SnapshotServer&) = delete;
  SnapshotServer& operator=(const SnapshotServer&) = delete;

  /// RAII read handle: pins an epoch at construction, releases it at
  /// destruction. All reads dereference the immutable VersionSet captured
  /// at acquisition — nothing a concurrent writer publishes changes what
  /// this snapshot sees. Move-only; must not outlive the server.
  class Snapshot {
   public:
    Snapshot(Snapshot&& o) noexcept
        : server_(o.server_), set_(o.set_), slot_(o.slot_) {
      o.server_ = nullptr;
    }
    Snapshot& operator=(Snapshot&& o) noexcept {
      if (this != &o) {
        Release();
        server_ = o.server_;
        set_ = o.set_;
        slot_ = o.slot_;
        o.server_ = nullptr;
      }
      return *this;
    }
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    ~Snapshot() { Release(); }

    /// Publish sequence this snapshot observes: the store state after
    /// exactly the first seq() published batches.
    uint64_t seq() const { return set_->seq; }

    uint64_t base_gen() const { return set_->store.base_gen; }
    size_t segment_count() const { return set_->store.segments.size(); }
    const Schema& schema() const { return set_->store.base->schema(); }

    /// Wait-free point lookup against (base ⊎ differential): writes the
    /// ring sum of the base hit and every segment hit into `*out` and
    /// returns true iff the key is live (non-zero sum). `key` may be a
    /// Tuple or TupleView. No lock, no refcount, no allocation for
    /// scalar-payload rings (heavier rings may grow `*out` once; reuse it
    /// across calls for an allocation-free steady state).
    template <typename K>
    bool Lookup(const K& key, Element* out) const {
      const StoreVersion& sv = set_->store;
      bool have = false;
      bool diff_hit = false;
      if (const Element* b = sv.base->Find(key)) {
        *out = *b;
        have = true;
      }
      for (const RelPtr& seg : sv.segments) {
        const Element* d = seg->Find(key);
        if (d == nullptr) continue;
        diff_hit = true;
        if (have) {
          Ring::AddInPlace(*out, *d);
        } else {
          *out = *d;
          have = true;
        }
      }
      server_->obs_reads_->Inc();
      if (diff_hit) {
        server_->obs_diff_hits_->Inc();
      } else if (have) {
        server_->obs_base_hits_->Inc();
      }
      return have && !Ring::IsZero(*out);
    }

    /// Full scan of (base ⊎ differential): `fn(const Tuple&, const
    /// Element&)` once per live key with its summed payload. Keys claimed
    /// by any segment are emitted in the segment pass (combined across
    /// segments and base); untouched base keys pass through by reference.
    /// Cost: one probe into each other layer per differential-touched key.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      const StoreVersion& sv = set_->store;
      const auto& segs = sv.segments;
      if (segs.empty()) {
        sv.base->ForEach(fn);
        return;
      }
      sv.base->ForEach([&](const Tuple& k, const Element& p) {
        for (const RelPtr& s : segs) {
          if (s->Contains(k)) return;
        }
        fn(k, p);
      });
      Element acc;
      for (size_t si = 0; si < segs.size(); ++si) {
        segs[si]->ForEach([&](const Tuple& k, const Element& p) {
          // A key is emitted at its first (oldest) live segment occurrence.
          for (size_t sj = 0; sj < si; ++sj) {
            if (segs[sj]->Contains(k)) return;
          }
          acc = p;
          for (size_t sj = si + 1; sj < segs.size(); ++sj) {
            if (const Element* d = segs[sj]->Find(k)) {
              Ring::AddInPlace(acc, *d);
            }
          }
          if (const Element* b = sv.base->Find(k)) {
            Ring::AddInPlace(acc, *b);
          }
          if (!Ring::IsZero(acc)) fn(k, acc);
        });
      }
    }

    /// Live keys in the snapshot (scan-priced when segments are present).
    size_t Size() const {
      const StoreVersion& sv = set_->store;
      if (sv.segments.empty()) return sv.base->size();
      size_t n = 0;
      ForEach([&n](const Tuple&, const Element&) { ++n; });
      return n;
    }

    /// Materializes the snapshot as a plain Relation (test/verification
    /// helper; not a read-path operation).
    Rel Materialize() const {
      Rel out(schema());
      ForEach([&out](const Tuple& k, const Element& p) { out.Add(k, p); });
      return out;
    }

   private:
    friend class SnapshotServer;
    explicit Snapshot(const SnapshotServer* server)
        : Snapshot(server, server->epochs_.AcquireSlot()) {}
    /// Adopts a pre-claimed epoch slot (TryAcquire path).
    Snapshot(const SnapshotServer* server, uint32_t slot)
        : server_(server), slot_(slot) {
      server_->epochs_.Pin(slot_);
      set_ = server_->current_.load(std::memory_order_seq_cst);
    }
    void Release() {
      if (server_ == nullptr) return;
      server_->epochs_.Unpin(slot_);
      server_->epochs_.ReleaseSlot(slot_);
      server_ = nullptr;
    }

    const SnapshotServer* server_;
    const VersionSet* set_;
    uint32_t slot_;
  };

  /// Pins the current version for reading. Lock-free (one slot CAS + the
  /// pin/validate loop); safe from any thread, concurrent with the writer.
  /// Spins while all EpochRegistry::kMaxReaders reader slots hold
  /// live snapshots — callers that may saturate the registry (or cannot
  /// block) use TryAcquire instead.
  Snapshot Acquire() const { return Snapshot(this); }

  /// Non-blocking Acquire: returns std::nullopt when every reader slot
  /// holds a live snapshot (the registry is saturated). The caller decides
  /// the retry policy — back off and retry, shed the read, or release one
  /// of its own snapshots (acquiring again after a release always succeeds
  /// eventually, since only live Snapshots hold slots).
  std::optional<Snapshot> TryAcquire() const {
    uint32_t slot = epochs_.TryAcquireSlot();
    if (slot == EpochRegistry::kNoSlot) return std::nullopt;
    return Snapshot(this, slot);
  }

  /// Freezes the staged root delta into a published segment and swaps in
  /// the next VersionSet; returns its sequence number (unchanged when
  /// nothing was staged). Writer-side — wire it per batch via
  /// ParallelExecutor::SetPostBatchHook, or call explicitly after
  /// ApplyDelta.
  uint64_t Publish() {
    // Failpoint before the staging relation is frozen: a publish that
    // throws here changed nothing — the staged delta stays staged, the
    // dirty flag stays set — so the caller retries Publish() as-is, or
    // simply lets the next publish pick the segment up (visibility is
    // delayed, never lost or duplicated).
    FIVM_FAIL_POINT("serve.publish");
    const VersionSet* old = current_.load(std::memory_order_relaxed);
    if (!dirty_) return old->seq;
    dirty_ = false;
    auto* next = new VersionSet(*old);
    next->seq = old->seq + 1;
    Schema schema = staging_.schema();
    // A staging relation whose every key cancelled holds only tombstones:
    // it is dropped rather than published.
    if (!staging_.empty()) {
      next->store.segments.push_back(
          std::make_shared<const Rel>(std::move(staging_)));
    }
    staging_ = Rel(std::move(schema));
    stats_publishes_.fetch_add(1, std::memory_order_relaxed);
    Install(next);
    return next->seq;
  }

  /// One merge pass under the current MergePolicy; returns 1 when the
  /// differential folded into a new base generation, else 0. Writer-side.
  size_t MergeStep() { return MergeImpl(Scope::kPolicy); }

  /// Folds a non-empty differential regardless of policy bounds.
  size_t MergeNow() { return MergeImpl(Scope::kAll); }

  /// Folds only a differential of at most kSmallFoldKeys keys, regardless
  /// of policy bounds. Every lookup probes every segment, and a store with
  /// few keys (a scalar root) gains a segment per published batch: left to
  /// the bounds, a read's cost would depend on how many batches published
  /// since the last merge, and a fresh read would pull each of their
  /// payloads from the writer's cache. Folding that few keys right after
  /// each publish (IngestService does) costs a few ring additions and
  /// keeps such stores segment-free.
  size_t MergeSmall() { return MergeImpl(Scope::kSmall); }

  /// Frees retired VersionSets and displaced generations whose last
  /// possible reader has drained. Publish and merge reclaim
  /// opportunistically; tests call this to reclaim without publishing.
  /// Writer-side.
  void Reclaim() {
    const uint64_t min_pinned = epochs_.MinPinned();
    size_t kept = 0;
    for (auto& [epoch, set] : retired_) {
      if (epoch < min_pinned) {
        delete set;
      } else {
        retired_[kept++] = {epoch, set};
      }
    }
    retired_.resize(kept);
    // A generation is reachable only through VersionSets, all retired at
    // or before its own retire epoch, so one rule covers both.
    kept = 0;
    for (auto& [epoch, gen] : draining_) {
      if (epoch < min_pinned) {
        gen.reset();
        stats_reclaimed_generations_.fetch_add(1, std::memory_order_relaxed);
      } else {
        draining_[kept++] = {epoch, std::move(gen)};
      }
    }
    draining_.resize(kept);
    if (fold_.spare && !fold_.spare_drained &&
        fold_.spare_epoch < min_pinned) {
      fold_.spare_drained = true;
      stats_reclaimed_generations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Server-local statistics, live in every build config; the registry
  /// exports them as serve.* gauges. Atomic-backed: safe from any thread.
  uint64_t PublishCount() const {
    return stats_publishes_.load(std::memory_order_relaxed);
  }
  uint64_t MergeCount() const {
    return stats_merges_.load(std::memory_order_relaxed);
  }
  uint64_t MergedKeys() const {
    return stats_merged_keys_.load(std::memory_order_relaxed);
  }
  /// Displaced base generations released after every VersionSet and
  /// snapshot that could reach them drained: freed, or taken back as the
  /// merge spare. Each generation is released once; none while pinned.
  uint64_t ReclaimedGenerations() const {
    return stats_reclaimed_generations_.load(std::memory_order_relaxed);
  }
  /// Base generations a merge built by cloning the installed base rather
  /// than folding into the spare (see the class comment for when).
  uint64_t ClonedGenerations() const {
    return stats_cloned_generations_.load(std::memory_order_relaxed);
  }
  /// Retired VersionSets not yet reclaimed. Writer-side.
  size_t RetiredCount() const { return retired_.size(); }
  size_t SegmentCount() const {
    return segment_count_.load(std::memory_order_relaxed);
  }
  int64_t PinnedCount() const { return epochs_.PinnedCount(); }

 private:
  /// The double buffer behind the in-place merge fold. Writer-owned, like
  /// every other mutable field; Reclaim() marks the spare drained.
  struct FoldState {
    /// Mutable handle on the base generation currently installed.
    std::shared_ptr<Rel> live;
    /// The coalesced differential the merge that built `live` absorbed:
    /// live = spare ⊎ last_fold while that merge's spare is kept.
    Rel last_fold;
    /// The generation the last merge displaced, and that merge's retire
    /// epoch: every VersionSet that can reach the spare retired at or
    /// before it.
    std::shared_ptr<Rel> spare;
    uint64_t spare_epoch = 0;
    /// No reader can reach the spare any more; a merge may mutate it.
    bool spare_drained = false;
  };

  /// Clone-path pool headroom beyond the clone's own differential: a
  /// fraction of the base (1/kCloneHeadroomDivisor, at least
  /// kCloneHeadroomMinKeys) for the new keys that accumulate across
  /// recycles, and never less than kCloneHeadroomDiffs differentials —
  /// each later fold's capacity check counts every key of two (possibly
  /// larger) differentials as new. Once new keys use it up, the spare is
  /// cloned afresh; growing its pool geometrically instead would hold up
  /// to twice the store per generation.
  static constexpr size_t kCloneHeadroomDivisor = 16;
  static constexpr size_t kCloneHeadroomMinKeys = 64;
  static constexpr size_t kCloneHeadroomDiffs = 4;

  /// Swaps in `next`, retires the displaced set at the current epoch,
  /// advances the epoch, and reclaims what already drained. Returns the
  /// retire epoch.
  uint64_t Install(const VersionSet* next) {
    const VersionSet* old = current_.load(std::memory_order_relaxed);
    current_.store(next, std::memory_order_seq_cst);
    uint64_t retire_epoch = epochs_.CurrentEpoch();
    retired_.emplace_back(retire_epoch, old);
    epochs_.AdvanceEpoch();
    segment_count_.store(next->store.segments.size(),
                         std::memory_order_relaxed);
    Reclaim();
    return retire_epoch;
  }

  /// Takes the spare for a merge to fold into when it drained. Otherwise
  /// returns null and gives up a spare readers can still reach: it waits
  /// in draining_ rather than being waited for, and this merge clones.
  std::shared_ptr<Rel> ClaimSpare() {
    Reclaim();
    if (fold_.spare_drained) {
      fold_.spare_drained = false;
      return std::exchange(fold_.spare, nullptr);
    }
    if (fold_.spare != nullptr) {
      draining_.emplace_back(fold_.spare_epoch, std::move(fold_.spare));
    }
    return nullptr;
  }

  enum class Scope { kPolicy, kAll, kSmall };

  size_t MergeImpl(Scope which) {
    // Failpoint at merge start: nothing folded, nothing installed. An
    // aborted merge leaves the version chain untouched; segments simply
    // wait for the next pass.
    FIVM_FAIL_POINT("serve.merge");
    // The fold's working set. Only the writer — this thread — retires the
    // current set, so it needs no pin and stays the latest until the
    // install below.
    const VersionSet* cur = current_.load(std::memory_order_relaxed);
    const StoreVersion& sv = cur->store;
    if (sv.segments.empty()) return 0;
    size_t diff_keys = 0;
    for (const RelPtr& s : sv.segments) diff_keys += s->size();
    const bool fold =
        which == Scope::kAll ||
        (which == Scope::kSmall && diff_keys <= kSmallFoldKeys) ||
        (which == Scope::kPolicy &&
         (sv.segments.size() >= policy_.max_segments ||
          diff_keys >= policy_.max_diff_keys));
    if (!fold) return 0;
    std::shared_ptr<Rel> base = ClaimSpare();  // becomes the next generation
    Rel diff(sv.base->schema());
    bool cloned = false;
    {
      obs::ScopedTimer timer(obs_merge_ns_);
      assert(sv.base == fold_.live && "the installed base is the live one");
      // Coalesce the frozen segments into one differential (ring addition
      // dedups keys across segments).
      diff.Reserve(diff_keys);
      for (const RelPtr& s : sv.segments) AbsorbInto(diff, *s);
      // The spare is the generation before the installed one: absorbing
      // last_fold and then this differential makes it the next one. Each
      // new key takes a pool slot, so the fold must fit the pool as sized.
      if (base != nullptr &&
          base->KeyPoolSize() + fold_.last_fold.size() + diff.size() <=
              base->KeyPoolCapacity()) {
        AbsorbInto(*base, fold_.last_fold);
      } else {
        base.reset();  // free an overflowing spare before cloning
        const size_t headroom =
            std::max({sv.base->size() / kCloneHeadroomDivisor,
                      kCloneHeadroomDiffs * diff.size(),
                      kCloneHeadroomMinKeys});
        base = std::make_shared<Rel>(*sv.base, diff.size() + headroom);
        cloned = true;
      }
      AbsorbInto(*base, diff);
    }
    // Failpoint between fold and install: the built generation unwinds and
    // no set was swapped — an injected abort here wastes the fold's work
    // (and a recycled spare) but cannot corrupt the version chain, since
    // the fold state changes only below. Stats are counted past this
    // point so an aborted merge reports nothing as merged.
    FIVM_FAIL_POINT("serve.merge.install");
    // `cur` is the latest set, so every segment is in the new base.
    auto* next = new VersionSet{cur->seq, {base, {}, sv.base_gen + 1}};
    stats_merged_keys_.fetch_add(diff.size(), std::memory_order_relaxed);
    const uint64_t retire_epoch = Install(next);
    fold_.spare = std::exchange(fold_.live, std::move(base));
    fold_.spare_epoch = retire_epoch;
    fold_.last_fold = std::move(diff);
    if (cloned) {
      stats_cloned_generations_.fetch_add(1, std::memory_order_relaxed);
    }
    stats_merges_.fetch_add(1, std::memory_order_relaxed);
    return 1;
  }

  IvmEngine<Ring>* engine_;
  MergePolicy policy_;

  /// Differential staging of the root store.
  Rel staging_;
  bool dirty_ = false;

  /// The published version chain. current_ is the readers' single entry
  /// point and the only field they touch; the rest is writer-owned.
  std::atomic<const VersionSet*> current_{nullptr};
  std::vector<std::pair<uint64_t, const VersionSet*>> retired_;
  /// Displaced generations no merge will fold into, with their retire
  /// epochs, waiting for their readers to drain.
  std::vector<std::pair<uint64_t, std::shared_ptr<Rel>>> draining_;
  FoldState fold_;
  mutable EpochRegistry epochs_;

  /// Server-local stats (live in every build config; tests read these).
  std::atomic<uint64_t> stats_publishes_{0};
  std::atomic<uint64_t> stats_merges_{0};
  std::atomic<uint64_t> stats_merged_keys_{0};
  std::atomic<uint64_t> stats_reclaimed_generations_{0};
  std::atomic<uint64_t> stats_cloned_generations_{0};
  std::atomic<size_t> segment_count_{0};

  /// Registry handles (process lifetime; record nothing while obs is off).
  obs::Counter* obs_reads_ = nullptr;
  obs::Counter* obs_base_hits_ = nullptr;
  obs::Counter* obs_diff_hits_ = nullptr;
  obs::Histogram* obs_merge_ns_ = nullptr;
  obs::GaugeSet gauges_;  // last: unregisters before the state it reads
};

}  // namespace fivm::serve

#endif  // FIVM_SERVE_SNAPSHOT_SERVER_H_
