// Crash recovery: newest valid checkpoint + bounded WAL-suffix replay.
//
// The engine is rebuilt in three steps:
//   1. The caller constructs the view tree / engine / executor exactly as
//      the crashed process did (the tree is a deterministic function of the
//      query and variable order) and Initialize()s on an empty database.
//   2. LoadNewestCheckpoint restores every materialized store from the
//      newest image that validates; corrupt or partial images fall back to
//      the next older one (an interrupted install only ever leaves a .tmp,
//      which the loader ignores).
//   3. The WAL frames with lsn > checkpoint LSN are replayed through the
//      same DeltaBatcher → ParallelExecutor pipeline live ingest uses.
//      Frames at or below the checkpoint LSN are skipped — the checkpoint
//      already folds those ring deltas in — so replay lands on exactly the
//      state the sealed log prescribes. A torn tail (partial frame or CRC
//      mismatch, e.g. a kill between the WAL header and body writes) ends
//      replay; the next WalWriter open physically discards it. Frames are
//      buffered per window and applied only when the group's window-commit
//      frame is seen — trailing valid frames of a partially sealed window
//      are discarded the same way (see wal.h "Window atomicity").
//
// Replay order is LSN order, which is the order the crashed service sealed
// (and applied) the windows in, so stateful leaves (indicator support
// counts) recover bit-identically, not just up to delta commutativity.
//
// Recovery is read-only on the log directory: a parent process can verify a
// killed child's durable state without disturbing what the next child will
// recover from (tests/recovery_chaos_test.cc leans on this).

#ifndef FIVM_DURABILITY_RECOVERY_H_
#define FIVM_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/durability/checkpoint.h"
#include "src/durability/wal.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/parallel_executor.h"
#include "src/obs/metrics.h"

namespace fivm::durability {

struct RecoveryResult {
  bool checkpoint_loaded = false;
  uint64_t checkpoint_lsn = 0;
  size_t corrupt_checkpoints_skipped = 0;

  uint64_t frames_replayed = 0;
  uint64_t updates_replayed = 0;
  uint64_t frames_skipped = 0;  // lsn <= checkpoint_lsn (already folded in)
  /// Valid trailing frames discarded because their window's commit frame
  /// never made it to disk (kill mid-seal).
  uint64_t frames_discarded_uncommitted = 0;
  bool saw_torn_tail = false;
  uint64_t torn_bytes = 0;
  /// Media-corruption guard: true when the first frame past the checkpoint
  /// does not chain directly onto it (frames lost that a clean crash cannot
  /// lose). The recovered state is then best-effort.
  bool gap_detected = false;

  /// Durable position: the LSN of the last state-bearing record (frame or
  /// checkpoint) and the total admitted updates it covers. A reopened
  /// WalWriter resumes numbering here, and the chaos harness regenerates
  /// its seeded workload from update_count onward.
  uint64_t last_lsn = 0;
  uint64_t update_count = 0;
};

template <typename Ring>
RecoveryResult Recover(const std::string& dir, IvmEngine<Ring>* engine,
                       exec::DeltaBatcher<Ring>* batcher,
                       exec::ParallelExecutor<Ring>* executor,
                       size_t replay_batch_updates = 1024) {
  static obs::Histogram* duration_ns =
      obs::MetricRegistry::Default().GetHistogram("durability.recovery_ns");
  obs::ScopedTimer timer(duration_ns);

  RecoveryResult result;
  LoadedCheckpoint<Ring> ckpt = LoadNewestCheckpoint(dir, engine);
  result.checkpoint_loaded = ckpt.loaded;
  result.corrupt_checkpoints_skipped = ckpt.corrupt_skipped;
  if (ckpt.loaded) {
    result.checkpoint_lsn = ckpt.meta.lsn;
    result.last_lsn = ckpt.meta.lsn;
    result.update_count = ckpt.meta.update_count;
  }

  WalReader reader(dir);
  WalFrame frame;
  size_t batched = 0;
  auto flush_and_apply = [&] {
    if (batched == 0) return;
    executor->Drain(*batcher);
    batched = 0;
  };
  // Frames of the in-flight window; pushed into the batcher only once the
  // window's commit frame arrives, so a kill mid-seal never replays half a
  // window.
  std::vector<WalFrame> window;
  bool first_replayed = true;
  bool torn = false;
  while (reader.Next(&frame)) {
    if (frame.lsn <= result.checkpoint_lsn) {
      ++result.frames_skipped;
      continue;
    }
    if (first_replayed) {
      first_replayed = false;
      if (ckpt.loaded && frame.lsn != result.checkpoint_lsn + 1) {
        result.gap_detected = true;
      }
    }
    const bool commit = frame.window_commit;
    window.push_back(std::move(frame));
    if (!commit) continue;
    // Decode the whole group before pushing anything, so a decode failure
    // (CRC collision — effectively never) drops the window atomically.
    std::vector<std::pair<int, std::pair<Tuple, typename Ring::Element>>>
        decoded;
    for (WalFrame& wf : window) {
      bool ok = DecodeFrameUpdates<Ring>(
          wf, [&](Tuple&& key, typename Ring::Element&& payload) {
            decoded.emplace_back(
                wf.relation,
                std::make_pair(std::move(key), std::move(payload)));
          });
      if (!ok) {
        torn = true;
        break;
      }
    }
    if (torn) break;
    for (auto& [rel, kv] : decoded) {
      batcher->Push(rel, std::move(kv.first), std::move(kv.second));
      ++batched;
    }
    for (const WalFrame& wf : window) {
      ++result.frames_replayed;
      result.updates_replayed += wf.tuple_count;
    }
    result.last_lsn = window.back().lsn;
    result.update_count =
        window.back().first_update_index + window.back().tuple_count;
    window.clear();
    if (batched >= replay_batch_updates) flush_and_apply();
  }
  if (!torn && !window.empty()) {
    // Valid frames whose window never committed: a kill between the group's
    // frame writes. Discard exactly like a torn tail.
    result.frames_discarded_uncommitted = window.size();
    result.saw_torn_tail = true;
  }
  if (torn) result.saw_torn_tail = true;
  flush_and_apply();
  if (reader.saw_torn_tail()) {
    result.saw_torn_tail = true;
    result.torn_bytes = reader.torn_bytes();
  }
  return result;
}

}  // namespace fivm::durability

#endif  // FIVM_DURABILITY_RECOVERY_H_
