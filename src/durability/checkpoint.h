// Store checkpointing: a checkpoint file is an index-free image of every
// materialized store (the SoA entry pools serialized live-entry by
// live-entry, see serialize.h) stamped with the WAL position it covers:
//
//   magic 'FCKP' | version | lsn | update_count | store_count |
//   store_count × (node id | SerializeRelation image) |
//   CRC32C over everything above
//
// A checkpoint at LSN L means "this image equals the empty database plus
// every WAL frame with lsn <= L"; recovery loads it and replays only the
// frames after L. Installation is crash-atomic: the image is written to
// ckpt-<lsn>.ckpt.tmp, fsync'd, and rename()d into place — a crash leaves
// either the old checkpoint set or the new one, never a half-visible file
// (the "ckpt.write" and "ckpt.rename" failpoints let the chaos harness kill
// at both boundaries; a partial .tmp is ignored by the loader and collected
// by the next GC pass).
//
// The ingest service triggers checkpoints between flush windows — after a
// window's frames are sealed, fsync'd and applied, so the engine is exactly
// at the WAL's last sealed LSN and the serving side keeps answering from
// its epoch-pinned snapshots while the image is written (SnapshotServer
// froze its own immutable base generations at the last publish; the
// checkpoint never touches them).

#ifndef FIVM_DURABILITY_CHECKPOINT_H_
#define FIVM_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/durability/serialize.h"
#include "src/durability/wal.h"
#include "src/obs/metrics.h"
#include "src/util/crc32c.h"

namespace fivm::durability {

inline constexpr uint32_t kCkptMagic = 0x504B4346u;  // "FCKP"
inline constexpr uint32_t kCkptVersion = 1;

struct CheckpointMeta {
  uint64_t lsn = 0;
  uint64_t update_count = 0;  // admitted updates covered by the image
  std::string path;
};

// --- Untemplated file machinery (checkpoint.cc) ---

/// ckpt-*.ckpt files of `dir`, ascending LSN (parsed from the name;
/// update_count is only known after reading the image).
std::vector<CheckpointMeta> ListCheckpoints(const std::string& dir);

/// The install path of the checkpoint covering `lsn`.
std::string CheckpointPath(const std::string& dir, uint64_t lsn);

/// Crash-atomic installation: temp file + fsync + rename + dir fsync.
/// Throws on injected faults ("ckpt.write" mid-image, "ckpt.rename" before
/// the rename, "durability.sync_dir" after it) and real I/O errors; the temp
/// file is unlinked on a throw before the rename. A throw from the dir fsync
/// leaves the renamed image in place, not known to be durable.
void InstallCheckpointBytes(const std::string& dir, uint64_t lsn,
                            const std::vector<uint8_t>& bytes);

/// Reads a checkpoint file and validates magic, version and CRC. Returns
/// false (corrupt/torn image) without touching `out` on failure.
bool ReadCheckpointBytes(const std::string& path, std::vector<uint8_t>* out);

/// Unlinks all but the newest `keep` checkpoints plus any stray .tmp files
/// a crashed writer left behind.
void RemoveOldCheckpoints(const std::string& dir, size_t keep);

// --- Image build/parse ---

template <typename Ring>
std::vector<uint8_t> BuildCheckpointImage(const IvmEngine<Ring>& engine,
                                          uint64_t lsn,
                                          uint64_t update_count) {
  std::vector<uint8_t> out;
  PutU32(&out, kCkptMagic);
  PutU32(&out, kCkptVersion);
  PutU64(&out, lsn);
  PutU64(&out, update_count);
  const auto& nodes = engine.tree().nodes();
  uint32_t count = 0;
  for (const auto& n : nodes) {
    if (n.materialized) ++count;
  }
  PutU32(&out, count);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].materialized) continue;
    PutU32(&out, static_cast<uint32_t>(i));
    SerializeRelation(&out, engine.store(static_cast<int>(i)));
  }
  PutU32(&out, util::Crc32c(out.data(), out.size()));
  return out;
}

/// Parses a validated image into (node, store) pairs, checking every node
/// id and schema against the engine's view tree. All-or-nothing: on any
/// mismatch returns false with no partial output, so a caller can fall back
/// to an older checkpoint without having half-restored the engine.
template <typename Ring>
bool ParseCheckpointImage(const std::vector<uint8_t>& bytes,
                          const IvmEngine<Ring>& engine, CheckpointMeta* meta,
                          std::vector<std::pair<int, Relation<Ring>>>* stores) {
  if (bytes.size() < 28 + 4) return false;
  ByteReader r{bytes.data(), bytes.data() + bytes.size() - 4};
  uint32_t magic, version, count;
  if (!r.U32(&magic) || !r.U32(&version)) return false;
  if (magic != kCkptMagic || version != kCkptVersion) return false;
  if (!r.U64(&meta->lsn) || !r.U64(&meta->update_count) || !r.U32(&count)) {
    return false;
  }
  const auto& nodes = engine.tree().nodes();
  stores->clear();
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t node;
    if (!r.U32(&node) || node >= nodes.size()) return false;
    if (!nodes[node].materialized) return false;
    Relation<Ring> rel;
    if (!DeserializeRelation(&r, &rel)) return false;
    if (!(rel.schema() == engine.store(static_cast<int>(node)).schema())) {
      return false;
    }
    stores->emplace_back(static_cast<int>(node), std::move(rel));
  }
  return r.remaining() == 0;
}

// --- Orchestration ---

template <typename Ring>
struct LoadedCheckpoint {
  bool loaded = false;
  CheckpointMeta meta;
  size_t corrupt_skipped = 0;  // newer images rejected before this one
};

/// Loads the newest checkpoint that validates (CRC + schema), restoring its
/// stores into the engine; corrupt or torn images fall back to the next
/// older one. The engine should be freshly Initialize()d on an empty
/// database; if no checkpoint loads, it is left untouched (recovery then
/// replays the WAL from the beginning).
template <typename Ring>
LoadedCheckpoint<Ring> LoadNewestCheckpoint(const std::string& dir,
                                            IvmEngine<Ring>* engine) {
  LoadedCheckpoint<Ring> result;
  std::vector<CheckpointMeta> all = ListCheckpoints(dir);
  for (size_t i = all.size(); i-- > 0;) {
    std::vector<uint8_t> bytes;
    if (!ReadCheckpointBytes(all[i].path, &bytes)) {
      ++result.corrupt_skipped;
      continue;
    }
    CheckpointMeta meta = all[i];
    std::vector<std::pair<int, Relation<Ring>>> stores;
    if (!ParseCheckpointImage(bytes, *engine, &meta, &stores)) {
      ++result.corrupt_skipped;
      continue;
    }
    for (auto& [node, rel] : stores) {
      engine->RestoreStore(node, std::move(rel));
    }
    result.loaded = true;
    result.meta = std::move(meta);
    return result;
  }
  return result;
}

/// The ingest service's checkpoint driver: snapshots every materialized
/// store at the WAL's current sealed position, installs atomically, then
/// truncates the WAL below the covered LSN and GCs old images.
template <typename Ring>
class Checkpointer {
 public:
  /// Checkpoints retained after a successful install.
  static constexpr size_t kKeep = 2;

  Checkpointer(std::string dir, IvmEngine<Ring>* engine, WalWriter* wal)
      : dir_(std::move(dir)),
        engine_(engine),
        wal_(wal),
        duration_ns_(obs::MetricRegistry::Default().GetHistogram(
            "durability.checkpoint_ns")),
        installed_(obs::MetricRegistry::Default().GetCounter(
            "ckpt.installed")) {}

  /// Pre-condition: every sealed WAL frame has been applied to the engine
  /// (the service calls this between flush windows). Throws on injected
  /// faults and I/O errors; the caller counts and retries at a later
  /// boundary.
  CheckpointMeta WriteCheckpoint() {
    obs::ScopedTimer timer(duration_ns_);
    CheckpointMeta meta;
    meta.lsn = wal_->last_sealed_lsn();
    meta.update_count = wal_->next_update_index();
    meta.path = CheckpointPath(dir_, meta.lsn);
    std::vector<uint8_t> bytes =
        BuildCheckpointImage(*engine_, meta.lsn, meta.update_count);
    InstallCheckpointBytes(dir_, meta.lsn, bytes);
    installed_->Inc();
    wal_->TruncateBelow(meta.lsn);
    RemoveOldCheckpoints(dir_, kKeep);
    return meta;
  }

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  IvmEngine<Ring>* engine_;
  WalWriter* wal_;
  obs::Histogram* duration_ns_;
  obs::Counter* installed_;
};

}  // namespace fivm::durability

#endif  // FIVM_DURABILITY_CHECKPOINT_H_
