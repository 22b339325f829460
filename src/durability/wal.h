// Write-ahead delta log: the durable record of every update admitted into a
// flush window, written *before* the window's deltas touch any store.
//
// Layout on disk: a directory of append-only segments named
// wal-<first lsn>.seg. A segment is a run of frames; one frame carries one
// relation's updates from one flush window:
//
//   header   magic 'FWAL' | version | lsn | first_update_index |
//            relation | tuple_count | payload_bytes          (36 bytes)
//   payload  tuple_count × (SerializeTuple key, RingCodec payload)
//   trailer  CRC32C over header + payload                     (4 bytes)
//
// LSNs are assigned at seal time and increase by exactly 1 per frame;
// first_update_index is the count of updates logged before the frame, so any
// frame pins its position in the admitted-update stream — recovery and the
// crash-chaos harness both use it to resume/regenerate the workload.
//
// Window atomicity: one flush window seals as a GROUP of frames (one per
// touched relation), and only the group's last frame carries the
// window-commit marker (the top bit of the header's relation field). A
// kill mid-seal can persist a prefix of the group; without the marker,
// recovery would land mid-window — a state that matches no prefix of the
// admitted stream. Both recovery and the writer's open-scan therefore
// treat a trailing uncommitted frame group exactly like a torn tail:
// valid CRCs or not, it is discarded.
//
// Group fsync: Seal() writes every pending relation's frame with plain
// write() calls and issues ONE fsync for the window (the "wal.fsync" site
// guards it). Frames are written in two write() calls with the "wal.append"
// failpoint between them: an injected *throw* rolls the segment back to the
// frame start (ftruncate) so a supervised retry re-seals cleanly, while an
// injected *kill* leaves a genuinely torn frame on disk for recovery to
// discard — the crash-chaos harness exercises exactly that.
//
// Rotation ("wal.rotate" site) caps segment size; TruncateBelow(lsn) unlinks
// segments made fully redundant by a checkpoint. Opening for append re-scans
// the tail, discards a torn suffix (ftruncate + unlink of later segments),
// and resumes LSN/update-index numbering from the last valid frame.

#ifndef FIVM_DURABILITY_WAL_H_
#define FIVM_DURABILITY_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/data/tuple.h"
#include "src/durability/serialize.h"

namespace fivm::durability {

inline constexpr uint32_t kWalMagic = 0x4C415746u;  // "FWAL"
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalHeaderBytes = 36;
inline constexpr size_t kWalTrailerBytes = 4;
/// Top bit of the header's relation field: this frame completes its flush
/// window's frame group.
inline constexpr uint32_t kWalCommitBit = 0x80000000u;

/// One decoded frame (header + raw payload bytes; decode the updates with
/// DecodeFrameUpdates<Ring>).
struct WalFrame {
  uint64_t lsn = 0;
  uint64_t first_update_index = 0;
  int relation = 0;
  uint32_t tuple_count = 0;
  /// Last frame of its window's group; replay state at or before this
  /// frame corresponds to a prefix of the admitted update stream.
  bool window_commit = false;
  std::vector<uint8_t> payload;
};

struct WalStats {
  uint64_t frames_written = 0;
  uint64_t bytes_written = 0;
  uint64_t fsyncs = 0;
  uint64_t rotations = 0;
  uint64_t truncations = 0;  // TruncateBelow calls that unlinked segments
};

/// Appender. Not thread-safe; the ingest service drives it from the service
/// thread. The directory is fsync'd after every segment create and unlink,
/// and a failed directory fsync throws.
class WalWriter {
 public:
  struct Options {
    size_t max_segment_bytes = 64u << 20;
  };

  /// Opens `dir` (created if absent) for appending: scans existing
  /// segments, discards any torn tail, and resumes numbering after the last
  /// valid frame. `min_lsn`/`min_update_index` seed numbering when the WAL
  /// is empty (e.g. freshly truncated past a checkpoint).
  WalWriter(std::string dir, Options options, uint64_t min_lsn = 0,
            uint64_t min_update_index = 0);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Stages one update for `relation` into its pending frame. The bytes are
  /// produced by EncodeUpdate<Ring> below.
  template <typename Ring>
  void Append(int relation, const Tuple& key,
              const typename Ring::Element& payload) {
    PendingFrame& f = Pending(relation);
    SerializeTuple(&f.bytes, key);
    RingCodec<Ring>::Write(&f.bytes, payload);
    ++f.tuples;
  }

  /// Writes every pending frame and (when `sync`) group-fsyncs the window.
  /// Returns the LSN of the last sealed frame (or last_sealed_lsn() when
  /// nothing was pending). Throws on injected faults and real I/O errors;
  /// the segment is rolled back to the last frame boundary first, so a
  /// retry re-seals the same pending set.
  uint64_t Seal(bool sync);

  /// True when at least one update is staged.
  bool HasPending() const;
  /// Drops staged updates without writing them (WAL-failure shed path).
  void DropPending();

  /// Unlinks segments whose every frame has lsn <= `lsn` (i.e. covered by a
  /// checkpoint). The active segment is never unlinked.
  void TruncateBelow(uint64_t lsn);

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t last_sealed_lsn() const { return next_lsn_ - 1; }
  /// Total updates sealed into the log over its lifetime (resumes across
  /// reopen); the next sealed frame's first_update_index.
  uint64_t next_update_index() const { return next_update_index_; }
  const WalStats& stats() const { return stats_; }

 private:
  struct PendingFrame {
    int relation = 0;
    uint32_t tuples = 0;
    std::vector<uint8_t> bytes;
  };

  PendingFrame& Pending(int relation);
  void EnsureSegment();
  void RotateIfNeeded(size_t incoming_frame_bytes);
  void WriteFrame(const PendingFrame& f, bool window_commit);

  std::string dir_;
  Options options_;
  int fd_ = -1;
  std::string segment_path_;
  size_t segment_bytes_ = 0;
  uint64_t next_lsn_ = 1;
  uint64_t next_update_index_ = 0;
  bool sync_pending_ = false;  // frames written but not yet fsync'd
  std::vector<PendingFrame> pending_;  // touch order
  WalStats stats_;
};

/// Sequential frame reader across all segments of `dir`, in LSN order.
/// Stops (Next() -> false) at end of log, at the first CRC mismatch, or at
/// a partial frame — the last two mark a torn tail, reported via
/// saw_torn_tail()/torn_bytes(). Read-only: recovery can scan a log that a
/// crashed writer left torn without mutating it.
class WalReader {
 public:
  explicit WalReader(std::string dir);
  ~WalReader();

  WalReader(const WalReader&) = delete;
  WalReader& operator=(const WalReader&) = delete;

  bool Next(WalFrame* frame);

  bool saw_torn_tail() const { return torn_bytes_ > 0; }
  uint64_t torn_bytes() const { return torn_bytes_; }

 private:
  bool OpenNextSegment();

  std::string dir_;
  std::vector<std::string> segments_;
  size_t segment_idx_ = 0;
  int fd_ = -1;
  std::vector<uint8_t> buf_;
  size_t buf_pos_ = 0;
  uint64_t prev_lsn_ = 0;
  uint64_t torn_bytes_ = 0;
};

/// Decodes the updates of a frame: fn(Tuple&&, Element&&) per update.
/// Returns false on malformed payload bytes (possible only if the CRC
/// collided, i.e. effectively never).
template <typename Ring, typename Fn>
bool DecodeFrameUpdates(const WalFrame& frame, Fn&& fn) {
  ByteReader r{frame.payload.data(),
               frame.payload.data() + frame.payload.size()};
  for (uint32_t i = 0; i < frame.tuple_count; ++i) {
    Tuple key;
    typename Ring::Element payload;
    if (!DeserializeTuple(&r, &key)) return false;
    if (!RingCodec<Ring>::Read(&r, &payload)) return false;
    fn(std::move(key), std::move(payload));
  }
  return r.remaining() == 0;
}

/// Lists wal-*.seg paths of `dir` sorted by first LSN. Exposed for the
/// writer's open-scan, TruncateBelow, and tests.
std::vector<std::string> ListWalSegments(const std::string& dir);

}  // namespace fivm::durability

#endif  // FIVM_DURABILITY_WAL_H_
