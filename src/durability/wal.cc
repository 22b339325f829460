#include "src/durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/durability/file_util.h"
#include "src/obs/metrics.h"
#include "src/util/crc32c.h"
#include "src/util/fail_point.h"

namespace fivm::durability {
namespace {

using fileio::ReadWholeFile;
using fileio::SyncDir;
using fileio::ThrowErrno;

constexpr size_t kMaxFramePayload = 1u << 30;

void PutHeaderU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutHeaderU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::string SegmentPath(const std::string& dir, uint64_t first_lsn) {
  char name[48];
  std::snprintf(name, sizeof(name), "wal-%020llu.seg",
                static_cast<unsigned long long>(first_lsn));
  return dir + "/" + name;
}

uint64_t SegmentFirstLsn(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  return std::strtoull(name.c_str() + 4, nullptr, 10);
}

// Parses the frame at buf[pos..]; returns the frame's total byte size on
// success (header + payload + trailer), 0 on a torn/invalid frame. When
// `out` is non-null the header fields and payload are copied into it.
size_t ParseFrame(const std::vector<uint8_t>& buf, size_t pos,
                  uint64_t prev_lsn, WalFrame* out) {
  if (buf.size() - pos < kWalHeaderBytes + kWalTrailerBytes) return 0;
  const uint8_t* h = buf.data() + pos;
  if (GetU32(h) != kWalMagic || GetU32(h + 4) != kWalVersion) return 0;
  uint64_t lsn = GetU64(h + 8);
  uint32_t payload_bytes = GetU32(h + 32);
  if (payload_bytes > kMaxFramePayload) return 0;
  size_t total = kWalHeaderBytes + payload_bytes + kWalTrailerBytes;
  if (buf.size() - pos < total) return 0;
  uint32_t stored_crc = GetU32(h + kWalHeaderBytes + payload_bytes);
  uint32_t crc = util::Crc32c(h, kWalHeaderBytes + payload_bytes);
  if (crc != stored_crc) return 0;
  if (prev_lsn != 0 && lsn != prev_lsn + 1) return 0;
  if (out != nullptr) {
    const uint32_t rel_raw = GetU32(h + 24);
    out->lsn = lsn;
    out->first_update_index = GetU64(h + 16);
    out->relation = static_cast<int32_t>(rel_raw & ~kWalCommitBit);
    out->window_commit = (rel_raw & kWalCommitBit) != 0;
    out->tuple_count = GetU32(h + 28);
    out->payload.assign(h + kWalHeaderBytes,
                        h + kWalHeaderBytes + payload_bytes);
  }
  return total;
}

}  // namespace

std::vector<std::string> ListWalSegments(const std::string& dir) {
  // Zero-padded LSNs make lexical order LSN order.
  return fileio::ListNamed(dir, "wal-", ".seg");
}

// ---------------------------------------------------------------------------
// WalWriter

WalWriter::WalWriter(std::string dir, Options options, uint64_t min_lsn,
                     uint64_t min_update_index)
    : dir_(std::move(dir)), options_(options) {
  fileio::MkDir(dir_, "wal");
  next_lsn_ = min_lsn + 1;
  next_update_index_ = min_update_index;

  // Scan for the last *committed* frame. Everything after it — a torn
  // frame, stray bytes, or valid-but-uncommitted frames of a partially
  // sealed window — is discarded before we append, so the resumed log
  // always ends on a window boundary and first_update_index numbering
  // matches what recovery replays.
  std::vector<std::string> segments = ListWalSegments(dir_);
  size_t commit_segment = segments.size();  // none found yet
  size_t commit_pos = 0;
  uint64_t prev_lsn = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    std::vector<uint8_t> buf;
    if (!ReadWholeFile(segments[i], &buf)) break;
    size_t pos = 0;
    WalFrame frame;
    bool stopped = false;
    while (pos < buf.size()) {
      size_t n = ParseFrame(buf, pos, prev_lsn, &frame);
      if (n == 0) {
        stopped = true;
        break;
      }
      prev_lsn = frame.lsn;
      pos += n;
      if (frame.window_commit) {
        commit_segment = i;
        commit_pos = pos;
        next_lsn_ = frame.lsn + 1;
        next_update_index_ = frame.first_update_index + frame.tuple_count;
      }
    }
    if (stopped) break;
  }
  // Drop everything past the resume point: later segments entirely, and
  // the commit segment's suffix. With no committed frame at all the whole
  // log is a torn first window — unlink it and fall back to the caller's
  // min_lsn/min_update_index seeds.
  for (size_t i = 0; i < segments.size(); ++i) {
    if (commit_segment == segments.size() || i > commit_segment) {
      ::unlink(segments[i].c_str());
    }
  }
  if (commit_segment < segments.size()) {
    const std::string& tail = segments[commit_segment];
    struct stat st;
    if (::stat(tail.c_str(), &st) == 0 &&
        static_cast<size_t>(st.st_size) != commit_pos) {
      if (::truncate(tail.c_str(), commit_pos) != 0) {
        ThrowErrno("wal: truncate torn tail " + tail);
      }
    }
  }
  // Before any descriptor is held, so a throw here leaks nothing.
  if (options_.sync_dir) SyncDir(dir_, "wal");
  if (commit_segment < segments.size()) {
    // Resume appending into the surviving tail segment.
    const std::string& tail = segments[commit_segment];
    fd_ = ::open(tail.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) ThrowErrno("wal: reopen " + tail);
    segment_path_ = tail;
    segment_bytes_ = commit_pos;
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

WalWriter::PendingFrame& WalWriter::Pending(int relation) {
  for (PendingFrame& f : pending_) {
    if (f.relation == relation) return f;
  }
  pending_.emplace_back();
  pending_.back().relation = relation;
  return pending_.back();
}

bool WalWriter::HasPending() const {
  for (const PendingFrame& f : pending_) {
    if (f.tuples > 0) return true;
  }
  return false;
}

void WalWriter::DropPending() { pending_.clear(); }

void WalWriter::EnsureSegment() {
  if (fd_ >= 0) return;
  std::string path = SegmentPath(dir_, next_lsn_);
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) ThrowErrno("wal: create " + path);
  // The segment is kept only once its directory entry is durable: after a
  // throw fd_ stays closed, so a supervised retry reopens and syncs again.
  if (options_.sync_dir) {
    try {
      SyncDir(dir_, "wal");
    } catch (...) {
      ::close(fd);
      throw;
    }
  }
  fd_ = fd;
  segment_path_ = std::move(path);
  segment_bytes_ = 0;
}

void WalWriter::RotateIfNeeded(size_t incoming_frame_bytes) {
  if (fd_ < 0 || segment_bytes_ == 0) return;
  if (segment_bytes_ + incoming_frame_bytes <= options_.max_segment_bytes) {
    return;
  }
  // Site evaluated before any side effect: a throw leaves the writer on the
  // old segment (retry rotates again); a kill leaves a fully-valid old
  // segment and no new one.
  FIVM_FAIL_POINT("wal.rotate");
  if (::fsync(fd_) != 0) ThrowErrno("wal: fsync before rotate");
  ::close(fd_);
  fd_ = -1;
  ++stats_.rotations;
  EnsureSegment();
}

void WalWriter::WriteFrame(const PendingFrame& f, bool window_commit) {
  static obs::Counter* appended_bytes =
      obs::MetricRegistry::Default().GetCounter("wal.appended_bytes");
  uint8_t header[kWalHeaderBytes];
  PutHeaderU32(header, kWalMagic);
  PutHeaderU32(header + 4, kWalVersion);
  PutHeaderU64(header + 8, next_lsn_);
  PutHeaderU64(header + 16, next_update_index_);
  PutHeaderU32(header + 24, static_cast<uint32_t>(f.relation) |
                                (window_commit ? kWalCommitBit : 0u));
  PutHeaderU32(header + 28, f.tuples);
  PutHeaderU32(header + 32, static_cast<uint32_t>(f.bytes.size()));
  uint32_t crc = util::Crc32c(header, kWalHeaderBytes);
  crc = util::Crc32c(f.bytes.data(), f.bytes.size(), crc);

  RotateIfNeeded(kWalHeaderBytes + f.bytes.size() + kWalTrailerBytes);
  EnsureSegment();
  const size_t frame_start = segment_bytes_;
  auto rollback = [&] {
    // All-or-nothing under throws: put the segment back on the last frame
    // boundary so a supervised retry re-seals cleanly. (A *kill* never gets
    // here — that is how the chaos harness manufactures torn tails.)
    ::ftruncate(fd_, static_cast<off_t>(frame_start));
    segment_bytes_ = frame_start;
  };
  auto write_all = [&](const uint8_t* p, size_t n) {
    while (n > 0) {
      ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        rollback();
        ThrowErrno("wal: write " + segment_path_);
      }
      p += w;
      n -= static_cast<size_t>(w);
      segment_bytes_ += static_cast<size_t>(w);
    }
  };
  write_all(header, kWalHeaderBytes);
  try {
    // Between the header write and the body write: a kill here is a torn
    // frame on disk, which recovery must discard.
    FIVM_FAIL_POINT("wal.append");
  } catch (...) {
    rollback();
    throw;
  }
  write_all(f.bytes.data(), f.bytes.size());
  uint8_t trailer[kWalTrailerBytes];
  PutHeaderU32(trailer, crc);
  write_all(trailer, kWalTrailerBytes);

  ++next_lsn_;
  next_update_index_ += f.tuples;
  ++stats_.frames_written;
  const uint64_t frame_bytes = segment_bytes_ - frame_start;
  stats_.bytes_written += frame_bytes;
  appended_bytes->Add(frame_bytes);
}

uint64_t WalWriter::Seal(bool sync) {
  static obs::Counter* fsyncs =
      obs::MetricRegistry::Default().GetCounter("wal.fsyncs");
  // The last non-empty frame of the group carries the window-commit marker;
  // a retry after a mid-seal throw recomputes it over what is still pending,
  // so the marker always lands on the group's final frame.
  size_t nonempty = 0;
  for (const PendingFrame& f : pending_) {
    if (f.tuples > 0) ++nonempty;
  }
  bool wrote = false;
  while (!pending_.empty()) {
    PendingFrame& f = pending_.front();
    if (f.tuples > 0) {
      WriteFrame(f, /*window_commit=*/nonempty == 1);
      --nonempty;
      wrote = true;
    }
    pending_.erase(pending_.begin());
  }
  if (sync && (wrote || sync_pending_)) {
    sync_pending_ = true;
    FIVM_FAIL_POINT("wal.fsync");
    if (fd_ >= 0 && ::fsync(fd_) != 0) ThrowErrno("wal: fsync");
    sync_pending_ = false;
    ++stats_.fsyncs;
    fsyncs->Inc();
  } else if (wrote && !sync) {
    sync_pending_ = true;
  }
  return last_sealed_lsn();
}

void WalWriter::TruncateBelow(uint64_t lsn) {
  static obs::Counter* truncations =
      obs::MetricRegistry::Default().GetCounter("wal.truncations");
  std::vector<std::string> segments = ListWalSegments(dir_);
  bool any = false;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    // Segment i spans [first(i), first(i+1) - 1]; unlink it once a
    // checkpoint covers that whole range. The active segment stays.
    if (segments[i] == segment_path_) break;
    if (SegmentFirstLsn(segments[i + 1]) <= lsn + 1) {
      ::unlink(segments[i].c_str());
      any = true;
    }
  }
  if (any) {
    ++stats_.truncations;
    truncations->Inc();
    if (options_.sync_dir) SyncDir(dir_, "wal");
  }
}

// ---------------------------------------------------------------------------
// WalReader

WalReader::WalReader(std::string dir) : dir_(std::move(dir)) {
  segments_ = ListWalSegments(dir_);
}

WalReader::~WalReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool WalReader::OpenNextSegment() {
  while (segment_idx_ < segments_.size()) {
    if (ReadWholeFile(segments_[segment_idx_], &buf_)) {
      ++segment_idx_;
      buf_pos_ = 0;
      if (!buf_.empty()) return true;
      // Empty segment (crashed rotation): skip it.
      continue;
    }
    ++segment_idx_;
  }
  return false;
}

bool WalReader::Next(WalFrame* frame) {
  for (;;) {
    if (buf_pos_ >= buf_.size()) {
      buf_.clear();
      if (!OpenNextSegment()) return false;
    }
    size_t n = ParseFrame(buf_, buf_pos_, prev_lsn_, frame);
    if (n == 0) {
      // Torn tail: count every unread byte here and in later segments, and
      // stop permanently.
      torn_bytes_ += buf_.size() - buf_pos_;
      for (size_t i = segment_idx_; i < segments_.size(); ++i) {
        struct stat st;
        if (::stat(segments_[i].c_str(), &st) == 0) {
          torn_bytes_ += static_cast<uint64_t>(st.st_size);
        }
      }
      buf_pos_ = buf_.size();
      segment_idx_ = segments_.size();
      return false;
    }
    buf_pos_ += n;
    prev_lsn_ = frame->lsn;
    return true;
  }
}

}  // namespace fivm::durability
