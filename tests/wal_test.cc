// WAL mechanics: frame round-trips, LSN/update-index continuity across
// reopen, segment rotation and truncation GC, and — the crash-critical
// paths — torn-tail discard at every possible mid-frame cut and CRC
// corruption detection. The tear tests byte-chop a real segment at each
// offset and assert recovery keeps exactly the frames before the tear.

#include "src/durability/wal.h"

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/rings/ring.h"
#include "src/util/fail_point.h"
#include "src/util/rng.h"

namespace fivm::durability {
namespace {

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "/tmp/fivm_wal_%s_%d_XXXXXX", tag,
                  static_cast<int>(::getpid()));
    dir_ = ::mkdtemp(buf);
  }
  ~TempDir() {
    if (dir_.empty()) return;
    std::string cmd = "rm -rf " + dir_;
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

// Appends `n` deterministic updates across two relations and seals once per
// `per_seal` updates. Returns the expected (relation, key-int, payload)
// stream.
struct Update {
  int relation;
  int64_t key;
  int64_t payload;
};

std::vector<Update> MakeStream(int n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Update> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(Update{static_cast<int>(rng.UniformInt(0, 1)),
                         rng.UniformInt(0, 1000),
                         rng.UniformInt(1, 9)});
  }
  return out;
}

void AppendStream(WalWriter* w, const std::vector<Update>& stream,
                  size_t per_seal) {
  size_t in_window = 0;
  for (const Update& u : stream) {
    w->Append<I64Ring>(u.relation, Tuple::Ints({u.key}), u.payload);
    if (++in_window >= per_seal) {
      w->Seal(/*sync=*/true);
      in_window = 0;
    }
  }
  if (in_window > 0) w->Seal(/*sync=*/true);
}

/// The on-log order of `stream` sealed in windows of `per_seal`: one frame
/// per touched relation per window, relations in first-touch order, updates
/// of a relation in arrival order. (Cross-relation interleaving inside one
/// window is intentionally not preserved by the frame format.)
std::vector<Update> SealedOrder(const std::vector<Update>& stream,
                                size_t per_seal) {
  std::vector<Update> out;
  out.reserve(stream.size());
  for (size_t w = 0; w < stream.size(); w += per_seal) {
    size_t end = std::min(stream.size(), w + per_seal);
    std::vector<int> touch_order;
    for (size_t i = w; i < end; ++i) {
      bool seen = false;
      for (int r : touch_order) seen = seen || r == stream[i].relation;
      if (!seen) touch_order.push_back(stream[i].relation);
    }
    for (int r : touch_order) {
      for (size_t i = w; i < end; ++i) {
        if (stream[i].relation == r) out.push_back(stream[i]);
      }
    }
  }
  return out;
}

// Reads the whole log back into a flat update stream (LSN order).
std::vector<Update> ReadStream(const std::string& dir, WalReader* reader) {
  WalReader local(dir);
  WalReader* r = reader != nullptr ? reader : &local;
  std::vector<Update> out;
  WalFrame frame;
  while (r->Next(&frame)) {
    bool ok = DecodeFrameUpdates<I64Ring>(
        frame, [&](Tuple&& key, int64_t&& payload) {
          out.push_back(Update{frame.relation, key[0].AsInt(), payload});
        });
    EXPECT_TRUE(ok);
  }
  return out;
}

bool SameStream(const std::vector<Update>& a, const std::vector<Update>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].relation != b[i].relation || a[i].key != b[i].key ||
        a[i].payload != b[i].payload) {
      return false;
    }
  }
  return true;
}

TEST(WalTest, FrameRoundTripAndGrouping) {
  TempDir td("rt");
  WalWriter::Options opt;
  WalWriter w(td.path(), opt);
  // One window touching two relations → two frames, one fsync.
  w.Append<I64Ring>(0, Tuple::Ints({1}), 7);
  w.Append<I64Ring>(0, Tuple::Ints({2}), -3);
  w.Append<I64Ring>(1, Tuple::Ints({9}), 5);
  EXPECT_TRUE(w.HasPending());
  uint64_t lsn = w.Seal(true);
  EXPECT_EQ(lsn, 2u);  // two frames sealed, LSNs 1 and 2
  EXPECT_FALSE(w.HasPending());
  EXPECT_EQ(w.stats().frames_written, 2u);
  EXPECT_EQ(w.stats().fsyncs, 1u);
  EXPECT_EQ(w.next_update_index(), 3u);

  WalReader r(td.path());
  WalFrame f;
  ASSERT_TRUE(r.Next(&f));
  EXPECT_EQ(f.lsn, 1u);
  EXPECT_EQ(f.relation, 0);
  EXPECT_EQ(f.tuple_count, 2u);
  EXPECT_EQ(f.first_update_index, 0u);
  EXPECT_FALSE(f.window_commit);  // not the last frame of its group
  std::vector<std::pair<int64_t, int64_t>> got;
  EXPECT_TRUE(DecodeFrameUpdates<I64Ring>(f, [&](Tuple&& k, int64_t&& p) {
    got.emplace_back(k[0].AsInt(), p);
  }));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int64_t, int64_t>{1, 7}));
  EXPECT_EQ(got[1], (std::pair<int64_t, int64_t>{2, -3}));
  ASSERT_TRUE(r.Next(&f));
  EXPECT_EQ(f.lsn, 2u);
  EXPECT_EQ(f.relation, 1);
  EXPECT_EQ(f.first_update_index, 2u);
  EXPECT_TRUE(f.window_commit);  // group's final frame commits the window
  EXPECT_FALSE(r.Next(&f));
  EXPECT_FALSE(r.saw_torn_tail());
}

TEST(WalTest, ReopenResumesNumbering) {
  TempDir td("reopen");
  auto stream = MakeStream(100, 11);
  {
    WalWriter w(td.path(), {});
    AppendStream(&w, stream, 7);
  }
  WalWriter w2(td.path(), {});
  EXPECT_EQ(w2.next_update_index(), 100u);
  uint64_t resumed_lsn = w2.next_lsn();
  w2.Append<I64Ring>(0, Tuple::Ints({42}), 1);
  EXPECT_EQ(w2.Seal(true), resumed_lsn);
  auto back = ReadStream(td.path(), nullptr);
  auto expected = SealedOrder(stream, 7);
  expected.push_back(Update{0, 42, 1});
  EXPECT_TRUE(SameStream(back, expected));
}

TEST(WalTest, RotationSplitsSegmentsReaderSpansThem) {
  TempDir td("rot");
  WalWriter::Options opt;
  opt.max_segment_bytes = 256;  // force frequent rotation
  auto stream = MakeStream(200, 12);
  WalWriter w(td.path(), opt);
  AppendStream(&w, stream, 5);
  EXPECT_GT(w.stats().rotations, 3u);
  EXPECT_GT(ListWalSegments(td.path()).size(), 4u);
  EXPECT_TRUE(
      SameStream(ReadStream(td.path(), nullptr), SealedOrder(stream, 5)));
}

TEST(WalTest, TruncateBelowUnlinksCoveredSegments) {
  TempDir td("trunc");
  WalWriter::Options opt;
  opt.max_segment_bytes = 256;
  auto stream = MakeStream(200, 13);
  WalWriter w(td.path(), opt);
  AppendStream(&w, stream, 5);
  size_t before = ListWalSegments(td.path()).size();
  ASSERT_GT(before, 4u);

  // Truncate below the midpoint LSN: early segments go, the suffix (and
  // the active segment) stay, and the surviving log still chains.
  uint64_t mid = w.last_sealed_lsn() / 2;
  w.TruncateBelow(mid);
  size_t after = ListWalSegments(td.path()).size();
  EXPECT_LT(after, before);
  EXPECT_GE(w.stats().truncations, 1u);

  WalReader r(td.path());
  WalFrame f;
  uint64_t first_lsn = 0, last_lsn = 0, frames = 0;
  while (r.Next(&f)) {
    if (frames == 0) first_lsn = f.lsn;
    last_lsn = f.lsn;
    ++frames;
  }
  EXPECT_FALSE(r.saw_torn_tail());
  EXPECT_LE(first_lsn, mid + 1);  // nothing above the cover point was lost
  EXPECT_EQ(last_lsn, w.last_sealed_lsn());
  // Truncating everything never unlinks the active segment.
  w.TruncateBelow(w.last_sealed_lsn());
  EXPECT_GE(ListWalSegments(td.path()).size(), 1u);
}

// The acceptance-criteria test: chop the log at EVERY byte offset inside
// its final segment and assert (a) the reader reports a torn tail and
// yields exactly the frames wholly before the cut, (b) a reopened writer
// physically truncates back to the last *committed window* — a cut that
// lands between the frames of one window's group discards the whole group.
TEST(WalTest, TornTailDiscardedAtEveryCut) {
  TempDir pristine("tear_src");
  auto raw = MakeStream(30, 14);
  auto stream = SealedOrder(raw, 3);  // on-log update order
  {
    WalWriter w(pristine.path(), {});
    AppendStream(&w, raw, 3);  // 10 windows → 10+ frames
  }
  auto segments = ListWalSegments(pristine.path());
  ASSERT_EQ(segments.size(), 1u);
  struct stat st;
  ASSERT_EQ(::stat(segments[0].c_str(), &st), 0);
  const size_t file_size = static_cast<size_t>(st.st_size);

  // Frame boundaries, to compute how many updates survive a given cut.
  std::vector<size_t> frame_ends;
  std::vector<size_t> updates_at_end;  // cumulative updates at that boundary
  std::vector<bool> commit_at;         // frame carries the window-commit bit
  {
    WalReader r(pristine.path());
    WalFrame f;
    size_t off = 0, updates = 0;
    while (r.Next(&f)) {
      off += kWalHeaderBytes + f.payload.size() + kWalTrailerBytes;
      updates += f.tuple_count;
      frame_ends.push_back(off);
      updates_at_end.push_back(updates);
      commit_at.push_back(f.window_commit);
    }
    ASSERT_EQ(off, file_size);
    ASSERT_TRUE(commit_at.back());  // log ends on a committed window
  }

  for (size_t cut = 0; cut < file_size; ++cut) {
    TempDir td("tear");
    std::string seg_copy =
        td.path() + segments[0].substr(segments[0].find_last_of('/'));
    {
      std::string cmd = "head -c " + std::to_string(cut) + " " + segments[0] +
                        " > " + seg_copy;
      ASSERT_EQ(std::system(cmd.c_str()), 0);
    }
    size_t whole_frames = 0;
    while (whole_frames < frame_ends.size() &&
           frame_ends[whole_frames] <= cut) {
      ++whole_frames;
    }
    const size_t expect_updates =
        whole_frames == 0 ? 0 : updates_at_end[whole_frames - 1];
    // The writer resumes at the last committed frame among the whole ones;
    // trailing uncommitted frames of a half-sealed window are discarded.
    size_t commit_updates = 0, commit_end = 0;
    bool any_commit = false;
    for (size_t i = 0; i < whole_frames; ++i) {
      if (commit_at[i]) {
        any_commit = true;
        commit_updates = updates_at_end[i];
        commit_end = frame_ends[i];
      }
    }

    // Reader: only the torn suffix is discarded, every whole frame reads.
    WalReader r(td.path());
    WalFrame f;
    size_t read_updates = 0, read_frames = 0;
    while (r.Next(&f)) {
      ++read_frames;
      read_updates += f.tuple_count;
    }
    EXPECT_EQ(read_frames, whole_frames) << "cut=" << cut;
    EXPECT_EQ(read_updates, expect_updates) << "cut=" << cut;
    if (cut > (whole_frames == 0 ? 0 : frame_ends[whole_frames - 1])) {
      EXPECT_TRUE(r.saw_torn_tail()) << "cut=" << cut;
    }

    // Writer reopen: truncates to the last committed window and resumes
    // numbering there; the stream prefix survives bit-exact.
    WalWriter w(td.path(), {});
    EXPECT_EQ(w.next_update_index(), commit_updates) << "cut=" << cut;
    struct stat st2;
    if (::stat(seg_copy.c_str(), &st2) == 0) {
      EXPECT_TRUE(any_commit) << "cut=" << cut;
      EXPECT_EQ(static_cast<size_t>(st2.st_size), commit_end)
          << "cut=" << cut;
    } else {
      // No committed window survived the cut → whole segment unlinked.
      EXPECT_FALSE(any_commit) << "cut=" << cut;
    }
    std::vector<Update> expected(stream.begin(),
                                 stream.begin() +
                                     static_cast<long>(commit_updates));
    EXPECT_TRUE(SameStream(ReadStream(td.path(), nullptr), expected))
        << "cut=" << cut;
  }
}

TEST(WalTest, CrcCorruptionStopsReplay) {
  TempDir td("crc");
  auto raw = MakeStream(30, 15);
  auto stream = SealedOrder(raw, 3);  // on-log update order
  {
    WalWriter w(td.path(), {});
    AppendStream(&w, raw, 3);
  }
  auto segments = ListWalSegments(td.path());
  ASSERT_EQ(segments.size(), 1u);
  // Flip one payload byte in the middle of the file.
  FILE* fp = std::fopen(segments[0].c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 0, SEEK_END);
  long size = std::ftell(fp);
  std::fseek(fp, size / 2, SEEK_SET);
  int c = std::fgetc(fp);
  std::fseek(fp, size / 2, SEEK_SET);
  std::fputc(c ^ 0x40, fp);
  std::fclose(fp);

  WalReader r(td.path());
  WalFrame f;
  size_t updates = 0;
  while (r.Next(&f)) updates += f.tuple_count;
  EXPECT_TRUE(r.saw_torn_tail());
  EXPECT_GT(r.torn_bytes(), 0u);
  EXPECT_LT(updates, stream.size());  // corrupt frame and suffix dropped
  // The surviving prefix is still the true prefix.
  std::vector<Update> expected(stream.begin(), stream.begin() + updates);
  EXPECT_TRUE(SameStream(ReadStream(td.path(), nullptr), expected));
}

TEST(WalTest, InjectedAppendFaultRollsBackCleanly) {
  TempDir td("fault");
  WalWriter w(td.path(), {});
  w.Append<I64Ring>(0, Tuple::Ints({1}), 1);
  util::FailPointRegistry::Default().ArmNth("wal.append", 1);
  EXPECT_THROW(w.Seal(true), util::InjectedFault);
  // The throw rolled the segment back to the frame boundary and kept the
  // frame pending: a plain retry seals it.
  EXPECT_TRUE(w.HasPending());
  util::FailPointRegistry::Default().DisarmAll();
  w.Seal(true);
  EXPECT_FALSE(w.HasPending());
  auto back = ReadStream(td.path(), nullptr);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].key, 1);
  WalReader r(td.path());
  WalFrame f;
  while (r.Next(&f)) {
  }
  EXPECT_FALSE(r.saw_torn_tail());
}

TEST(WalTest, DropPendingSheds) {
  TempDir td("drop");
  WalWriter w(td.path(), {});
  w.Append<I64Ring>(0, Tuple::Ints({1}), 1);
  w.DropPending();
  EXPECT_FALSE(w.HasPending());
  EXPECT_EQ(w.Seal(true), 0u);  // nothing sealed
  EXPECT_EQ(w.stats().frames_written, 0u);
}

}  // namespace
}  // namespace fivm::durability
