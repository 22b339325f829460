#ifndef FIVM_UTIL_GROUP_TABLE_H_
#define FIVM_UTIL_GROUP_TABLE_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/memory_tracker.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#define FIVM_GROUP_TABLE_SSE2 1
#endif

namespace fivm::util {

/// SwissTable-style probing core shared by every hash structure in the
/// engine (util::FlatHashMap, Relation::SlotIndex and, through FlatHashMap,
/// Relation::SecondaryIndex). One probing / growth / deletion semantics
/// instead of three.
///
/// Layout: a separate control array of one byte per slot runs parallel to
/// the slot array. A control byte is either a sentinel (empty, deleted) or
/// the 7-bit H2 tag of the slot's hash. Capacities are multiples of the
/// 16-slot group width with a power-of-two group count, and probing is
/// *group-aligned*: a probe loads one 16-byte control group at a time
/// (SSE2 `_mm_cmpeq_epi8` + movemask, or a SWAR scalar fallback) and
/// compares H2 tags for 16 candidate slots before touching any slot data.
/// Groups never straddle the table end, so no mirrored control bytes are
/// needed. The group sequence is triangular quadratic (step 1, 2, 3, …),
/// which visits every group of a power-of-two table exactly once.
///
/// H1/H2 split: both halves come from the same 64-bit hash the caller
/// already has (tuple hashes are cached, see Tuple) — H1 = hash >> 7 picks
/// the home group, H2 = hash & 0x7f is the tag byte. No extra hashing.
///
/// Deletion is tombstone-free-on-rehash: erasing a slot whose group still
/// holds an empty byte re-empties it outright (no probe chain can have
/// passed a non-full group), otherwise it leaves a tombstone that probes
/// skip; every rehash rebuilds the control array from live slots only, so
/// tombstones never survive a growth or a same-capacity purge.
inline constexpr size_t kGroupWidth = 16;

inline constexpr int8_t kCtrlEmpty = -128;  // 0b10000000
inline constexpr int8_t kCtrlDeleted = -2;  // 0b11111110

constexpr uint64_t GroupH1(uint64_t hash) { return hash >> 7; }
constexpr int8_t GroupH2(uint64_t hash) {
  return static_cast<int8_t>(hash & 0x7f);
}

/// Smallest valid table capacity (a multiple of kGroupWidth with a
/// power-of-two group count) that holds `n` slots under the 3/4 load
/// ceiling. (SwissTable's classic 7/8 was measured slower here: the
/// engine's hit path pays an extra entry-pool dereference per probe, so
/// group-overflow hops cost more than they do with inline slots; 3/4 also
/// matches the growth schedule of the cells this core replaced, and the
/// control bytes keep misses one-group cheap either way.)
constexpr size_t GroupCapacityFor(size_t n) {
  size_t cap = kGroupWidth;
  while (n * 4 > cap * 3) cap <<= 1;
  return cap;
}

/// Home group of `hash` in a table of `capacity` slots: inserting keys in
/// ascending home group sweeps the control and slot arrays sequentially
/// (BM_AbsorbHashOrdered measures that sweep).
constexpr size_t GroupHomeIndex(uint64_t hash, size_t capacity) {
  return GroupH1(hash) & (capacity / kGroupWidth - 1);
}

/// One 16-byte control group. `Match*` return a bitmask with bit i set for
/// matching byte i; iterate with `mask &= mask - 1` + countr_zero.
#if defined(FIVM_GROUP_TABLE_SSE2)
struct SseGroup {
  __m128i ctrl;

  explicit SseGroup(const int8_t* p)
      : ctrl(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))) {}

  uint32_t Match(int8_t h2) const {
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(ctrl, _mm_set1_epi8(h2))));
  }
  uint32_t MatchEmpty() const { return Match(kCtrlEmpty); }
  /// Empty and deleted are the only bytes with the sign bit set.
  uint32_t MatchEmptyOrDeleted() const {
    return static_cast<uint32_t>(_mm_movemask_epi8(ctrl));
  }
};
#endif

/// Portable fallback: two 8-byte SWAR words per group. MatchH2 may report a
/// false positive when adjacent bytes straddle the pattern; callers always
/// confirm with a full hash / key comparison, so false positives only cost
/// a wasted compare. Sentinel matches (high bit set) are exact.
struct ScalarGroup {
  uint64_t lo, hi;

  explicit ScalarGroup(const int8_t* p) {
    std::memcpy(&lo, p, 8);
    std::memcpy(&hi, p + 8, 8);
  }

  static constexpr uint64_t kLsbs = 0x0101010101010101ULL;
  static constexpr uint64_t kMsbs = 0x8080808080808080ULL;

  static uint32_t MatchWord(uint64_t w, uint8_t byte) {
    uint64_t x = w ^ (kLsbs * byte);
    uint64_t hit = (x - kLsbs) & ~x & kMsbs;
    // Compress the per-byte high bits to one bit per byte.
    uint32_t m = 0;
    while (hit != 0) {
      int b = std::countr_zero(hit);
      m |= 1u << (b / 8);
      hit &= hit - 1;
    }
    return m;
  }

  uint32_t Match(int8_t h2) const {
    uint8_t b = static_cast<uint8_t>(h2);
    return MatchWord(lo, b) | (MatchWord(hi, b) << 8);
  }
  uint32_t MatchEmpty() const {
    // Empty = 0b10000000: high bit set, bit 6 clear (deleted has bit 6 set).
    auto match = [](uint64_t w) {
      uint64_t hit = w & ~(w << 1) & kMsbs;
      uint32_t m = 0;
      while (hit != 0) {
        int b = std::countr_zero(hit);
        m |= 1u << (b / 8);
        hit &= hit - 1;
      }
      return m;
    };
    return match(lo) | (match(hi) << 8);
  }
  uint32_t MatchEmptyOrDeleted() const {
    auto match = [](uint64_t w) {
      uint64_t hit = w & kMsbs;
      uint32_t m = 0;
      while (hit != 0) {
        int b = std::countr_zero(hit);
        m |= 1u << (b / 8);
        hit &= hit - 1;
      }
      return m;
    };
    return match(lo) | (match(hi) << 8);
  }
};

#if defined(FIVM_GROUP_TABLE_SSE2)
using Group = SseGroup;
#else
using Group = ScalarGroup;
#endif

#if defined(__GNUC__) || defined(__clang__)
#define FIVM_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define FIVM_PREFETCH(addr) ((void)0)
#endif

/// The probing engine: owns the control array and a parallel slot array.
/// Hashing and key equality stay with the caller — `Find`/`FindOrInsert`
/// take the precomputed 64-bit hash plus an `eq(const Slot&)` predicate,
/// and any operation that may rehash takes a `hash_of(const Slot&)` functor
/// to re-derive slot hashes (FlatHashMap hashes the stored key;
/// Relation::SlotIndex stores the hash in the slot). All probe paths are
/// allocation-free.
///
/// Slots are default-constructed up to capacity and reset to `Slot{}` on
/// erase, so `Slot` must be default-constructible and movable; a control
/// byte, never slot state, says whether a slot is live.
template <typename Slot>
class GroupTable {
 public:
  GroupTable() = default;

  /// Moves leave the source a valid empty table: the arrays transfer, so
  /// the scalar bookkeeping must reset with them or the source would lie
  /// about storage it no longer owns (scratch-slot reuse refills
  /// moved-from tables).
  GroupTable(GroupTable&& o) noexcept
      : ctrl_(std::move(o.ctrl_)),
        slots_(std::move(o.slots_)),
        size_(o.size_),
        deleted_(o.deleted_),
        capacity_(o.capacity_),
        group_mask_(o.group_mask_) {
    o.ForgetStorage();
  }
  GroupTable& operator=(GroupTable&& o) noexcept {
    if (this == &o) return *this;
    ctrl_ = std::move(o.ctrl_);
    slots_ = std::move(o.slots_);
    size_ = o.size_;
    deleted_ = o.deleted_;
    capacity_ = o.capacity_;
    group_mask_ = o.group_mask_;
    o.ForgetStorage();
    return *this;
  }
  GroupTable(const GroupTable&) = default;
  GroupTable& operator=(const GroupTable&) = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  /// Releases all storage (vector::clear would keep the heap buffers —
  /// SlotIndex::Reset's oversized-scratch drop relies on actually freeing
  /// them).
  void Clear() {
    std::vector<int8_t>().swap(ctrl_);
    std::vector<Slot>().swap(slots_);
    ForgetStorage();
  }

  /// Empties the table but keeps the allocated arrays: the control bytes
  /// re-empty (one byte per slot — 16× cheaper than refilling 16-byte
  /// cells) and slots reset only when they own resources.
  void ResetKeepCapacity() {
    if (capacity_ == 0) return;
    if (size_ != 0 || deleted_ != 0) {
      if constexpr (!std::is_trivially_destructible_v<Slot>) {
        for (size_t i = 0; i < capacity_; ++i) {
          if (ctrl_[i] >= 0) slots_[i] = Slot{};
        }
      }
      std::memset(ctrl_.data(), static_cast<unsigned char>(kCtrlEmpty),
                  capacity_);
    }
    size_ = 0;
    deleted_ = 0;
  }

  /// Pointer to the slot whose H2 matches and `eq` accepts, or nullptr.
  /// Allocation-free; most misses cost one control-group load.
  template <typename Eq>
  Slot* Find(uint64_t hash, Eq&& eq) {
    if (size_ == 0) return nullptr;
    const int8_t h2 = GroupH2(hash);
    size_t g = GroupH1(hash) & group_mask_;
    size_t step = 0;
    // Start the home group's slot line fetch in parallel with the control
    // load + tag match: on a hit the slot load lands on an in-flight line,
    // collapsing the ctrl→slot half of the dependent chain (the entry/key
    // dereference the caller's eq performs remains the only serial hop).
    PrefetchGroupSlots(g);
    while (true) {
      Group grp(ctrl_.data() + g * kGroupWidth);
      for (uint32_t m = grp.Match(h2); m != 0; m &= m - 1) {
        size_t i = g * kGroupWidth +
                   static_cast<size_t>(std::countr_zero(m));
        if (eq(const_cast<const Slot&>(slots_[i]))) {
          FIVM_OBS_SAMPLE_PROBE(h2, step + 1);
          return &slots_[i];
        }
      }
      if (grp.MatchEmpty() != 0) {
        FIVM_OBS_SAMPLE_PROBE(h2, step + 1);
        return nullptr;
      }
      g = (g + ++step) & group_mask_;
    }
  }

  template <typename Eq>
  const Slot* Find(uint64_t hash, Eq&& eq) const {
    return const_cast<GroupTable*>(this)->Find(hash, eq);
  }

  /// Finds the slot matching (`hash`, `eq`) or claims a fresh one for it:
  /// returns {slot, true} when the caller must construct the new element
  /// into `*slot` (its control byte is already set). Growth uses `hash_of`
  /// to re-derive live slots' hashes.
  template <typename Eq, typename HashOf>
  std::pair<Slot*, bool> FindOrInsert(uint64_t hash, Eq&& eq,
                                      HashOf&& hash_of) {
    if (NeedsGrowth()) RehashForGrowth(hash_of);
    const int8_t h2 = GroupH2(hash);
    size_t g = GroupH1(hash) & group_mask_;
    size_t step = 0;
    size_t insert_at = kNpos;
    PrefetchGroupSlots(g);
    while (true) {
      Group grp(ctrl_.data() + g * kGroupWidth);
      for (uint32_t m = grp.Match(h2); m != 0; m &= m - 1) {
        size_t i = g * kGroupWidth +
                   static_cast<size_t>(std::countr_zero(m));
        if (eq(const_cast<const Slot&>(slots_[i]))) {
          FIVM_OBS_SAMPLE_PROBE(h2, step + 1);
          return {&slots_[i], false};
        }
      }
      if (insert_at == kNpos) {
        uint32_t m = grp.MatchEmptyOrDeleted();
        if (m != 0) {
          insert_at = g * kGroupWidth +
                      static_cast<size_t>(std::countr_zero(m));
        }
      }
      if (grp.MatchEmpty() != 0) {
        if (ctrl_[insert_at] == kCtrlDeleted) --deleted_;
        ctrl_[insert_at] = h2;
        ++size_;
        FIVM_OBS_SAMPLE_PROBE(h2, step + 1);
        return {&slots_[insert_at], true};
      }
      g = (g + ++step) & group_mask_;
    }
  }

  /// Claims a slot for a key the caller guarantees absent (bulk loads,
  /// rehash fills): single pass, no key comparisons.
  template <typename HashOf>
  Slot* InsertUnique(uint64_t hash, HashOf&& hash_of) {
    if (NeedsGrowth()) RehashForGrowth(hash_of);
    size_t i = FindInsertIndex(hash);
    if (ctrl_[i] == kCtrlDeleted) --deleted_;
    ctrl_[i] = GroupH2(hash);
    ++size_;
    return &slots_[i];
  }

  /// Erases the slot matching (`hash`, `eq`). Returns false when absent.
  template <typename Eq>
  bool Erase(uint64_t hash, Eq&& eq) {
    Slot* s = Find(hash, eq);
    if (s == nullptr) return false;
    EraseAt(static_cast<size_t>(s - slots_.data()));
    return true;
  }

  /// Erases slot `i` (obtained from Find): re-empty when the group still
  /// holds an empty byte — no probe chain can have continued past it —
  /// otherwise tombstone.
  void EraseAt(size_t i) {
    assert(i < capacity_ && ctrl_[i] >= 0);
    Group grp(ctrl_.data() + (i / kGroupWidth) * kGroupWidth);
    if (grp.MatchEmpty() != 0) {
      ctrl_[i] = kCtrlEmpty;
    } else {
      ctrl_[i] = kCtrlDeleted;
      ++deleted_;
    }
    slots_[i] = Slot{};
    --size_;
  }

  /// Starts the cache-line fetches a Find(hash, …) would wait on — the
  /// home group's control line and slot lines — without probing. Pipelined
  /// probe loops call this a few iterations ahead so the dependent
  /// ctrl→slot chain overlaps across independent probes.
  void PrefetchProbe(uint64_t hash) const {
    if (capacity_ == 0) return;
    size_t g = GroupH1(hash) & group_mask_;
    FIVM_PREFETCH(ctrl_.data() + g * kGroupWidth);
    PrefetchGroupSlots(g);
  }

  /// Ensures `n` live slots fit without further growth.
  template <typename HashOf>
  void Reserve(size_t n, HashOf&& hash_of) {
    size_t needed = GroupCapacityFor(n);
    if (needed > capacity_) Rehash(needed, hash_of);
  }

  /// Iterates over live slots: `fn(Slot&)` / `fn(const Slot&)`.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] >= 0) fn(slots_[i]);
    }
  }
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] >= 0) fn(const_cast<const Slot&>(slots_[i]));
    }
  }

  /// Control bytes cost 1 byte per slot on top of the slot array.
  size_t ApproxBytes() const {
    return capacity_ * (sizeof(Slot) + sizeof(int8_t));
  }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  void ForgetStorage() {
    size_ = 0;
    deleted_ = 0;
    capacity_ = 0;
    group_mask_ = 0;
  }

  /// Prefetches the first cache lines of group `g`'s slots (both lines for
  /// small slots, whose 16-slot group spans ≤ 2 lines). Cheap enough to
  /// issue unconditionally on the probe entry path; wasted only on misses
  /// that never tag-match.
  void PrefetchGroupSlots(size_t g) const {
    const char* p = reinterpret_cast<const char*>(slots_.data()) +
                    g * kGroupWidth * sizeof(Slot);
    FIVM_PREFETCH(p);
    if constexpr (sizeof(Slot) * kGroupWidth > 64) {
      FIVM_PREFETCH(p + 64);
    }
  }

  /// Growth ceiling at 3/4 occupancy (see GroupCapacityFor), counting
  /// tombstones: past it, probe chains stop terminating quickly even when
  /// few slots are live.
  bool NeedsGrowth() const {
    return capacity_ == 0 || (size_ + deleted_ + 1) * 4 > capacity_ * 3;
  }

  template <typename HashOf>
  void RehashForGrowth(HashOf&& hash_of) {
    // When live slots would fit in half the ceiling, the table is mostly
    // tombstones: purge them at the same capacity instead of doubling.
    size_t new_capacity;
    if (capacity_ > 0 && (size_ + 1) * 8 <= capacity_ * 3) {  // ≤ 3/8 live
      new_capacity = capacity_;
    } else {
      new_capacity = capacity_ == 0 ? kGroupWidth : capacity_ * 2;
    }
    Rehash(new_capacity, hash_of);
  }

  /// First empty-or-deleted index on `hash`'s probe sequence.
  size_t FindInsertIndex(uint64_t hash) const {
    size_t g = GroupH1(hash) & group_mask_;
    size_t step = 0;
    while (true) {
      Group grp(ctrl_.data() + g * kGroupWidth);
      uint32_t m = grp.MatchEmptyOrDeleted();
      if (m != 0) {
        return g * kGroupWidth + static_cast<size_t>(std::countr_zero(m));
      }
      g = (g + ++step) & group_mask_;
    }
  }

  template <typename HashOf>
  void Rehash(size_t new_capacity, HashOf&& hash_of) {
    assert(new_capacity % kGroupWidth == 0 &&
           std::has_single_bit(new_capacity / kGroupWidth));
    MemoryTracker::RecordRehash();
    std::vector<int8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    size_t old_capacity = capacity_;

    capacity_ = new_capacity;
    group_mask_ = capacity_ / kGroupWidth - 1;
    ctrl_.assign(capacity_, kCtrlEmpty);
    slots_.clear();
    slots_.resize(capacity_);
    deleted_ = 0;  // tombstone-free: only live slots carry over

    for (size_t i = 0; i < old_capacity; ++i) {
      if (old_ctrl[i] >= 0) {
        uint64_t h = hash_of(const_cast<const Slot&>(old_slots[i]));
        size_t j = FindInsertIndex(h);
        ctrl_[j] = GroupH2(h);
        slots_[j] = std::move(old_slots[i]);
      }
    }
  }

  std::vector<int8_t> ctrl_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t deleted_ = 0;
  size_t capacity_ = 0;
  size_t group_mask_ = 0;
};

}  // namespace fivm::util

#endif  // FIVM_UTIL_GROUP_TABLE_H_
