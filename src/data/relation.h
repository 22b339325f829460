#ifndef FIVM_DATA_RELATION_H_
#define FIVM_DATA_RELATION_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/data/schema.h"
#include "src/data/tuple.h"
#include "src/rings/ring.h"
#include "src/util/flat_hash_map.h"
#include "src/util/group_table.h"
#include "src/util/small_vector.h"

namespace fivm {

/// A relation over a ring: a finite map from tuples (keys) over `schema` to
/// non-zero ring payloads (Section 2 of the paper). This is the storage unit
/// of base relations, views, and deltas.
///
/// Storage model: a key/payload-*split* entry pool (SoA) + primary hash
/// index + lazily built secondary indexes over key prefixes
/// (DBToaster-style multi-indexed map). Slot `i`'s key lives in `keys_[i]`
/// (the Tuple carries its cached 64-bit hash inline) and its ring payload in
/// `payloads_[i]` — two parallel arrays with a stable 1:1 slot mapping.
/// The split exists for the payload-heavy passes: zero-sweeps, absorb
/// merges, and ring accumulation stream the payload pool without dragging
/// 64-byte tuple keys through cache, and the wide-double ring kernels
/// (src/util/simd.h) then run over contiguous payload storage. Index probes
/// conversely touch only the key array until a hit needs its payload.
///
/// The allocation-free probe path (TupleView + heterogeneous lookup) relies
/// on the following invariants:
///
///  - *Slot stability*: an entry's slot (its position in the parallel
///    arrays) never changes while the relation is alive, except across
///    compaction, which renumbers slots and rebuilds every index. Probe
///    results (slot lists) are therefore valid only until the next Add().
///  - *Tombstone skipping*: entries whose payload becomes zero are
///    tombstoned lazily — they stay in the pool and in all indexes;
///    iteration and `Find` skip them, and secondary-index probe results may
///    include them, so probe loops must test `Ring::IsZero` per slot.
///  - *Hash caching*: every stored key carries its 64-bit hash (computed
///    once at construction, see Tuple); index probes, inserts, rehashes and
///    compaction reuse it and never re-scan key values. A TupleView probe
///    key computes its hash once at view construction and must fold the
///    same value hashes in the same order as the owning Tuple would.
///
/// `CompactionThreshold` triggers a rebuild when dead entries dominate.
template <typename Ring>
  requires RingPolicy<Ring>
class Relation {
 public:
  using Element = typename Ring::Element;

  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  /// Copies contents but not secondary indexes (they rebuild lazily).
  Relation(const Relation& other)
      : schema_(other.schema_),
        keys_(other.keys_),
        payloads_(other.payloads_),
        index_(other.index_),
        live_(other.live_) {}

  /// Clone-with-headroom: copies `other`'s *live* contents with the pool
  /// arrays and primary index sized for other.size() + extra_capacity keys
  /// up front. This is the generation clone of the versioned read path
  /// (src/serve/): the next generation absorbs its differential at one
  /// final index capacity — no mid-merge growth rehash — and tombstones
  /// are dropped in the same pass. Secondary indexes are not copied.
  Relation(const Relation& other, size_t extra_capacity)
      : schema_(other.schema_) {
    Reserve(other.size() + extra_capacity);
    other.ForEach(
        [this](const Tuple& k, const Element& p) { AddImpl(k, p); });
  }

  Relation& operator=(const Relation& other) {
    if (this == &other) return *this;
    schema_ = other.schema_;
    keys_ = other.keys_;
    payloads_ = other.payloads_;
    index_ = other.index_;
    secondary_.clear();
    secondary_by_schema_.clear();
    live_ = other.live_;
    return *this;
  }

  /// Moves leave the source a valid *empty* relation (not just
  /// moved-from): the scalar bookkeeping (live_, and the index/map sizes
  /// inside the members) would otherwise survive the member-wise move and
  /// lie about emptied storage — the same hazard SlotIndex's move guards
  /// against one level down. Scratch-slot reuse Reset()s and refills
  /// surrendered relations, so the source must stay coherent.
  Relation(Relation&& o) noexcept
      : schema_(std::move(o.schema_)),
        keys_(std::move(o.keys_)),
        payloads_(std::move(o.payloads_)),
        index_(std::move(o.index_)),
        secondary_(std::move(o.secondary_)),
        secondary_by_schema_(std::move(o.secondary_by_schema_)),
        live_(o.live_) {
    o.Clear();
  }
  Relation& operator=(Relation&& o) noexcept {
    if (this == &o) return *this;
    schema_ = std::move(o.schema_);
    keys_ = std::move(o.keys_);
    payloads_ = std::move(o.payloads_);
    index_ = std::move(o.index_);
    secondary_ = std::move(o.secondary_);
    secondary_by_schema_ = std::move(o.secondary_by_schema_);
    live_ = o.live_;
    o.Clear();
    return *this;
  }

  const Schema& schema() const { return schema_; }

  /// Number of keys with non-zero payload.
  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Number of distinct keys in the entry pool, including keys whose
  /// payloads cancelled to zero (size() excludes those). KeyPoolSize() -
  /// size() is the cancellation count of an accumulator relation — what
  /// the DeltaBatcher reports as coalesced-away keys.
  size_t KeyPoolSize() const { return keys_.size(); }

  /// Entry-pool slots allocated: a relation absorbs up to
  /// KeyPoolCapacity() - KeyPoolSize() new keys without regrowing its pool.
  size_t KeyPoolCapacity() const { return keys_.capacity(); }

  /// Pre-sizes the entry pool and the primary index for `n` keys, so a
  /// bulk of Add() calls proceeds without rehashing or reallocating.
  void Reserve(size_t n) {
    keys_.reserve(n);
    payloads_.reserve(n);
    index_.Reserve(n);
  }

  /// Presizes for absorbing up to `added` more keys: the index grows to its
  /// final capacity up front (so a bulk absorb never rehashes mid-stream),
  /// while the pool arrays grow geometrically — an exact reserve per absorb
  /// would defeat the doubling guarantee and turn repeated absorbs
  /// quadratic.
  void ReserveForAbsorb(size_t added) {
    size_t needed = keys_.size() + added;
    if (needed > keys_.capacity()) {
      size_t target = std::max(needed, keys_.capacity() * 2);
      keys_.reserve(target);
      payloads_.reserve(target);
    }
    index_.Reserve(keys_.size() + added);
  }

  /// Primary key index: the shared SwissTable core (util::GroupTable) over
  /// 8-byte {slot, low hash bits} cells. Keys live only in the key pool;
  /// the index stores no key copy and only the low 32 bits of the cached
  /// key hash — which contain the 7-bit H2 tag (bits 0-6) and 25 bits of
  /// H1 (bits 7-31), enough to re-derive a cell's home group and tag at any
  /// capacity this engine reaches (up to 2^25 groups = half a billion
  /// slots), so rehashes stay a sequential cell-array pass that never
  /// touches entries. A probe scans one 16-byte control group for the H2
  /// tag, confirms tag matches against the cell's 32 hash bits, and loads
  /// the pool key only when those agree (a true hit — Tuple::operator==
  /// then re-checks the full cached hash first — or a ~2^-32 coincidence);
  /// a miss usually never leaves the control array, and with the split pool
  /// a probe never touches payload storage at all. At 9 bytes per slot the
  /// index is ~1.9× denser than the {64-bit hash, slot} cells it replaces,
  /// which keeps both index lines cache-resident against multi-megabyte
  /// stores. There is no deletion: zero-payload entries are tombstoned in
  /// place and dropped at compaction, which rebuilds the index from
  /// scratch.
  class SlotIndex {
   public:
    static constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

    /// Moves leave the source a valid *empty* index (GroupTable's move
    /// resets the source's bookkeeping with the transferred arrays —
    /// scratch-slot reuse Reset()s and refills moved-from relations).
    SlotIndex() = default;
    SlotIndex(const SlotIndex&) = default;
    SlotIndex& operator=(const SlotIndex&) = default;
    SlotIndex(SlotIndex&&) noexcept = default;
    SlotIndex& operator=(SlotIndex&&) noexcept = default;

    void clear() { table_.Clear(); }

    /// Cells retained across Reset: above this, the table is dropped
    /// instead of re-emptied — a slot that once served a huge batch must
    /// not pin megabytes of scratch for the owner's lifetime.
    static constexpr size_t kResetKeepCells = size_t{1} << 14;

    /// Empties the index, keeping the allocated arrays when moderately
    /// sized, so a reused scratch relation refills without reallocating or
    /// growth-rehashing. Re-emptying costs one control-byte memset (1
    /// byte/slot); cells need no clearing — a slot is live only when its
    /// control byte says so.
    void Reset() {
      size_t capacity = table_.capacity();
      if (capacity == 0) return;
      // Drop the table instead when it is oversized for the owner's
      // lifetime, or grossly oversized for the *last* fill (<1/8
      // occupancy): after one batch spike, at most one reset pays the
      // full-capacity refill before the table resizes back down.
      if (capacity > kResetKeepCells ||
          (capacity > 1024 && table_.size() * 8 < capacity)) {
        table_.Clear();
        return;
      }
      table_.ResetKeepCapacity();
    }

    /// Largest supported capacity: past 2^29 slots (2^25 groups) the 25 H1
    /// bits stored in hash_lo could no longer reproduce a cell's home
    /// group at rehash time, silently unfinding keys. Asserted after every
    /// growth-capable operation so the documented limit fails loudly.
    static constexpr size_t kMaxCells = size_t{1} << 29;

    void Reserve(size_t n) {
      table_.Reserve(n, CellHash);
      assert(table_.capacity() <= kMaxCells);
    }

    /// Slot of the entry whose key equals `key`, or kNoSlot. `key` may be a
    /// Tuple or a TupleView; either way its hash is already cached, and the
    /// stored side's hash lives in the pool key (compared first by
    /// Tuple::operator==).
    template <typename K>
    uint32_t Lookup(const K& key, const std::vector<Tuple>& keys) const {
      uint64_t h = key.Hash();
      const uint32_t h_lo = static_cast<uint32_t>(h);
      const Cell* c = table_.Find(h, [&](const Cell& cell) {
        return cell.hash_lo == h_lo && keys[cell.slot] == key;
      });
      return c == nullptr ? kNoSlot : c->slot;
    }

    /// One-pass find-or-insert: returns the slot already indexed under
    /// `key`, or records `new_slot` for it and returns kNoSlot (the caller
    /// then appends the entry at `new_slot`). Probes once where the old
    /// Lookup-then-Insert pair probed twice.
    template <typename K>
    uint32_t LookupOrInsert(const K& key, const std::vector<Tuple>& keys,
                            uint32_t new_slot) {
      uint64_t h = key.Hash();
      const uint32_t h_lo = static_cast<uint32_t>(h);
      auto [cell, inserted] = table_.FindOrInsert(
          h,
          [&](const Cell& c) {
            return c.hash_lo == h_lo && keys[c.slot] == key;
          },
          CellHash);
      assert(table_.capacity() <= kMaxCells);
      if (!inserted) return cell->slot;
      *cell = Cell{new_slot, h_lo};
      return kNoSlot;
    }

    /// Starts the line fetches a Lookup of `hash` would wait on.
    void PrefetchProbe(uint64_t hash) const { table_.PrefetchProbe(hash); }

    size_t ApproxBytes() const { return table_.ApproxBytes(); }

   private:
    struct Cell {
      uint32_t slot;
      uint32_t hash_lo;  // low 32 bits of the key hash: H2 + 25 H1 bits
    };

    // Rehash placement needs only the home group and tag, both contained
    // in the stored low hash bits (valid while capacity ≤ 2^29 slots);
    // entries are never touched.
    static uint64_t CellHash(const Cell& c) {
      return static_cast<uint64_t>(c.hash_lo);
    }

    util::GroupTable<Cell> table_;
  };

  /// Adds `delta` to the payload of `key` (⊎ of a singleton). Creates the
  /// entry if absent; tombstones it if the payload becomes zero. Key and
  /// payload are both perfect-forwarded: rvalues move into the pool, and a
  /// payload passed by const reference is only *read* on the hit path
  /// (Ring::AddInPlace) — the propagation term loops pass a reused scratch
  /// element and pay no copy unless the key is new. `delta` must not alias
  /// a payload stored in this relation.
  template <typename E = Element>
  void Add(const Tuple& key, E&& delta) {
    AddImpl(key, std::forward<E>(delta));
  }
  template <typename E = Element>
  void Add(Tuple&& key, E&& delta) {
    AddImpl(std::move(key), std::forward<E>(delta));
  }

  /// Returns the payload of `key`, or nullptr if absent/zero. Also accepts
  /// a TupleView (allocation-free heterogeneous probe).
  template <typename K>
  const Element* Find(const K& key) const {
    uint32_t slot = index_.Lookup(key, keys_);
    if (slot == SlotIndex::kNoSlot) return nullptr;
    const Element& p = payloads_[slot];
    return Ring::IsZero(p) ? nullptr : &p;
  }

  template <typename K>
  bool Contains(const K& key) const {
    return Find(key) != nullptr;
  }

  /// Starts the primary-index line fetches a Find of a key hashing to
  /// `hash` would wait on. Join loops prefetch a few probes ahead so
  /// independent probes' memory latency overlaps (software pipelining);
  /// see the full-key paths in relation_ops.h.
  void PrefetchFind(uint64_t hash) const { index_.PrefetchProbe(hash); }

  /// Iterates over live entries: `fn(const Tuple&, const Element&)`. The
  /// zero test streams the payload pool; keys are touched only for live
  /// slots.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t n = keys_.size();
    for (size_t i = 0; i < n; ++i) {
      if (!Ring::IsZero(payloads_[i])) fn(keys_[i], payloads_[i]);
    }
  }

  /// ⊎: adds every entry of `other` into this relation.
  void UnionWith(const Relation& other) {
    other.ForEach([&](const Tuple& k, const Element& p) { Add(k, p); });
  }

  /// The destructively extracted entry pool of a relation: parallel
  /// key/payload arrays (live entries and tombstones alike; consumers must
  /// skip zero payloads).
  struct Pool {
    std::vector<Tuple> keys;
    std::vector<Element> payloads;
  };

  /// Destructively extracts the entry pool and clears the relation. The
  /// move-aware absorb/reorder paths use this to re-home keys and payloads
  /// without copying them; payload-only passes over the extracted pool
  /// stream just the payload array.
  Pool TakePool() {
    Pool out{std::move(keys_), std::move(payloads_)};
    Clear();
    return out;
  }

  void Clear() {
    keys_.clear();
    payloads_.clear();
    index_.clear();
    secondary_.clear();
    secondary_by_schema_.clear();
    live_ = 0;
  }

  /// Pool storage retained across Reset, as a byte budget (payloads are
  /// ring-dependent and keys 64 bytes, so the bound is on bytes, not
  /// counts; it keeps about 3.6k I64Ring entries of 64 + 8 bytes).
  static constexpr size_t kResetKeepEntryBytes = size_t{1} << 18;  // 256 KB

  /// Empties the relation and retargets it to `schema`, keeping the pool
  /// arrays' and the primary index's allocated capacity (up to the
  /// SlotIndex::kResetKeepCells shrink guard — one outsized batch must not
  /// pin max-sized scratch forever). This is what makes a plan scratch slot
  /// reusable across propagation steps and batches: the next fill proceeds
  /// without reallocating or growth-rehashing. Secondary indexes are
  /// dropped (scratch relations are probe sources, not targets).
  void Reset(const Schema& schema) {
    schema_ = schema;
    if (keys_.capacity() * sizeof(Tuple) +
            payloads_.capacity() * sizeof(Element) >
        kResetKeepEntryBytes) {
      keys_ = std::vector<Tuple>();
      payloads_ = std::vector<Element>();
    } else {
      keys_.clear();
      payloads_.clear();
    }
    index_.Reset();
    secondary_.clear();
    secondary_by_schema_.clear();
    live_ = 0;
  }

  /// A secondary hash index over a projection of the key. Probing yields the
  /// slots of all (live and dead) entries whose projection matches; callers
  /// must skip zero payloads.
  class SecondaryIndex {
   public:
    SecondaryIndex(const Schema& full, const Schema& sub)
        : sub_schema_(sub), positions_(full.PositionsOf(sub)) {}

    const Schema& sub_schema() const { return sub_schema_; }

    void Append(const Tuple& full_key, uint32_t slot) {
      buckets_[full_key.Project(positions_)].push_back(slot);
    }

    /// Slots of entries matching the projected key, or nullptr. Accepts an
    /// owning Tuple or a borrowed TupleView; the view probe performs no
    /// heap allocation.
    template <typename K>
    const util::SmallVector<uint32_t, 2>* Probe(const K& sub_key) const {
      return buckets_.Find(sub_key);
    }

    size_t ApproxBytes() const { return buckets_.ApproxBytes(); }

   private:
    friend class Relation;
    Schema sub_schema_;
    util::SmallVector<uint32_t, 6> positions_;
    util::FlatHashMap<Tuple, util::SmallVector<uint32_t, 2>, TupleHash>
        buckets_;
  };

  /// Returns (building on first use) the secondary index on `sub` ⊆ schema.
  /// The index is maintained by subsequent Add() calls and located in O(1)
  /// through a schema-keyed cache. Logically const: index construction does
  /// not change relation contents.
  const SecondaryIndex& IndexOn(const Schema& sub) const {
    if (const uint32_t* pos = secondary_by_schema_.Find(sub)) {
      return *secondary_[*pos];
    }
    auto sec = std::make_unique<SecondaryIndex>(schema_, sub);
    for (uint32_t slot = 0; slot < keys_.size(); ++slot) {
      sec->Append(keys_[slot], slot);
    }
    secondary_by_schema_.Insert(sub,
                                static_cast<uint32_t>(secondary_.size()));
    secondary_.push_back(std::move(sec));
    return *secondary_.back();
  }

  /// Number of secondary indexes currently built (lazily via IndexOn or
  /// eagerly via plan-derived prewarming). Lets tests assert that a compiled
  /// plan prewarmed exactly the indexes propagation probes — no lazy build
  /// happens on the (concurrent) propagation path.
  size_t SecondaryIndexCount() const { return secondary_.size(); }

  /// True when a secondary index on `sub` has already been built. Unlike
  /// IndexOn, never builds.
  bool HasIndexOn(const Schema& sub) const {
    return secondary_by_schema_.Find(sub) != nullptr;
  }

  /// Key / payload of entry slot `slot` (live or tombstoned — callers on
  /// probe paths test Ring::IsZero on the payload first, which touches only
  /// the payload pool).
  const Tuple& KeyAt(uint32_t slot) const { return keys_[slot]; }
  const Element& PayloadAt(uint32_t slot) const { return payloads_[slot]; }

  /// Number of entry slots including tombstones (for index probing).
  size_t SlotCount() const { return keys_.size(); }

  /// Approximate heap footprint of the entry pool plus all indexes.
  size_t ApproxBytes() const {
    size_t bytes = index_.ApproxBytes();
    for (const auto& sec : secondary_) bytes += sec->ApproxBytes();
    bytes += keys_.capacity() * sizeof(Tuple);
    bytes += payloads_.capacity() * sizeof(Element);
    for (const Element& p : payloads_) bytes += Ring::ApproxBytes(p);
    for (const Tuple& k : keys_) {
      if (k.size() > Tuple::kInlineValues) bytes += k.size() * sizeof(Value);
    }
    return bytes;
  }

 private:
  template <typename K, typename E>
  void AddImpl(K&& key, E&& delta) {
    if (Ring::IsZero(delta)) return;
    uint32_t new_slot = static_cast<uint32_t>(keys_.size());
    uint32_t slot = index_.LookupOrInsert(key, keys_, new_slot);
    if (slot != SlotIndex::kNoSlot) {
      Element& p = payloads_[slot];
      bool was_zero = Ring::IsZero(p);
      Ring::AddInPlace(p, delta);
      bool is_zero = Ring::IsZero(p);
      if (was_zero && !is_zero) ++live_;
      if (!was_zero && is_zero) {
        --live_;
        MaybeCompact();
      }
      return;
    }
    // The index already records new_slot (one probe for lookup + insert);
    // fill the pool slot it points at.
    keys_.push_back(std::forward<K>(key));
    payloads_.push_back(std::forward<E>(delta));
    for (auto& sec : secondary_) {
      sec->Append(keys_[new_slot], new_slot);
    }
    ++live_;
  }

  void MaybeCompact() {
    size_t dead = keys_.size() - live_;
    if (keys_.size() < 64 || dead * 2 < keys_.size()) return;
    std::vector<Tuple> old_keys = std::move(keys_);
    std::vector<Element> old_payloads = std::move(payloads_);
    keys_.clear();
    payloads_.clear();
    index_.clear();
    std::vector<std::unique_ptr<SecondaryIndex>> old_secondary =
        std::move(secondary_);
    secondary_.clear();
    secondary_by_schema_.clear();
    live_ = 0;
    Reserve(old_keys.size() - dead);
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (!Ring::IsZero(old_payloads[i])) {
        Add(std::move(old_keys[i]), std::move(old_payloads[i]));
      }
    }
    // Rebuild the same secondary indexes so cached references stay valid
    // across compaction is NOT guaranteed; engine code re-fetches via
    // IndexOn() per operation.
    for (auto& sec : old_secondary) {
      IndexOn(sec->sub_schema());
    }
  }

  Schema schema_;
  // The SoA entry pool: parallel key/payload arrays, 1:1 by slot.
  std::vector<Tuple> keys_;
  std::vector<Element> payloads_;
  SlotIndex index_;
  mutable std::vector<std::unique_ptr<SecondaryIndex>> secondary_;
  // O(1) locator: schema -> position in secondary_.
  mutable util::FlatHashMap<Schema, uint32_t, SchemaHash> secondary_by_schema_;
  size_t live_ = 0;
};

}  // namespace fivm

#endif  // FIVM_DATA_RELATION_H_
