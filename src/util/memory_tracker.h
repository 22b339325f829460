#ifndef FIVM_UTIL_MEMORY_TRACKER_H_
#define FIVM_UTIL_MEMORY_TRACKER_H_

#include <cstddef>
#include <cstdint>

namespace fivm::util {

/// Process-wide heap accounting, fed by the operator new/delete hooks in
/// memhook_new.cc (linked into benchmark binaries only). When the hooks are
/// not linked, all readings are zero and `enabled()` is false.
///
/// Used to reproduce the "Allocated Memory" series of Figures 7, 8 and 13.
class MemoryTracker {
 public:
  /// Bytes currently allocated (live).
  static int64_t CurrentBytes();

  /// Total number of allocations since process start. Used by tests to
  /// assert that hot probe paths stay allocation-free.
  static int64_t AllocationCount();

  /// Allocations made by the calling thread since it started. Per-step
  /// profiles difference this instead of AllocationCount(), which also
  /// counts what other threads (shards, readers, the WAL) allocate in the
  /// same window.
  static int64_t ThreadAllocationCount();

  /// High-water mark of live bytes since the last ResetPeak().
  static int64_t PeakBytes();

  /// Resets the peak to the current live byte count.
  static void ResetPeak();

  /// Number of hash-table rehashes (growth or tombstone purge) since
  /// process start, fed by util::GroupTable. Unlike the allocation
  /// counters this needs no linked hooks — it counts in every binary, so
  /// tests can prove that presized batch paths run rehash-free.
  static int64_t RehashCount();
  static void RecordRehash();

  /// True when the allocation hooks are linked into this binary.
  static bool enabled();

  // Internal: called by the new/delete hooks.
  static void RecordAlloc(size_t bytes);
  static void RecordFree(size_t bytes);
  static void MarkEnabled();
};

}  // namespace fivm::util

#endif  // FIVM_UTIL_MEMORY_TRACKER_H_
