#include "src/util/memory_tracker.h"

#include <atomic>

namespace fivm::util {
namespace {

std::atomic<int64_t> g_current{0};
std::atomic<int64_t> g_peak{0};
std::atomic<int64_t> g_alloc_count{0};
std::atomic<int64_t> g_rehash_count{0};
std::atomic<bool> g_enabled{false};
// Plain (not atomic): only its own thread reads or writes it.
thread_local int64_t t_alloc_count = 0;

}  // namespace

int64_t MemoryTracker::CurrentBytes() {
  return g_current.load(std::memory_order_relaxed);
}

int64_t MemoryTracker::AllocationCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

int64_t MemoryTracker::ThreadAllocationCount() { return t_alloc_count; }

int64_t MemoryTracker::PeakBytes() {
  return g_peak.load(std::memory_order_relaxed);
}

void MemoryTracker::ResetPeak() {
  g_peak.store(g_current.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

int64_t MemoryTracker::RehashCount() {
  return g_rehash_count.load(std::memory_order_relaxed);
}

void MemoryTracker::RecordRehash() {
  g_rehash_count.fetch_add(1, std::memory_order_relaxed);
}

bool MemoryTracker::enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void MemoryTracker::RecordAlloc(size_t bytes) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  ++t_alloc_count;
  int64_t cur = g_current.fetch_add(static_cast<int64_t>(bytes),
                                    std::memory_order_relaxed) +
                static_cast<int64_t>(bytes);
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (cur > peak &&
         !g_peak.compare_exchange_weak(peak, cur, std::memory_order_relaxed)) {
  }
}

void MemoryTracker::RecordFree(size_t bytes) {
  g_current.fetch_sub(static_cast<int64_t>(bytes), std::memory_order_relaxed);
}

void MemoryTracker::MarkEnabled() {
  g_enabled.store(true, std::memory_order_relaxed);
}

}  // namespace fivm::util
