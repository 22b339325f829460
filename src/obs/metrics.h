#ifndef FIVM_OBS_METRICS_H_
#define FIVM_OBS_METRICS_H_

/// Engine-wide observability: a registry of named counters, gauges and
/// log-bucketed histograms with thread-sharded lock-free recording, plus
/// scoped RAII timers over a calibrated tick clock. Every layer of the
/// engine records into this subsystem (plan steps, the batcher, the
/// parallel executor, the hash core, the IVM^ε rebalancer); scrapes merge
/// the shards into a MetricsSnapshot that src/obs/export.h renders as JSON
/// or Prometheus text exposition, and IvmEngine::ExplainAnalyze() renders
/// per plan step.
///
/// Cost model. The record path is allocation-free and lock-free: callers
/// hold Counter*/Histogram* obtained once (registry lookups are mutexed and
/// belong at construction time, never per record), and a record is one
/// relaxed fetch_add on a per-thread shard (tests/zero_alloc_probe_test.cc
/// proves the no-allocation property). Timers read the TSC and convert with
/// a calibration cached at first use, so a timestamp costs ~10ns, not a
/// clock_gettime syscall. The subsystem is always compiled in; the one
/// switch is at run time: SetEnabled(false) short-circuits recording behind
/// one relaxed atomic load (default on).

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

// Always 1. perfbench/fullstack.cc reads it for the `metrics_on` field of
// its ENV line.
#define FIVM_METRICS_ENABLED 1

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace fivm::obs {

/// Merged, point-in-time view of one histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;   // of recorded values (ns for timer histograms)
  uint64_t max = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
  double Mean() const { return count ? static_cast<double>(sum) / count : 0; }
};

/// One scrape of the whole registry, sorted by metric name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Shards per metric. Each recording thread hashes to one shard; shards are
/// cache-line separated so concurrent recorders do not false-share. More
/// threads than shards merely share fetch_add targets (still correct).
inline constexpr size_t kShards = 8;

namespace detail {
extern std::atomic<bool> g_runtime_enabled;
uint32_t AssignThreadShard();
inline uint32_t ThreadShard() {
  static thread_local uint32_t shard = AssignThreadShard();
  return shard;
}
}  // namespace detail

/// Runtime switch (default on). Checked with one relaxed load per record.
inline bool Enabled() {
  return detail::g_runtime_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool on);

/// Cheap timestamps for the RAII timers: the TSC on x86-64 (≈10ns per
/// read), converted to nanoseconds through a steady_clock calibration
/// cached at first use (the "cached tick" fast path — no clock_gettime on
/// the record path). Elsewhere falls back to steady_clock nanoseconds
/// directly (ticks == ns).
class TickClock {
 public:
  static uint64_t Now() {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

  /// Nanoseconds per tick, calibrated against steady_clock once per
  /// process (first call busy-waits ~2ms; subsequent calls read a cached
  /// constant).
  static double NsPerTick();

  static uint64_t ToNanos(uint64_t ticks) {
    return static_cast<uint64_t>(static_cast<double>(ticks) * NsPerTick());
  }
};

/// Monotonic counter. Add() is one relaxed fetch_add on the caller's
/// thread shard; Value() merges the shards.
class Counter {
 public:
  void Add(uint64_t n) {
    if (!Enabled()) return;
    shards_[detail::ThreadShard() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Fixed-size log-linear histogram (HdrHistogram-style): values below 2^4
/// get exact buckets; above, each power of two splits into 2^kSubBits
/// sub-buckets, bounding the relative quantile error at 2^-kSubBits
/// (12.5%). 512 buckets cover the full uint64 range, so recording never
/// clamps, branches on range, or allocates. Recording is one relaxed
/// fetch_add per shard bucket; percentiles interpolate inside the bucket
/// holding the nearest-rank sample.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr size_t kNumBuckets = 512;
  static constexpr uint64_t kLinearMax = uint64_t{1} << (kSubBits + 1);

  static size_t BucketOf(uint64_t v) {
    if (v < kLinearMax) return static_cast<size_t>(v);
    int msb = 63 - std::countl_zero(v);
    size_t sub = (v >> (msb - kSubBits)) & ((size_t{1} << kSubBits) - 1);
    return ((static_cast<size_t>(msb) - kSubBits) << kSubBits) + sub +
           (size_t{1} << kSubBits);
  }

  /// Smallest value mapping to bucket `b`.
  static uint64_t BucketLo(size_t b) {
    if (b < kLinearMax) return b;
    size_t base = b - (size_t{1} << kSubBits);
    size_t msb = (base >> kSubBits) + kSubBits;
    if (msb >= 64) return ~uint64_t{0};
    uint64_t sub = base & ((size_t{1} << kSubBits) - 1);
    return (uint64_t{1} << msb) + (sub << (msb - kSubBits));
  }

  /// Largest value mapping to bucket `b`.
  static uint64_t BucketHi(size_t b) {
    uint64_t next = BucketLo(b + 1);
    return next == ~uint64_t{0} ? next : next - 1;
  }

  void Record(uint64_t v) {
    if (!Enabled()) return;
    Shard& s = shards_[detail::ThreadShard() & (kShards - 1)];
    s.buckets[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    uint64_t m = s.max.load(std::memory_order_relaxed);
    while (v > m && !s.max.compare_exchange_weak(m, v,
                                                 std::memory_order_relaxed)) {
    }
  }

  /// Records a TickClock interval, converted to nanoseconds.
  void RecordTicks(uint64_t ticks) {
    if (!Enabled()) return;
    Record(TickClock::ToNanos(ticks));
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.count.load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t Sum() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.sum.load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t MaxValue() const {
    uint64_t m = 0;
    for (const Shard& s : shards_) {
      uint64_t v = s.max.load(std::memory_order_relaxed);
      if (v > m) m = v;
    }
    return m;
  }

  /// Nearest-rank percentile (`p` in [0,100]) with linear interpolation
  /// inside the winning bucket: the returned value lies in the bounds of
  /// the bucket that holds the p-th sorted sample.
  double Percentile(double p) const;

  HistogramSnapshot Snap() const;

  void Reset() {
    for (Shard& s : shards_) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      s.max.store(0, std::memory_order_relaxed);
    }
  }

 private:
  void MergeBuckets(uint64_t out[kNumBuckets]) const;
  static double PercentileFrom(const uint64_t buckets[kNumBuckets],
                               uint64_t count, double p);

  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kNumBuckets];
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  Shard shards_[kShards];
};

/// RAII wall-time recorder: measures the scope and records nanoseconds
/// into `h`. A null histogram (or disabled metrics) records nothing and
/// reads no clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) {
    if (h != nullptr && Enabled()) {
      h_ = h;
      start_ = TickClock::Now();
    }
  }
  ~ScopedTimer() {
    if (h_ != nullptr) h_->RecordTicks(TickClock::Now() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_ = nullptr;
  uint64_t start_ = 0;
};

/// Process-wide registry of named metrics. Lookup (mutexed) belongs at
/// construction time; the returned pointers stay valid for the process
/// lifetime and record lock-free. Gauges are pull-style callbacks polled at
/// scrape — the bridge that turns the MemoryTracker and ivme::Stats
/// singletons into thin adapters (Default() pre-registers the memory.*
/// gauges). Re-registering a gauge name replaces the callback and returns a
/// fresh token; UnregisterGauge removes the gauge only when the token still
/// matches, so a dying owner cannot tear down its replacement.
class MetricRegistry {
 public:
  MetricRegistry();
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide default registry, with the MemoryTracker gauges
  /// (memory.current_bytes/peak_bytes/allocations/rehashes) pre-registered.
  static MetricRegistry& Default();

  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  uint64_t RegisterGauge(const std::string& name,
                         std::function<int64_t()> fn);
  void UnregisterGauge(const std::string& name, uint64_t token);

  MetricsSnapshot Snapshot() const;

  /// Resets every counter and histogram (gauges are pull-style and have no
  /// state to reset). For benches that want per-phase deltas.
  void ResetAll();

 private:
  struct Impl;
  Impl* impl_;  // raw pimpl keeps the header free of map/mutex includes
};

/// RAII set of pull gauges in the default registry: the way a component
/// exports numbers it owns without keeping a second copy of them. Add()
/// registers a callback; the destructor unregisters every gauge of the set
/// by token, so a dying owner leaves a newer owner of the same name alone.
/// Declare the set after the state its callbacks read, so it goes first.
class GaugeSet {
 public:
  GaugeSet() = default;
  ~GaugeSet();
  GaugeSet(const GaugeSet&) = delete;
  GaugeSet& operator=(const GaugeSet&) = delete;

  void Add(const std::string& name, std::function<int64_t()> fn);

 private:
  std::vector<std::pair<std::string, uint64_t>> tokens_;
};

/// Cold path of the sampled GroupTable probe-length instrumentation:
/// records `groups` (control groups scanned by one probe) into the
/// registry histogram "group_table.probe_groups". Call only on sampled
/// probes — the sampling test itself lives in FIVM_OBS_SAMPLE_PROBE so the
/// hot path pays one predictable branch on a hash already in a register.
/// cold + noinline keep the call sequence (register saves and all) out of
/// the probe loops' hot text: without them, inlined Find/FindOrInsert
/// bodies pay the call's register pressure even on unsampled probes.
#if defined(__GNUC__)
__attribute__((cold, noinline))
#endif
void SampleProbeLength(uint32_t groups);

/// 1-in-128 deterministic sampling keyed on the probe's H2 control tag.
/// The tag is the one hash-derived value the probe loop already keeps in a
/// register (every group scan matches against it), so the test adds zero
/// register pressure to the inlined Find/FindOrInsert bodies — keying on
/// spare high hash bits instead keeps `hash` live across the whole loop
/// at every inlined probe site. Per-key determinism:
/// a key either always samples or never does; tag-0 keys are a uniform
/// 1/128 subsample of a hashed key population, and probe length depends on
/// H1/occupancy, not the tag value.
#define FIVM_OBS_SAMPLE_PROBE(h2_tag, groups)                    \
  do {                                                           \
    if ((h2_tag) == 0) [[unlikely]] {                            \
      ::fivm::obs::SampleProbeLength(                            \
          static_cast<uint32_t>(groups));                        \
    }                                                            \
  } while (0)

}  // namespace fivm::obs

#endif  // FIVM_OBS_METRICS_H_
