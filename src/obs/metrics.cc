#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "src/util/memory_tracker.h"

namespace fivm::obs {

namespace detail {

std::atomic<bool> g_runtime_enabled{true};

uint32_t AssignThreadShard() {
  static std::atomic<uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

void SetEnabled(bool on) {
  detail::g_runtime_enabled.store(on, std::memory_order_relaxed);
}

double TickClock::NsPerTick() {
#if defined(__x86_64__)
  static const double ns_per_tick = [] {
    // Calibrate the TSC against steady_clock over a ~2ms busy-wait. Done
    // once per process, cached in the function-local static; the record
    // path then converts with one multiply.
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t c0 = __rdtsc();
    for (;;) {
      const auto t1 = std::chrono::steady_clock::now();
      if (t1 - t0 >= std::chrono::milliseconds(2)) {
        const uint64_t c1 = __rdtsc();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        const uint64_t dt = c1 - c0;
        return dt > 0 ? ns / static_cast<double>(dt) : 1.0;
      }
    }
  }();
  return ns_per_tick;
#else
  return 1.0;  // Now() already returns nanoseconds
#endif
}

void Histogram::MergeBuckets(uint64_t out[kNumBuckets]) const {
  for (size_t b = 0; b < kNumBuckets; ++b) out[b] = 0;
  for (const Shard& s : shards_) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      out[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
}

double Histogram::PercentileFrom(const uint64_t buckets[kNumBuckets],
                                 uint64_t count, double p) {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the target is the ceil(p% · count)-th smallest sample.
  uint64_t rank = static_cast<uint64_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count))));
  if (rank > count) rank = count;
  uint64_t cum = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t c = buckets[b];
    if (cum + c >= rank) {
      const double lo = static_cast<double>(BucketLo(b));
      const double hi = static_cast<double>(BucketHi(b));
      const double within = static_cast<double>(rank - cum);  // 1..c
      return lo + (hi - lo) * (within - 0.5) / static_cast<double>(c);
    }
    cum += c;
  }
  return static_cast<double>(BucketHi(kNumBuckets - 1));
}

double Histogram::Percentile(double p) const {
  uint64_t merged[kNumBuckets];
  MergeBuckets(merged);
  uint64_t count = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) count += merged[b];
  return PercentileFrom(merged, count, p);
}

HistogramSnapshot Histogram::Snap() const {
  uint64_t merged[kNumBuckets];
  MergeBuckets(merged);
  HistogramSnapshot s;
  for (size_t b = 0; b < kNumBuckets; ++b) s.count += merged[b];
  s.sum = Sum();
  s.max = MaxValue();
  s.p50 = PercentileFrom(merged, s.count, 50.0);
  s.p99 = PercentileFrom(merged, s.count, 99.0);
  s.p999 = PercentileFrom(merged, s.count, 99.9);
  return s;
}

struct MetricRegistry::Impl {
  mutable std::mutex mu;
  // std::map: sorted scrapes for free, and node stability keeps the
  // returned Counter*/Histogram* valid for the registry's lifetime.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  struct Gauge {
    uint64_t token = 0;
    std::function<int64_t()> fn;
  };
  std::map<std::string, Gauge> gauges;
  std::atomic<uint64_t> next_token{1};
};

MetricRegistry::MetricRegistry() : impl_(new Impl) {}
MetricRegistry::~MetricRegistry() { delete impl_; }

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* reg = [] {
    auto* r = new MetricRegistry;  // leaked: metrics outlive static dtors
    r->RegisterGauge("memory.current_bytes",
                     [] { return util::MemoryTracker::CurrentBytes(); });
    r->RegisterGauge("memory.peak_bytes",
                     [] { return util::MemoryTracker::PeakBytes(); });
    r->RegisterGauge("memory.allocations",
                     [] { return util::MemoryTracker::AllocationCount(); });
    r->RegisterGauge("memory.rehashes",
                     [] { return util::MemoryTracker::RehashCount(); });
    return r;
  }();
  return *reg;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

uint64_t MetricRegistry::RegisterGauge(const std::string& name,
                                       std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  uint64_t token = impl_->next_token.fetch_add(1, std::memory_order_relaxed);
  impl_->gauges[name] = Impl::Gauge{token, std::move(fn)};
  return token;
}

void MetricRegistry::UnregisterGauge(const std::string& name,
                                     uint64_t token) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->gauges.find(name);
  if (it != impl_->gauges.end() && it->second.token == token) {
    impl_->gauges.erase(it);
  }
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  // Copy the gauge callbacks out under the lock, poll them outside it: a
  // gauge callback may itself touch the registry (or take arbitrary time).
  std::vector<std::pair<std::string, std::function<int64_t()>>> gauges;
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    snap.counters.reserve(impl_->counters.size());
    for (const auto& [name, c] : impl_->counters) {
      snap.counters.emplace_back(name, c->Value());
    }
    snap.histograms.reserve(impl_->histograms.size());
    for (const auto& [name, h] : impl_->histograms) {
      snap.histograms.emplace_back(name, h->Snap());
    }
    gauges.reserve(impl_->gauges.size());
    for (const auto& [name, g] : impl_->gauges) {
      gauges.emplace_back(name, g.fn);
    }
  }
  snap.gauges.reserve(gauges.size());
  for (const auto& [name, fn] : gauges) {
    snap.gauges.emplace_back(name, fn ? fn() : 0);
  }
  return snap;
}

void MetricRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->Reset();
  for (auto& [name, h] : impl_->histograms) h->Reset();
}

namespace {
// Resolved at static-init time (Default() is a function-local static, so
// cross-TU order is safe): the first sampled probe of the process — which
// may sit inside an allocation-counted or timed region — performs no
// registry lookup and no heap allocation.
Histogram* const g_probe_hist =
    MetricRegistry::Default().GetHistogram("group_table.probe_groups");
}  // namespace

void SampleProbeLength(uint32_t groups) { g_probe_hist->Record(groups); }

GaugeSet::~GaugeSet() {
  auto& reg = MetricRegistry::Default();
  for (const auto& [name, token] : tokens_) reg.UnregisterGauge(name, token);
}

void GaugeSet::Add(const std::string& name, std::function<int64_t()> fn) {
  tokens_.emplace_back(
      name, MetricRegistry::Default().RegisterGauge(name, std::move(fn)));
}

}  // namespace fivm::obs
