// Tests of the src/obs/ metrics subsystem: log-linear histogram bucket
// geometry and percentile accuracy against a sorted-sample reference,
// thread-sharded concurrent recording (this file runs under the CI TSan
// job), registry semantics (pointer stability, gauge tokens), the runtime
// enable switch — the subsystem's only off state; its engine-level effect
// on ExplainAnalyze is covered in ivm_engine_test.cc — and both exporters.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/export.h"
#include "src/obs/metrics.h"

namespace fivm::obs {
namespace {

uint64_t NextRand(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

TEST(HistogramBuckets, RoundTripAndMonotone) {
  // Every probe value must land in a bucket whose [lo, hi] range contains
  // it, and bucket indices must be monotone in the value.
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 200; ++v) probes.push_back(v);
  for (int msb = 4; msb < 64; ++msb) {
    const uint64_t base = uint64_t{1} << msb;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + 1);
    probes.push_back(base + base / 2);
    probes.push_back(base + base - 1);
  }
  probes.push_back(~uint64_t{0});
  std::sort(probes.begin(), probes.end());

  size_t prev_bucket = 0;
  for (uint64_t v : probes) {
    const size_t b = Histogram::BucketOf(v);
    ASSERT_LT(b, Histogram::kNumBuckets) << "value " << v;
    EXPECT_LE(Histogram::BucketLo(b), v) << "value " << v;
    EXPECT_GE(Histogram::BucketHi(b), v) << "value " << v;
    EXPECT_GE(b, prev_bucket) << "value " << v;
    prev_bucket = b;
  }
}

TEST(HistogramBuckets, BoundariesTile) {
  // Consecutive buckets tile the value space with no gap or overlap.
  for (size_t b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
    const uint64_t hi = Histogram::BucketHi(b);
    const uint64_t next_lo = Histogram::BucketLo(b + 1);
    if (next_lo == ~uint64_t{0} && hi == ~uint64_t{0}) break;  // saturated
    ASSERT_EQ(hi + 1, next_lo) << "bucket " << b;
  }
}

// Reference nearest-rank percentile over the raw samples.
uint64_t ReferencePercentile(std::vector<uint64_t> sorted, double p) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

void CheckPercentiles(const std::vector<uint64_t>& samples) {
  Histogram h;
  for (uint64_t v : samples) h.Record(v);
  std::vector<uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const uint64_t ref = ReferencePercentile(sorted, p);
    const double got = h.Percentile(p);
    // The histogram cannot distinguish values inside one bucket, so the
    // answer must lie within the bucket holding the reference sample.
    const size_t rb = Histogram::BucketOf(ref);
    EXPECT_GE(got + 0.5, static_cast<double>(Histogram::BucketLo(rb)))
        << "p" << p << " ref " << ref;
    EXPECT_LE(got, static_cast<double>(Histogram::BucketHi(rb)) + 0.5)
        << "p" << p << " ref " << ref;
    // Which bounds the relative error by the sub-bucket width (12.5%).
    if (ref >= Histogram::kLinearMax) {
      EXPECT_LE(std::abs(got - static_cast<double>(ref)),
                static_cast<double>(ref) * 0.125 + 1.0)
          << "p" << p;
    }
  }
  EXPECT_EQ(h.Count(), samples.size());
  uint64_t sum = 0, mx = 0;
  for (uint64_t v : samples) {
    sum += v;
    mx = std::max(mx, v);
  }
  EXPECT_EQ(h.Sum(), sum);
  EXPECT_EQ(h.MaxValue(), mx);
}

TEST(HistogramPercentiles, MatchesSortedReferenceLogUniform) {
  // Log-uniform samples stress many buckets including boundary values.
  std::vector<uint64_t> samples;
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    const int shift = static_cast<int>(NextRand(&seed) % 40);
    samples.push_back(NextRand(&seed) >> (63 - shift >= 0 ? 63 - shift : 0));
  }
  CheckPercentiles(samples);
}

TEST(HistogramPercentiles, MatchesSortedReferenceAcrossBucketBoundaries) {
  // Samples pinned to bucket edges: lo, hi, lo-1 of many buckets.
  std::vector<uint64_t> samples;
  for (size_t b = 0; b < Histogram::kNumBuckets; b += 7) {
    const uint64_t lo = Histogram::BucketLo(b);
    if (lo == ~uint64_t{0}) break;
    samples.push_back(lo);
    samples.push_back(Histogram::BucketHi(b));
    if (lo > 0) samples.push_back(lo - 1);
  }
  CheckPercentiles(samples);
}

TEST(HistogramPercentiles, SmallCounts) {
  Histogram h;
  EXPECT_EQ(h.Percentile(50.0), 0.0);  // empty
  h.Record(1000);
  // One sample: every percentile lands in its bucket.
  const size_t b = Histogram::BucketOf(1000);
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_GE(h.Percentile(p) + 0.5,
              static_cast<double>(Histogram::BucketLo(b)));
    EXPECT_LE(h.Percentile(p),
              static_cast<double>(Histogram::BucketHi(b)) + 0.5);
  }
}

TEST(HistogramConcurrency, ShardedRecordingLosesNothing) {
  // Multi-thread fuzz (exercised under TSan in CI): every record must be
  // visible in the merged scrape, regardless of shard assignment.
  Histogram h;
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t seed = 0x5bd1e995u + static_cast<uint64_t>(t);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(NextRand(&seed) % 1000000);
        c.Add(1);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  const HistogramSnapshot s = h.Snap();
  EXPECT_EQ(s.count, h.Count());
  EXPECT_LE(s.p50, s.p99 + 0.5);
  EXPECT_LE(s.p99, s.p999 + 0.5);
}

TEST(RuntimeSwitch, DisableStopsRecording) {
  Counter c;
  Histogram h;
  SetEnabled(false);
  c.Add(5);
  h.Record(5);
  SetEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Count(), 0u);
  c.Add(5);
  h.Record(5);
  EXPECT_EQ(c.Value(), 5u);
  EXPECT_EQ(h.Count(), 1u);
}

TEST(ScopedTimerTest, RecordsElapsedAndIgnoresNull) {
  Histogram h;
  {
    ScopedTimer t(&h);
    volatile uint64_t sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<uint64_t>(i);
    (void)sink;
  }
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_GT(h.Sum(), 0u);  // nanoseconds of a 10k-iteration loop
  { ScopedTimer t(nullptr); }  // must be a no-op, not a crash
}

TEST(RegistryTest, PointerStableAndShared) {
  auto& reg = MetricRegistry::Default();
  Counter* a = reg.GetCounter("obs_test.stable_counter");
  Counter* b = reg.GetCounter("obs_test.stable_counter");
  EXPECT_EQ(a, b);
  Histogram* ha = reg.GetHistogram("obs_test.stable_hist");
  Histogram* hb = reg.GetHistogram("obs_test.stable_hist");
  EXPECT_EQ(ha, hb);
  a->Add(3);
  const MetricsSnapshot snap = reg.Snapshot();
  bool found = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "obs_test.stable_counter") {
      found = true;
      EXPECT_GE(v, 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RegistryTest, DefaultBridgesMemoryTracker) {
  const MetricsSnapshot snap = MetricRegistry::Default().Snapshot();
  std::vector<std::string> names;
  for (const auto& [name, v] : snap.gauges) names.push_back(name);
  for (const char* expected :
       {"memory.current_bytes", "memory.peak_bytes", "memory.allocations",
        "memory.rehashes"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

int64_t GaugeValue(const MetricsSnapshot& snap, const std::string& name,
                   bool* found) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) {
      *found = true;
      return v;
    }
  }
  *found = false;
  return 0;
}

TEST(RegistryTest, GaugeTokensProtectReplacements) {
  auto& reg = MetricRegistry::Default();
  const std::string name = "obs_test.gauge_token";
  const uint64_t t1 = reg.RegisterGauge(name, [] { return int64_t{1}; });
  // Replacement (a new engine registering before the old one's destructor
  // runs) takes over the name with a fresh token.
  const uint64_t t2 = reg.RegisterGauge(name, [] { return int64_t{2}; });
  EXPECT_NE(t1, t2);

  // The stale owner's unregister must not tear down the replacement.
  reg.UnregisterGauge(name, t1);
  bool found = false;
  EXPECT_EQ(GaugeValue(reg.Snapshot(), name, &found), 2);
  EXPECT_TRUE(found);

  // The current owner's token does remove it.
  reg.UnregisterGauge(name, t2);
  GaugeValue(reg.Snapshot(), name, &found);
  EXPECT_FALSE(found);
}

TEST(RegistryTest, ResetAllClearsCountersAndHistograms) {
  auto& reg = MetricRegistry::Default();
  Counter* c = reg.GetCounter("obs_test.reset_counter");
  Histogram* h = reg.GetHistogram("obs_test.reset_hist");
  c->Add(7);
  h->Record(7);
  reg.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
}

TEST(ExportTest, JsonContainsAllSections) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("c.one", 42);
  snap.gauges.emplace_back("g.two", -7);
  HistogramSnapshot hs;
  hs.count = 3;
  hs.sum = 30;
  hs.max = 20;
  hs.p50 = 10;
  hs.p99 = 20;
  hs.p999 = 20;
  snap.histograms.emplace_back("h.three", hs);

  const std::string json = ToJson(snap);
  EXPECT_NE(json.find("\"c.one\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g.two\":-7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h.three\":{\"count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\":20.000"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one line
}

TEST(ExportTest, PrometheusSanitizesAndEmitsQuantiles) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("engine.applied-deltas", 5);
  HistogramSnapshot hs;
  hs.count = 2;
  hs.sum = 10;
  hs.p50 = 4;
  hs.p99 = 6;
  hs.p999 = 6;
  snap.histograms.emplace_back("exec.merge_ns", hs);

  const std::string text = ToPrometheus(snap);
  EXPECT_NE(text.find("engine_applied_deltas 5"), std::string::npos) << text;
  EXPECT_NE(text.find("exec_merge_ns{quantile=\"0.99\"}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("exec_merge_ns_count 2"), std::string::npos) << text;
  EXPECT_EQ(text.find("applied-deltas"), std::string::npos) << text;
}

}  // namespace
}  // namespace fivm::obs
