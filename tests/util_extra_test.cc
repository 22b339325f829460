#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/util/hash.h"
#include "src/util/memory_tracker.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace fivm::util {
namespace {

TEST(HashTest, Mix64IsInjectiveOnSmallRange) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, Mix64Avalanche) {
  // Flipping one input bit flips roughly half the output bits.
  int total_flips = 0;
  for (uint64_t x = 1; x < 100; ++x) {
    uint64_t h = Mix64(x);
    uint64_t h2 = Mix64(x ^ 1);
    total_flips += __builtin_popcountll(h ^ h2);
  }
  double avg = total_flips / 99.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, HashStringDiffers) {
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
  EXPECT_EQ(HashString("same"), HashString("same"));
}

TEST(HashTest, HashCombineOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  Rng rng(10);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  // Rank 0 should dominate rank 50 by roughly 50x under theta=1.
  EXPECT_GT(counts[0], counts[50] * 10);
  // All samples in range.
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 20000);
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  Rng rng(11);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(MemoryTrackerTest, DisabledWithoutHooks) {
  // Tests do not link the allocation hooks; readings must be stable zeros.
  EXPECT_FALSE(MemoryTracker::enabled());
  EXPECT_EQ(MemoryTracker::CurrentBytes(), 0);
}

TEST(MemoryTrackerTest, ManualAccounting) {
  MemoryTracker::RecordAlloc(1000);
  EXPECT_GE(MemoryTracker::CurrentBytes(), 1000);
  EXPECT_GE(MemoryTracker::PeakBytes(), 1000);
  MemoryTracker::RecordFree(1000);
  EXPECT_EQ(MemoryTracker::CurrentBytes(), 0);
  // Peak persists until reset.
  EXPECT_GE(MemoryTracker::PeakBytes(), 1000);
  MemoryTracker::ResetPeak();
  EXPECT_EQ(MemoryTracker::PeakBytes(), 0);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());
  double before = t.ElapsedSeconds();
  t.Reset();
  EXPECT_LE(t.ElapsedSeconds(), before + 1.0);
}

}  // namespace
}  // namespace fivm::util
