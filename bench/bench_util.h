#ifndef FIVM_BENCH_BENCH_UTIL_H_
#define FIVM_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/obs/metrics.h"
#include "src/util/memory_tracker.h"
#include "src/util/timer.h"

namespace fivm::bench {

/// Reads a scaling/override knob from the environment, e.g.
/// FIVM_BENCH_SCALE=4 multiplies default dataset sizes. All benchmarks obey
/// FIVM_BENCH_BUDGET_SEC (per-strategy time budget; strategies that exceed
/// it are cut off and reported with the fraction processed, mirroring the
/// paper's one-hour timeout).
inline int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  return v ? std::atoll(v) : def;
}

inline double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : def;
}

inline int64_t BenchScale() { return EnvInt("FIVM_BENCH_SCALE", 1); }

inline double BudgetSeconds() {
  return EnvDouble("FIVM_BENCH_BUDGET_SEC", 30.0);
}

inline double MemoryMB() {
  if (util::MemoryTracker::enabled()) {
    return static_cast<double>(util::MemoryTracker::CurrentBytes()) / 1e6;
  }
  return 0.0;
}

/// Prints a benchmark table header shared by the figure harnesses.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// One row of a throughput/memory series (Figures 7, 8, 13).
inline void PrintSeriesRow(const char* system, double fraction,
                           uint64_t tuples, double seconds, double mem_mb) {
  std::printf("%-16s fraction=%.1f tuples=%10llu  throughput=%12.0f t/s  "
              "mem=%9.1f MB\n",
              system, fraction, static_cast<unsigned long long>(tuples),
              seconds > 0 ? tuples / seconds : 0.0, mem_mb);
}

inline void PrintTimeoutRow(const char* system, double fraction,
                            uint64_t tuples, double seconds) {
  std::printf("%-16s TIMEOUT after %.1fs at fraction=%.2f (%llu tuples, "
              "%12.0f t/s)\n",
              system, seconds, fraction,
              static_cast<unsigned long long>(tuples),
              seconds > 0 ? tuples / seconds : 0.0);
}

/// One tail-latency row: the per-unit latency distribution a strategy
/// accumulated over its run (unit = batch, update or tuple — named in
/// `unit`). Printed after the throughput series so collect_bench_json.py
/// attaches the percentiles to the same system entry. Skipped when the
/// histogram is empty (e.g. a run with obs::SetEnabled(false) records
/// nothing).
inline void PrintLatencyRow(const char* system, const obs::Histogram& hist,
                            const char* unit) {
  const obs::HistogramSnapshot s = hist.Snap();
  if (s.count == 0) return;
  std::printf("LATENCY %-16s unit=%s p50=%.1fus p99=%.1fus p999=%.1fus "
              "max=%.1fus n=%llu\n",
              system, unit, s.p50 / 1e3, s.p99 / 1e3, s.p999 / 1e3,
              static_cast<double>(s.max) / 1e3,
              static_cast<unsigned long long>(s.count));
}

}  // namespace fivm::bench

#endif  // FIVM_BENCH_BENCH_UTIL_H_
