#ifndef FIVM_BENCH_SERIES_RUNNER_H_
#define FIVM_BENCH_SERIES_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"
#include "src/util/timer.h"
#include "src/workloads/stream.h"

namespace fivm::bench {

/// Drives one maintenance strategy over an update stream, printing a
/// throughput/memory series at every decile of the stream (the x-axis of
/// Figures 7, 8 and 13). Strategies exceeding the time budget are cut off
/// and reported as timeouts, mirroring the paper's one-hour limit.
///
/// `apply` processes one batch; `memory_mb` reports the strategy's current
/// view memory. Returns the number of tuples processed, so callers that
/// compare strategies afterwards (bench_ivme_skew's count verification) can
/// tell a timed-out arm from a completed one.
///
/// Every apply() call is individually timed into a per-run latency
/// histogram, printed as a LATENCY row (p50/p99/p999, unit=batch) after the
/// series — the paper's per-update maintenance cost as a distribution, not
/// a mean. With metrics disabled the histogram stays empty and no row is
/// printed.
inline uint64_t RunSeries(const char* system,
                          const workloads::UpdateStream& stream,
                          const std::function<void(
                              const workloads::UpdateStream::Batch&)>& apply,
                          const std::function<double()>& memory_mb,
                          int report_points = 5) {
  const double budget = BudgetSeconds();
  const uint64_t total = stream.total_tuples();
  uint64_t processed = 0;
  uint64_t last_reported = 0;
  uint64_t next_report = total / report_points;
  // Heap-allocated: a histogram is kShards cache-aligned ~4KB shards.
  auto latency = std::make_unique<obs::Histogram>();
  util::Timer timer;
  for (const auto& batch : stream.batches()) {
    {
      obs::ScopedTimer t(latency.get());
      apply(batch);
    }
    processed += batch.tuples.size();
    double elapsed = timer.ElapsedSeconds();
    if (elapsed > budget) {
      PrintTimeoutRow(system, static_cast<double>(processed) / total,
                      processed, elapsed);
      PrintLatencyRow(system, *latency, "batch");
      return processed;
    }
    if (processed >= next_report) {
      PrintSeriesRow(system, static_cast<double>(processed) / total,
                     processed, elapsed, memory_mb());
      last_reported = processed;
      next_report += total / report_points;
    }
  }
  if (processed != last_reported) {
    PrintSeriesRow(system, 1.0, processed, timer.ElapsedSeconds(),
                   memory_mb());
  }
  PrintLatencyRow(system, *latency, "batch");
  return processed;
}

}  // namespace fivm::bench

#endif  // FIVM_BENCH_SERIES_RUNNER_H_
