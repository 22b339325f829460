#ifndef FIVM_OBS_EXPORT_H_
#define FIVM_OBS_EXPORT_H_

/// Renderers for a MetricsSnapshot. Both work on the merged snapshot (never
/// the live shards), so they are pure string builders with no concurrency
/// concerns.

#include <string>

#include "src/obs/metrics.h"

namespace fivm::obs {

/// One-line JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
///  "sum":..,"max":..,"mean":..,"p50":..,"p99":..,"p999":..},...}}
std::string ToJson(const MetricsSnapshot& snap);

/// Prometheus text exposition. Counters/gauges one sample per line;
/// histograms as summary-style quantile series plus _sum/_count/_max.
/// Metric names are sanitized to [a-zA-Z0-9_:].
std::string ToPrometheus(const MetricsSnapshot& snap);

}  // namespace fivm::obs

#endif  // FIVM_OBS_EXPORT_H_
