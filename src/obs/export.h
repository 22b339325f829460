#ifndef FIVM_OBS_EXPORT_H_
#define FIVM_OBS_EXPORT_H_

/// Renderer for a MetricsSnapshot. It works on the merged snapshot (never
/// the live shards), so it only formats strings and has no concurrency
/// concerns.

#include <string>

#include "src/obs/metrics.h"

namespace fivm::obs {

/// One-line JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
///  "sum":..,"max":..,"mean":..,"p50":..,"p99":..,"p999":..},...}}
std::string ToJson(const MetricsSnapshot& snap);

}  // namespace fivm::obs

#endif  // FIVM_OBS_EXPORT_H_
