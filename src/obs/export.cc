#include "src/obs/export.h"

#include <cmath>
#include <cstdio>
#include <string>

namespace fivm::obs {

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  *out += buf;
}

}  // namespace

std::string ToJson(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(256 + 64 * (snap.counters.size() + snap.gauges.size()) +
              160 * snap.histograms.size());
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, name);
    out += ':';
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, name);
    out += ':';
    out += std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += std::to_string(h.sum);
    out += ",\"max\":";
    out += std::to_string(h.max);
    out += ",\"mean\":";
    AppendDouble(&out, h.Mean());
    out += ",\"p50\":";
    AppendDouble(&out, h.p50);
    out += ",\"p99\":";
    AppendDouble(&out, h.p99);
    out += ",\"p999\":";
    AppendDouble(&out, h.p999);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace fivm::obs
