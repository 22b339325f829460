// Checks on the benchmark's input generators (perfbench/workloads.h):
//  - one seed gives an identical base + stream digest, another seed a
//    different one;
//  - the live database size levels off after the base load: at every tenth
//    of the stream each relation's live tuple count is within 1% of its
//    base count.
// Run: ctest in the perfbench build directory, or the binary directly.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* workload, const char* what) {
  std::printf("%s %s: %s\n", ok ? "ok  " : "FAIL", workload, what);
  if (!ok) ++failures;
}

bool Within(double value, double reference, double share) {
  return std::fabs(value - reference) <= share * reference;
}

Inputs Make(const char* name, uint64_t seed, size_t n) {
  const std::string w = name;
  if (w == "housing_cofactor") return MakeHousing(seed, n);
  return MakeKeyedChurn(seed, n);
}

void CheckWorkload(const char* name, size_t n) {
  const Inputs a = Make(name, 7, n);
  const Inputs b = Make(name, 7, n);
  const Inputs c = Make(name, 8, n);
  Check(a.stream.size() == n, name, "stream has the requested length");
  Check(StreamDigest(a) == StreamDigest(b), name,
        "same seed, identical digest");
  Check(StreamDigest(a) != StreamDigest(c), name,
        "different seed, different digest");

  const size_t rels = static_cast<size_t>(a.query->relation_count());
  std::vector<double> base_live(rels, 0);
  for (const auto& [rel, key] : a.base) base_live[static_cast<size_t>(rel)] += 1;
  std::vector<double> live = base_live;
  bool live_flat = true;
  for (size_t i = 0; i < a.stream.size(); ++i) {
    const Update& u = a.stream[i];
    live[static_cast<size_t>(u.relation)] += u.sign;
    if ((i + 1) % (a.stream.size() / 10) != 0) continue;
    for (size_t r = 0; r < rels; ++r) {
      live_flat &= Within(live[r], base_live[r], 0.01);
    }
  }
  Check(live_flat, name, "live size levels off after the base load");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::CheckWorkload("housing_cofactor", 1'000'000);
  perfbench::CheckWorkload("keyed_churn", 2'000'000);
  return perfbench::failures == 0 ? 0 : 1;
}
