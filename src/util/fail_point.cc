#include "src/util/fail_point.h"

#include <unistd.h>

#include <cstdlib>
#include <map>
#include <mutex>

#include "src/obs/metrics.h"

namespace fivm::util {
namespace {

// Relaxed armed-site count consulted by the FIVM_FAIL_POINT macro.
std::atomic<int64_t> g_armed_sites{0};

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashSite(const std::string& site) {
  // FNV-1a; stable across platforms so seeded CI sweeps reproduce locally.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : site) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

bool FailPointsArmed() {
  return g_armed_sites.load(std::memory_order_relaxed) > 0;
}

struct FailPointRegistry::Impl {
  struct Site {
    bool armed = false;      // explicitly armed (vs. materialized wildcard)
    double probability = 0;  // probability mode
    uint64_t nth = 0;        // !=0: fire on exactly this evaluation (1-based)
    uint64_t max_fires = 0;  // 0 = unlimited
    uint64_t rng = 0;        // splitmix64 state
    FailAction action = FailAction::kThrow;
    FailPointStats stats;
  };

  mutable std::mutex mu;
  std::map<std::string, Site> sites;
  bool wildcard_armed = false;
  double wildcard_probability = 0;
  uint64_t wildcard_seed = 0;
  uint64_t wildcard_max_fires = 0;
  uint64_t total_fires = 0;
  uint64_t total_evaluations = 0;
  obs::Counter* obs_fires =
      obs::MetricRegistry::Default().GetCounter("failpoint.fires");

  // Count of sites armed (wildcard counts as one); mirrored into
  // g_armed_sites so the hot-path check stays a single atomic load.
  int64_t armed = 0;

  void SetArmed(int64_t delta) {
    armed += delta;
    g_armed_sites.fetch_add(delta, std::memory_order_relaxed);
  }
};

FailPointRegistry::FailPointRegistry() : impl_(new Impl) {}
FailPointRegistry::~FailPointRegistry() { delete impl_; }

FailPointRegistry& FailPointRegistry::Default() {
  static FailPointRegistry* reg = [] {
    auto* r = new FailPointRegistry();
    if (const char* spec = std::getenv("FIVM_FAILPOINTS")) {
      uint64_t seed = 0;
      if (const char* s = std::getenv("FIVM_FAILPOINT_SEED")) {
        seed = std::strtoull(s, nullptr, 10);
      }
      r->ConfigureFromSpec(spec, seed);
    }
    return r;
  }();
  return *reg;
}

void FailPointRegistry::Arm(const std::string& site, double probability,
                            uint64_t seed, uint64_t max_fires,
                            FailAction action) {
  if (probability < 0) probability = 0;
  if (probability > 1) probability = 1;
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto& s = impl_->sites[site];
  if (!s.armed) impl_->SetArmed(+1);
  s.armed = true;
  s.probability = probability;
  s.nth = 0;
  s.max_fires = max_fires;
  s.rng = HashSite(site) ^ seed;
  s.action = action;
  s.stats = {};
}

void FailPointRegistry::ArmNth(const std::string& site, uint64_t nth,
                               FailAction action) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto& s = impl_->sites[site];
  if (!s.armed) impl_->SetArmed(+1);
  s.armed = true;
  s.probability = 0;
  s.nth = nth;
  s.max_fires = 1;
  s.action = action;
  s.stats = {};
}

void FailPointRegistry::ArmAll(double probability, uint64_t seed,
                               uint64_t max_fires) {
  if (probability < 0) probability = 0;
  if (probability > 1) probability = 1;
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (!impl_->wildcard_armed) impl_->SetArmed(+1);
  impl_->wildcard_armed = true;
  impl_->wildcard_probability = probability;
  impl_->wildcard_seed = seed;
  impl_->wildcard_max_fires = max_fires;
}

void FailPointRegistry::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto it = impl_->sites.find(site);
  if (it != impl_->sites.end() && it->second.armed) {
    it->second.armed = false;
    impl_->SetArmed(-1);
  }
}

void FailPointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (auto& [name, s] : impl_->sites) {
    if (s.armed) {
      s.armed = false;
      impl_->SetArmed(-1);
    }
  }
  if (impl_->wildcard_armed) {
    impl_->wildcard_armed = false;
    impl_->SetArmed(-1);
  }
}

FailPointStats FailPointRegistry::Stats(const std::string& site) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto it = impl_->sites.find(site);
  return it == impl_->sites.end() ? FailPointStats{} : it->second.stats;
}

uint64_t FailPointRegistry::TotalFires() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->total_fires;
}

uint64_t FailPointRegistry::TotalEvaluations() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->total_evaluations;
}

bool FailPointRegistry::ConfigureFromSpec(const std::string& spec,
                                          uint64_t seed) {
  bool ok = true;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim whitespace.
    size_t b = entry.find_first_not_of(" \t");
    size_t e = entry.find_last_not_of(" \t");
    if (b == std::string::npos) continue;  // empty entry
    entry = entry.substr(b, e - b + 1);
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      ok = false;
      continue;
    }
    std::string site = entry.substr(0, eq);
    std::string value = entry.substr(eq + 1);

    // Optional "!kill" suffix selects the crash action.
    FailAction action = FailAction::kThrow;
    if (value.size() >= 5 && value.compare(value.size() - 5, 5, "!kill") == 0) {
      action = FailAction::kKill;
      value.resize(value.size() - 5);
    }
    if (value.empty()) {
      ok = false;
      continue;
    }

    if (value[0] == 'n') {
      // "n<N>": fire on exactly the N-th evaluation.
      char* end = nullptr;
      uint64_t nth = std::strtoull(value.c_str() + 1, &end, 10);
      if (end == value.c_str() + 1 || *end != '\0' || nth == 0 ||
          site == "*") {
        ok = false;
        continue;
      }
      ArmNth(site, nth, action);
      continue;
    }

    // "<prob>[/<max_fires>]".
    char* end = nullptr;
    double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || p < 0 || p > 1) {
      ok = false;
      continue;
    }
    uint64_t max_fires = 0;
    if (*end == '/') {
      char* end2 = nullptr;
      max_fires = std::strtoull(end + 1, &end2, 10);
      if (end2 == end + 1 || *end2 != '\0' || max_fires == 0) {
        ok = false;
        continue;
      }
    } else if (*end != '\0') {
      ok = false;
      continue;
    }
    if (site == "*") {
      if (action == FailAction::kKill) {
        // A wildcard kill would take down the process at the first armed
        // site touched anywhere; reject it as almost certainly a typo.
        ok = false;
        continue;
      }
      ArmAll(p, seed, max_fires);
    } else {
      Arm(site, p, seed, max_fires, action);
    }
  }
  return ok;
}

void FailPointRegistry::MaybeFail(const char* site) {
  bool fire = false;
  bool kill = false;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    auto it = impl_->sites.find(site);
    if (it == impl_->sites.end() || !it->second.armed) {
      if (!impl_->wildcard_armed) return;
      // Materialize a per-site stream under the wildcard so the draw
      // sequence for this site is independent of other sites.
      auto& s = impl_->sites[site];
      if (!s.armed) {
        s.armed = true;
        impl_->SetArmed(+1);
        s.probability = impl_->wildcard_probability;
        s.nth = 0;
        s.max_fires = impl_->wildcard_max_fires;
        s.rng = HashSite(site) ^ impl_->wildcard_seed;
        // The wildcard only throws; an action left over from an earlier
        // explicit arming of this site must not turn it into a kill.
        s.action = FailAction::kThrow;
        s.stats = {};
      }
      it = impl_->sites.find(site);
    }
    auto& s = it->second;
    ++s.stats.evaluations;
    ++impl_->total_evaluations;
    if (s.nth != 0) {
      fire = s.stats.evaluations == s.nth && s.stats.fires < s.max_fires;
    } else if (s.probability > 0 &&
               (s.max_fires == 0 || s.stats.fires < s.max_fires)) {
      // 53-bit uniform draw in [0,1).
      double u = static_cast<double>(SplitMix64(&s.rng) >> 11) * 0x1.0p-53;
      fire = u < s.probability;
    }
    if (fire) {
      ++s.stats.fires;
      ++impl_->total_fires;
      impl_->obs_fires->Inc();
      kill = s.action == FailAction::kKill;
    }
  }
  if (fire) {
    // Simulated crash: no unwinding, no atexit, no stream flushes — the
    // process dies exactly as it stands, and only what already hit the
    // filesystem survives for recovery to find.
    if (kill) ::_exit(kKillExitCode);
    throw InjectedFault(site);
  }
}

}  // namespace fivm::util
