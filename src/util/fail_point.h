// Deterministic, seeded fault-injection registry.
//
// A *failpoint* is a named site in the code (e.g. "serve.publish") that can be
// armed to throw util::InjectedFault on a deterministic, seeded schedule.  The
// ingest/serve robustness tests use this to drive chaos sweeps: arm every site
// with a per-seed probability, run a workload, and check engine/serving
// consistency after every injected fault.
//
// Design goals:
//   * Zero cost when nothing is armed: the FIVM_FAIL_POINT macro checks one
//     relaxed atomic and only enters the registry when at least one site is
//     armed.
//   * Determinism: each site draws from its own splitmix64 stream seeded from
//     hash(site) ^ seed, so a given (site, seed) pair always produces the same
//     fire/no-fire sequence regardless of which other sites are armed.  Under
//     concurrency the per-site draw sequence is still fixed; only which thread
//     consumes which draw depends on scheduling.
//   * Env arming for chaos CI: FIVM_FAILPOINTS="serve.publish=0.1,exec.task=0.05"
//     (or "*=0.1" for every site) plus FIVM_FAILPOINT_SEED=<n> arms sites at
//     process start without code changes. Full per-entry grammar:
//
//       site=<prob>                fire with probability <prob>
//       site=<prob>/<max_fires>    ... at most <max_fires> times
//       site=n<N>                  fire on exactly the N-th evaluation
//       ...!kill                   any of the above with `!kill` appended
//                                  _exit()s at the site instead of throwing
//
//     e.g. FIVM_FAILPOINTS="wal.append=0.01!kill,ckpt.rename=n2!kill".
//
// Modes per site:
//   Arm(site, p, seed[, max_fires[, action]])
//       fire each evaluation with probability p, at most max_fires times
//       (0 = unlimited).
//   ArmNth(site, n[, action])
//       fire on exactly the n-th evaluation (1-based); used to target e.g.
//       "the first worker task of a batch".
//
// Actions: FailAction::kThrow (default) raises InjectedFault for the
// supervision paths to retry; FailAction::kKill calls _exit(kKillExitCode)
// at the site — simulated process death for the crash-recovery harness
// (tests/recovery_chaos_test.cc forks a child, arms kill sites, and
// recovers from whatever the dead child left on disk).
#ifndef FIVM_UTIL_FAIL_POINT_H_
#define FIVM_UTIL_FAIL_POINT_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace fivm::util {

// Exception thrown by an armed failpoint.  Supervisors treat it like any other
// transient failure; tests catch it specifically to distinguish injected
// faults from real bugs.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

struct FailPointStats {
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

/// What an armed site does when its schedule fires.
enum class FailAction : uint8_t {
  kThrow,  // throw InjectedFault (supervisors retry past it)
  kKill,   // _exit(kKillExitCode): simulated crash, nothing unwinds/flushes
};

/// Exit code of a kKill fire; distinct from common test-failure codes so a
/// fork-based harness can tell "killed at the armed site" from a real abort.
inline constexpr int kKillExitCode = 86;

class FailPointRegistry {
 public:
  // Process-wide registry.  First call parses FIVM_FAILPOINTS /
  // FIVM_FAILPOINT_SEED from the environment.
  static FailPointRegistry& Default();

  // Probability mode.  p is clamped to [0,1]; max_fires==0 means unlimited.
  void Arm(const std::string& site, double probability, uint64_t seed,
           uint64_t max_fires = 0, FailAction action = FailAction::kThrow);
  // Wildcard: every site evaluated while armed draws from its own stream
  // seeded with `seed`.
  void ArmAll(double probability, uint64_t seed, uint64_t max_fires = 0);
  // Fire on exactly the nth evaluation of `site` (1-based), once.
  void ArmNth(const std::string& site, uint64_t nth,
              FailAction action = FailAction::kThrow);

  void Disarm(const std::string& site);
  void DisarmAll();

  FailPointStats Stats(const std::string& site) const;
  uint64_t TotalFires() const;
  uint64_t TotalEvaluations() const;

  // Parse a comma-separated arming spec; each entry is
  // "site=<prob>[/<max_fires>][!kill]" or "site=n<N>[!kill]" and site may be
  // "*" (probability entries only).  Used for the FIVM_FAILPOINTS env var;
  // exposed for tests.  Returns false on a malformed spec (registry state is
  // unchanged for the malformed entry; well-formed entries before it are
  // applied).
  bool ConfigureFromSpec(const std::string& spec, uint64_t seed);

  // Evaluate `site`; throws InjectedFault when the site's schedule fires.
  // Called via the FIVM_FAIL_POINT macro only when at least one site is armed.
  void MaybeFail(const char* site);

  FailPointRegistry(const FailPointRegistry&) = delete;
  FailPointRegistry& operator=(const FailPointRegistry&) = delete;

 private:
  FailPointRegistry();
  ~FailPointRegistry();
  struct Impl;
  Impl* impl_;
};

// True when at least one site (or the wildcard) is armed.  Cheap: one relaxed
// atomic load; kept outside the registry so the hot-path macro does not pay
// for the Default() init check.
bool FailPointsArmed();

}  // namespace fivm::util

#define FIVM_FAIL_POINT(site)                                      \
  do {                                                             \
    if (::fivm::util::FailPointsArmed()) [[unlikely]] {            \
      ::fivm::util::FailPointRegistry::Default().MaybeFail(site);  \
    }                                                              \
  } while (0)

#endif  // FIVM_UTIL_FAIL_POINT_H_
