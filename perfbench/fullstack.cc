// Full-stack benchmark: one workload through the production pipeline
//
//   IngestService (DurabilityPolicy::kWindow) → DeltaBatcher →
//   ParallelExecutor → IvmEngine → SnapshotServer, with checkpoints,
//   then a cold durability::Recover of the closed-loop phase's log.
//
// Usage (perfbench/run.py builds and calls this):
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --dir <scratch directory for logs>
//
// --trace 0 measures the end-to-end metrics: set-up, a closed-loop phase
// (one unpaced producer, kBlock admission), an open-loop phase at the
// workload's fixed offered rate (kShedNewest, an unreachable degradation
// SLO), and cold recovery. --trace 1 measures the per-layer breakdown: it
// drives the service's window loop itself through the same public calls
// (every other window with one span per call), runs the service phases with
// timed Offer() calls, and splits recovery into checkpoint load and replay.
// Both modes check their results against IvmEngine::Evaluate and the
// recovered state against the live state. See perfbench/README.md for every
// metric's definition.
//
// Output: "ENV", "FLAGS" and "GATES" lines, then the result JSON as the last
// line of standard output.

#include <sched.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "src/core/ivm_engine.h"
#include "src/core/view_tree.h"
#include "src/data/relation_ops.h"
#include "src/durability/checkpoint.h"
#include "src/durability/recovery.h"
#include "src/durability/wal.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/parallel_executor.h"
#include "src/exec/thread_pool.h"
#include "src/ingest/ingest_service.h"
#include "src/ml/cofactor.h"
#include "src/obs/metrics.h"
#include "src/rings/regression_ring.h"
#include "src/rings/ring.h"
#include "src/serve/snapshot_server.h"
#include "src/util/crc32c.h"
#include "src/util/memory_tracker.h"
#include "src/util/simd.h"

namespace perfbench {
namespace {

using fivm::Database;
using fivm::I64Ring;
using fivm::IvmEngine;
using fivm::RegressionRing;
using fivm::Relation;
using fivm::ViewTree;
namespace durability = fivm::durability;
namespace exec = fivm::exec;
namespace ingest = fivm::ingest;
namespace obs = fivm::obs;
namespace serve = fivm::serve;
namespace util = fivm::util;

// ---------------------------------------------------------------------------
// Fixed configuration, identical for every workload and both modes.

/// Flush policy: a window closes at kWindowUpdates buffered updates or when
/// its oldest update is kDeadline old; every window is sealed with one fsync
/// before it is applied. The 10 ms deadline is a group-commit window: with
/// the service's 1 ms default, an open loop paid ~1000 fsyncs a second, and
/// the slowest 1% of them (~7 ms on the development VM's virtual disk) set
/// fresh_p99 on their own.
constexpr size_t kWindowUpdates = 1024;
constexpr std::chrono::microseconds kDeadline{10000};
/// Per-relation admission queue capacity: eight windows in the closed loop
/// (the producer's backpressure bound), 32 in the open loop, where it has
/// to absorb scheduling stalls of the shared machine without shedding.
constexpr size_t kQueueCapacity = 8 * kWindowUpdates;
constexpr size_t kOpenQueueCapacity = 32 * kWindowUpdates;
/// Degradation SLO far above any visibility latency a run can reach, so the
/// service never widens its window during measurement.
constexpr std::chrono::microseconds kUnreachableSlo{30'000'000};
/// Shards of the executor's pool: the service thread plus one worker.
constexpr size_t kShards = 2;
/// Paced reader: one Acquire() + Lookup() every 200 µs.
constexpr double kReadsPerSecond = 5000;
/// Rounds of an untraced run (set-up, closed loop, open loop, recovery).
constexpr int kRounds = 12;
/// Cold recoveries of each recovered log (medians are reported).
constexpr int kRecoveryReps = 3;
/// Set-up runs once per round, and before the rounds until kSetupSeconds
/// have been spent in it (at most kSetupMaxReps times); the median of all
/// repetitions is reported.
constexpr size_t kSetupMaxReps = 60;
constexpr double kSetupSeconds = 2.0;
/// Generator lateness (p99 of an open-loop phase) above which a run is
/// flagged as disturbed.
constexpr double kLateFlagUs = 1000;

/// Per-workload load. The nominal closed-loop rate (the median closed-loop
/// ups measured on a shared 4-vCPU Xeon VM) only sizes the fixed
/// closed-loop stream. The open-loop phase offers a fixed absolute rate of
/// about a sixth of that median, i.e. about a third of the closed-loop ups
/// in the host's slow periods: its capacity swung by 2x within minutes as
/// the hypervisor stole up to a fifth of the machine's CPU time, and at
/// half the median the pipeline saturated whenever the host was busy.
struct Load {
  const char* name;
  double closed_ups;
  double open_rate;
};
constexpr Load kLoads[] = {
    {"housing_cofactor", 230000, 40000},
    {"keyed_churn", 90000, 15000},
};

/// Shares of --seconds given to each measured phase.
constexpr double kClosedShare = 0.45;
constexpr double kOpenShare = 0.45;
constexpr double kLoopShare = 0.4;        // traced: the window loop
constexpr double kTracedClosedShare = 0.15;
constexpr double kTracedOpenShare = 0.3;

/// Checkpoint cadence for a closed-loop phase of `windows` windows: four
/// checkpoints land in the phase and the log ends half an interval past the
/// last one, so recovery always replays the same number of updates.
struct ClosedPlan {
  size_t ckpt_every = 2;  // windows between checkpoints
  size_t updates = 0;
  size_t expected_replay = 0;
};
ClosedPlan PlanClosed(double nominal_updates) {
  const double windows = std::max(9.0, nominal_updates / kWindowUpdates);
  ClosedPlan p;
  p.ckpt_every = std::max<size_t>(2, static_cast<size_t>(windows / 4.5));
  p.updates = (4 * p.ckpt_every + p.ckpt_every / 2) * kWindowUpdates;
  p.expected_replay = (p.ckpt_every / 2) * kWindowUpdates;
  return p;
}

// ---------------------------------------------------------------------------
// Small helpers.

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepUntilNs(uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty sample.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::min(v.size() - 1, k == 0 ? 0 : k - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ordered "name": value pairs rendered as one JSON object.
class JsonObject {
 public:
  void Add(const std::string& k, double v) { fields_.emplace_back(k, Num(v)); }
  void AddInt(const std::string& k, uint64_t v) {
    fields_.emplace_back(k, std::to_string(v));
  }
  void AddBool(const std::string& k, bool v) {
    fields_.emplace_back(k, v ? "true" : "false");
  }
  void AddString(const std::string& k, const std::string& v) {
    fields_.emplace_back(k, JsonString(v));
  }
  void AddRaw(const std::string& k, std::string json) {
    fields_.emplace_back(k, std::move(json));
  }
  std::string Str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i > 0 ? ", " : "") + Num(v[i]);
  return out + "]";
}

/// Metric name → {"value", "unit"} in report order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    JsonObject m;
    m.Add("value", value);
    m.AddString("unit", unit);
    obj_.AddRaw(name, m.Str());
  }
  std::string Str() const { return obj_.Str(); }

 private:
  JsonObject obj_;
};

/// Empties (or creates) the directory `path`.
std::string MakeDir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

// ---------------------------------------------------------------------------
// Environment block: build, machine, dispatch arms and a calibration pair.

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int end = c;
    while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &set)) ++end;
    if (!out.empty()) out += ",";
    out += std::to_string(c);
    if (end > c) out += "-" + std::to_string(end);
    c = end;
  }
  return out;
}

/// Machine-wide CPU ticks from /proc/stat: {steal, total}. The share of
/// steal in a phase says how much of it the hypervisor took from this VM.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  uint64_t total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double StealShare(std::pair<uint64_t, uint64_t> a,
                  std::pair<uint64_t, uint64_t> b) {
  return b.second > a.second ? static_cast<double>(b.first - a.first) /
                                   static_cast<double>(b.second - a.second)
                             : 0.0;
}

/// ns of a fixed dependent multiply-add chain (core clock and frequency).
double CalibrateAluNs() {
  std::vector<double> runs;
  volatile uint64_t seed = 12345;
  for (int r = 0; r < 3; ++r) {
    uint64_t x = seed;
    const uint64_t t0 = NowNs();
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    runs.push_back(static_cast<double>(NowNs() - t0));
    seed = x;
  }
  return Median(runs);
}

/// ns to stream-sum a 32 MiB array twice (memory bandwidth past the LLC
/// share of one core).
double CalibrateMemNs() {
  std::vector<uint64_t> a(4u << 20, 1);
  std::vector<double> runs;
  volatile uint64_t sink = 0;
  for (int r = 0; r < 3; ++r) {
    const uint64_t t0 = NowNs();
    uint64_t s = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t v : a) s += v;
    }
    runs.push_back(static_cast<double>(NowNs() - t0));
    sink = sink + s;
  }
  return Median(runs);
}

/// Filesystem type of `path` (where the write-ahead logs live).
std::string FsType(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

std::string EnvBlock(const std::string& log_dir) {
  JsonObject env;
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  const char* digest = std::getenv("PERFBENCH_SRC_DIGEST");
  env.AddString("git_sha", sha != nullptr ? sha : "unknown");
  env.AddString("src_digest", digest != nullptr ? digest : "unknown");
  env.AddString("build_type", PERFBENCH_BUILD_TYPE);
  env.AddString("compiler", PERFBENCH_COMPILER);
  env.Add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  env.AddString("affinity", AffinityList());
  env.AddString("cpu_model", CpuModel());
  env.AddBool("avx2_active", fivm::simd::Avx2Active());
  env.AddBool("hw_crc_active", util::HardwareCrcActive());
  env.AddBool("metrics_on", FIVM_METRICS_ENABLED != 0 && obs::Enabled());
  env.AddString("log_fs", FsType(log_dir));
  env.Add("calib_alu_ns", CalibrateAluNs());
  env.Add("calib_mem_ns", CalibrateMemNs());
  return env.Str();
}

// ---------------------------------------------------------------------------
// Ring-specific pieces: liftings and store equality.

template <typename Ring>
fivm::LiftingMap<Ring> MakeLifts(const fivm::Query& query,
                                 const ViewTree& tree) {
  if constexpr (std::is_same_v<Ring, RegressionRing>) {
    return fivm::ml::RegressionLiftings(query, tree.AssignAggregateSlots());
  } else {
    (void)query;
    (void)tree;
    return fivm::LiftingMap<Ring>{};
  }
}

/// Regression payloads are sums of doubles whose addition order differs
/// between the live engine, the served segments, recovery's replay batches
/// and re-evaluation, so they match up to rounding. Counts are exact; a
/// zero count is the ring zero up to rounding residue.
bool SamePayload(const fivm::RegressionPayload& a,
                 const fivm::RegressionPayload& b) {
  if (a.count() == 0 && b.count() == 0) return true;
  if (a.count() != b.count()) return false;
  auto close = [](double x, double y) {
    return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y)) +
                                   1e-6;
  };
  const uint32_t lo = std::min(a.lo(), b.lo());
  const uint32_t hi = std::max(a.hi(), b.hi());
  for (uint32_t i = lo; i < hi; ++i) {
    if (!close(a.Sum(i), b.Sum(i))) return false;
    for (uint32_t j = i; j < hi; ++j) {
      if (!close(a.Cofactor(i, j), b.Cofactor(i, j))) return false;
    }
  }
  return true;
}

template <typename Ring>
bool SameStore(const Relation<Ring>& a, const Relation<Ring>& b) {
  if constexpr (std::is_same_v<Ring, RegressionRing>) {
    const fivm::RegressionPayload zero;
    bool ok = true;
    a.ForEach([&](const Tuple& k, const fivm::RegressionPayload& p) {
      const fivm::RegressionPayload* q = b.Find(k);
      if (!SamePayload(p, q != nullptr ? *q : zero)) ok = false;
    });
    b.ForEach([&](const Tuple& k, const fivm::RegressionPayload& p) {
      if (a.Find(k) == nullptr && !SamePayload(p, zero)) ok = false;
    });
    return ok;
  } else {
    return fivm::ContentEquals(a, b);
  }
}

template <typename Ring>
typename Ring::Element Payload(int32_t sign) {
  return sign > 0 ? Ring::One() : Ring::Neg(Ring::One());
}

// ---------------------------------------------------------------------------
// The stack under test.

/// A write-ahead log directory with its writer and checkpointer.
template <typename Ring>
struct Log {
  Log(std::string d, IvmEngine<Ring>* engine, uint64_t min_lsn = 0,
      uint64_t min_update_index = 0)
      : dir(MakeDir(d)),
        wal(dir, durability::WalWriter::Options{}, min_lsn, min_update_index),
        ckpt(dir, engine, &wal) {}
  std::string dir;
  durability::WalWriter wal;
  durability::Checkpointer<Ring> ckpt;
};

/// View tree, engine (Initialize()d on `base`), executor pool, batcher and,
/// when `log_dir` is non-empty, snapshot server and log: everything set-up
/// builds. Without a log directory this is the cold stack recovery targets.
template <typename Ring>
struct Stack {
  Stack(const Inputs& in, const Database<Ring>& base,
        const std::string& log_dir) {
    tree = std::make_unique<ViewTree>(in.query, in.vorder);
    tree->ComputeMaterialization(in.updatable);
    engine = std::make_unique<IvmEngine<Ring>>(
        tree.get(), MakeLifts<Ring>(*in.query, *tree));
    engine->Initialize(base);
    pool = std::make_unique<exec::ThreadPool>(kShards);
    executor = std::make_unique<exec::ParallelExecutor<Ring>>(
        engine.get(), pool.get(),
        typename exec::ParallelExecutor<Ring>::Options{.shards = kShards});
    batcher = std::make_unique<exec::DeltaBatcher<Ring>>(&engine->plans(),
                                                         /*capacity=*/0);
    if (!log_dir.empty()) {
      server = std::make_unique<serve::SnapshotServer<Ring>>(engine.get());
      log = std::make_unique<Log<Ring>>(log_dir, engine.get());
    }
  }

  /// Replaces the log with a fresh one in `dir` that continues the current
  /// log's numbering, and checkpoints into it so it is recoverable alone.
  void RollLog(const std::string& dir) {
    const uint64_t lsn = log->wal.next_lsn();
    const uint64_t index = log->wal.next_update_index();
    log.reset();
    log = std::make_unique<Log<Ring>>(dir, engine.get(), lsn, index);
    log->ckpt.WriteCheckpoint();
  }

  std::unique_ptr<ViewTree> tree;
  std::unique_ptr<IvmEngine<Ring>> engine;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<exec::ParallelExecutor<Ring>> executor;
  std::unique_ptr<exec::DeltaBatcher<Ring>> batcher;
  std::unique_ptr<serve::SnapshotServer<Ring>> server;
  std::unique_ptr<Log<Ring>> log;
};

template <typename Ring>
Database<Ring> BaseDatabase(const Inputs& in) {
  Database<Ring> db = fivm::MakeDatabase<Ring>(*in.query);
  for (const auto& [rel, key] : in.base) {
    db[static_cast<size_t>(rel)].Add(*key, Ring::One());
  }
  return db;
}

/// Sum of the image bytes of checkpoints written into a log directory,
/// polled between flushes (at most one checkpoint lands per flush, and the
/// checkpointer keeps the two newest, so no image goes unseen).
class CheckpointBytes {
 public:
  explicit CheckpointBytes(const std::string& dir) : dir_(dir) {
    for (const auto& m : durability::ListCheckpoints(dir_)) {
      seen_.push_back(m.lsn);  // written before the phase
    }
  }
  void Poll() {
    for (const auto& m : durability::ListCheckpoints(dir_)) {
      if (std::find(seen_.begin(), seen_.end(), m.lsn) != seen_.end()) {
        continue;
      }
      seen_.push_back(m.lsn);
      std::error_code ec;
      const uintmax_t size = std::filesystem::file_size(m.path, ec);
      bytes_ += ec ? 0 : size;
      ++count_;
    }
  }
  uint64_t bytes() const { return bytes_; }
  uint64_t count() const { return count_; }

 private:
  std::string dir_;
  std::vector<uint64_t> seen_;
  uint64_t bytes_ = 0;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// The paced reader thread.

template <typename Ring>
class Reader {
 public:
  Reader(int64_t domain, uint64_t seed, size_t capacity, bool split)
      : domain_(domain), rng_(seed), split_(split) {
    read_ns_.reserve(capacity);
    if (split_) {
      acquire_ns_.reserve(capacity);
      lookup_ns_.reserve(capacity);
    }
  }
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Reads from `server` until Stop(); samples accumulate across starts.
  void Start(const serve::SnapshotServer<Ring>* server) {
    server_ = server;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  const std::vector<uint32_t>& read_ns() const { return read_ns_; }
  const std::vector<uint32_t>& acquire_ns() const { return acquire_ns_; }
  const std::vector<uint32_t>& lookup_ns() const { return lookup_ns_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t misses() const { return misses_; }

 private:
  static uint32_t Clamp(uint64_t ns) {
    return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
  }

  void Loop() {
    const uint64_t period = static_cast<uint64_t>(1e9 / kReadsPerSecond);
    uint64_t next = NowNs();
    typename Ring::Element out{};
    while (!stop_.load(std::memory_order_relaxed)) {
      next += period;
      const uint64_t now = NowNs();
      if (now < next) {
        SleepUntilNs(next);
      } else if (now > next + 100 * period) {
        next = now;  // a long stall: resume the schedule, do not burst
      }
      const Tuple key = domain_ > 0
                            ? Tuple::Ints({rng_.UniformInt(0, domain_ - 1)})
                            : Tuple::Empty();
      ++attempted_;
      const uint64_t t0 = NowNs();
      auto snap = server_->TryAcquire();
      if (!snap.has_value()) {
        ++misses_;
        continue;
      }
      const uint64_t t1 = split_ ? NowNs() : 0;
      snap->Lookup(key, &out);
      const uint64_t t2 = NowNs();
      snap.reset();
      if (read_ns_.size() < read_ns_.capacity()) {
        read_ns_.push_back(Clamp(t2 - t0));
        if (split_) {
          acquire_ns_.push_back(Clamp(t1 - t0));
          lookup_ns_.push_back(Clamp(t2 - t1));
        }
      }
    }
  }

  const serve::SnapshotServer<Ring>* server_ = nullptr;
  int64_t domain_;
  util::Rng rng_;
  bool split_;
  std::atomic<bool> stop_{false};
  std::vector<uint32_t> read_ns_, acquire_ns_, lookup_ns_;
  uint64_t attempted_ = 0;
  uint64_t misses_ = 0;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Service phases.

ingest::ServiceOptions BaseOptions(ingest::AdmissionPolicy admission,
                                   size_t ckpt_every) {
  ingest::ServiceOptions o;
  o.flush_updates = kWindowUpdates;
  o.flush_deadline = kDeadline;
  o.visibility_slo = kUnreachableSlo;
  o.merge_each_flush = true;
  o.default_queue = {admission,
                     admission == ingest::AdmissionPolicy::kBlock
                         ? kQueueCapacity
                         : kOpenQueueCapacity};
  o.durability = ingest::DurabilityPolicy::kWindow;
  o.checkpoint_every_flushes = ckpt_every;
  return o;
}

struct ServiceResult {
  double seconds = 0;
  ingest::IngestStats stats;
  uint64_t wal_bytes = 0;
  uint64_t ckpt_bytes = 0;
  uint64_t ckpt_count = 0;
  std::vector<size_t> shed_index;  // stream indices the service refused
};

/// Per-update samples of one open-loop phase. Allocated up front (before the
/// memory baseline is taken) and reused across phases.
struct OpenSamples {
  OpenSamples(size_t n, bool traced_offers) : traced(traced_offers) {
    fresh_ns.reserve(n);
    late_ns.reserve(n);
    admitted_at.resize(n);
    if (traced) {
      offer_ns.reserve(n);
      depth.reserve(n);
    }
  }
  void Clear() {
    fresh_ns.clear();
    late_ns.clear();
    offer_ns.clear();
    depth.clear();
  }
  std::vector<uint32_t> fresh_ns;     // per admitted update: due → published
  std::vector<uint32_t> late_ns;      // per offered update: due → offered
  std::vector<uint32_t> offer_ns;     // timed Offer() calls (traced)
  std::vector<uint32_t> depth;        // queue depth after each Offer (traced)
  std::vector<uint32_t> admitted_at;  // admission order → stream offset
  bool traced;                        // time each Offer() call
};

/// Closed loop: one unpaced producer offers `n` updates under kBlock; the
/// clock runs from the first Offer until Stop() returns.
template <typename Ring>
ServiceResult RunClosed(Stack<Ring>& st, const Update* ups, size_t n,
                        size_t ckpt_every) {
  ServiceResult r;
  ingest::IngestService<Ring> svc(
      st.engine.get(), st.executor.get(), st.batcher.get(), st.server.get(),
      BaseOptions(ingest::AdmissionPolicy::kBlock, ckpt_every));
  svc.AttachDurability(&st.log->wal, &st.log->ckpt);
  CheckpointBytes ckpt(st.log->dir);
  uint64_t seen_ckpts = 0;
  svc.SetVisibilityProbe([&](uint64_t) {
    const uint64_t c = svc.GetStats().checkpoints;
    if (c != seen_ckpts) {
      seen_ckpts = c;
      ckpt.Poll();
    }
  });
  const uint64_t wal0 = st.log->wal.stats().bytes_written;
  const typename Ring::Element plus = Ring::One();
  const typename Ring::Element minus = Ring::Neg(Ring::One());
  svc.Start();
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < n; ++i) {
    svc.Offer(ups[i].relation, *ups[i].key, ups[i].sign > 0 ? plus : minus);
  }
  svc.Stop();
  r.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  ckpt.Poll();
  r.stats = svc.GetStats();
  r.wal_bytes = st.log->wal.stats().bytes_written - wal0;
  r.ckpt_bytes = ckpt.bytes();
  r.ckpt_count = ckpt.count();
  return r;
}

/// Open loop: update i is due at start + i / rate whether or not earlier
/// ones were admitted; kShedNewest refuses what does not fit. Freshness runs
/// from an update's due time to the end of the flush that published it: the
/// visibility probe fires right after apply + publish, and the updates still
/// queued (queue_depth) are the admitted ones it did not cover. The covered
/// ones are taken as the oldest admitted ones. That holds while a flush
/// takes everything queued, i.e. on deadline flushes below the window
/// budget; a size-triggered flush takes its budget relation by relation,
/// not oldest-first, so open-loop size flushes are flagged as a disturbance
/// (Flags). No periodic checkpoint runs here (the closed loop and recovery
/// measure them), so freshness percentiles do not depend on where a
/// checkpoint happens to fall in a short phase.
template <typename Ring>
ServiceResult RunOpen(Stack<Ring>& st, const Update* ups, size_t n,
                      size_t first_index, double rate, OpenSamples& smp) {
  ServiceResult r;
  const bool traced = smp.traced;
  smp.Clear();
  if (smp.admitted_at.size() < n) throw std::logic_error("OpenSamples size");
  ingest::IngestService<Ring> svc(
      st.engine.get(), st.executor.get(), st.batcher.get(), st.server.get(),
      BaseOptions(ingest::AdmissionPolicy::kShedNewest, /*ckpt_every=*/0));
  svc.AttachDurability(&st.log->wal, &st.log->ckpt);

  uint64_t start = 0;  // set before the first Offer
  auto due = [&](size_t i) {
    return start + static_cast<uint64_t>(static_cast<double>(i) * 1e9 / rate);
  };
  std::vector<uint32_t>& admitted_at = smp.admitted_at;
  std::mutex admit_mu;  // orders Offer() against the probe's depth read
  size_t admitted = 0;  // guarded by admit_mu
  size_t published = 0; // service thread only
  svc.SetVisibilityProbe([&](uint64_t) {
    const uint64_t end = NowNs();
    size_t covered;
    {
      std::lock_guard<std::mutex> lk(admit_mu);
      covered = admitted - svc.queue_depth();
    }
    for (; published < covered; ++published) {
      const uint64_t d = due(admitted_at[published]);
      smp.fresh_ns.push_back(static_cast<uint32_t>(
          std::min<uint64_t>(end > d ? end - d : 0, UINT32_MAX)));
    }
  });

  const uint64_t wal0 = st.log->wal.stats().bytes_written;
  const typename Ring::Element plus = Ring::One();
  const typename Ring::Element minus = Ring::Neg(Ring::One());
  svc.Start();
  start = NowNs() + 1'000'000;
  size_t i = 0;
  while (i < n) {
    uint64_t now = NowNs();
    if (now < due(i)) {
      SleepUntilNs(due(i));
      continue;
    }
    while (i < n && due(i) <= now) {
      smp.late_ns.push_back(
          static_cast<uint32_t>(std::min<uint64_t>(now - due(i), UINT32_MAX)));
      const Update& u = ups[i];
      bool ok;
      {
        std::lock_guard<std::mutex> lk(admit_mu);
        const uint64_t t0 = traced ? NowNs() : 0;
        ok = svc.Offer(u.relation, *u.key, u.sign > 0 ? plus : minus);
        if (traced) {
          smp.offer_ns.push_back(static_cast<uint32_t>(NowNs() - t0));
          smp.depth.push_back(static_cast<uint32_t>(svc.queue_depth()));
        }
        if (ok) admitted_at[admitted++] = static_cast<uint32_t>(i);
      }
      if (!ok) r.shed_index.push_back(first_index + i);
      ++i;
      now = NowNs();
    }
  }
  svc.Stop();
  r.seconds = static_cast<double>(NowNs() - start) / 1e9;
  r.stats = svc.GetStats();
  r.wal_bytes = st.log->wal.stats().bytes_written - wal0;
  return r;
}

// ---------------------------------------------------------------------------
// The traced window loop: IngestService::FlushWindow's calls, made by the
// benchmark so that each one can be timed.

struct WindowSpans {
  uint64_t total = 0;  // the whole loop iteration, queue refill included
  uint64_t append = 0, seal = 0, push = 0, flush = 0, apply = 0, publish = 0,
           merge = 0, ckpt = 0;
  uint32_t updates = 0, keys = 0;
  bool traced = false, merged = false, checkpointed = false;

  uint64_t Covered() const {
    return append + seal + push + flush + apply + merge + ckpt;
  }
};

struct LoopResult {
  std::vector<WindowSpans> windows;
  std::vector<uint32_t> publish_ns;  // traced windows
  std::vector<uint32_t> segments;    // served segments after each publish
  uint64_t wal_bytes = 0;
  uint64_t ckpt_bytes = 0;
  uint64_t ckpt_count = 0;
};

/// Windows of kWindowUpdates updates, in FlushWindow's order: WAL append →
/// seal (fsync) → batcher push → flush → ParallelExecutor::ApplyBatch (whose
/// post-batch hook publishes) → MergeStep → every `ckpt_every` windows a
/// checkpoint. Windows are composed as the closed-loop service composes
/// them: a saturating producer fills per-relation queues of kQueueCapacity
/// in stream order until the next update's queue is full, and each window
/// takes its updates relation by relation (IngestService's
/// MoveQueuedToBatcher). Every other window is traced: each call (or
/// per-update call loop) is timed on its own. Untraced windows take only
/// their total time, so the two halves, interleaved, give the trace's
/// overhead without a drift between phases.
template <typename Ring>
LoopResult RunWindowLoop(Stack<Ring>& st, const Update* ups, size_t n,
                         size_t ckpt_every) {
  LoopResult r;
  const size_t windows = (n + kWindowUpdates - 1) / kWindowUpdates;
  r.windows.reserve(windows);
  r.publish_ns.reserve(windows * 8);
  r.segments.reserve(windows * 8);
  WindowSpans w;
  st.executor->SetPostBatchHook([&] {
    if (!w.traced) {
      st.server->Publish();
      return;
    }
    const uint64_t t0 = NowNs();
    st.server->Publish();
    const uint64_t d = NowNs() - t0;
    w.publish += d;
    r.publish_ns.push_back(static_cast<uint32_t>(d));
    r.segments.push_back(static_cast<uint32_t>(st.server->SegmentCount()));
  });
  // Runs `fn`, adding its duration to `*ns` in traced windows.
  auto span = [&w](uint64_t* ns, auto&& fn) {
    if (!w.traced) {
      fn();
      return;
    }
    const uint64_t t0 = NowNs();
    fn();
    *ns += NowNs() - t0;
  };
  CheckpointBytes ckpt(st.log->dir);
  durability::WalWriter& wal = st.log->wal;
  const uint64_t wal0 = wal.stats().bytes_written;
  const typename Ring::Element plus = Ring::One();
  const typename Ring::Element minus = Ring::Neg(Ring::One());
  std::vector<std::deque<uint32_t>> queues(
      static_cast<size_t>(st.tree->query().relation_count()));
  std::vector<uint32_t> window;
  window.reserve(kWindowUpdates);
  size_t next = 0;
  while (true) {
    w = WindowSpans{};
    w.traced = r.windows.size() % 2 == 0;
    const uint64_t start = NowNs();
    while (next < n && queues[static_cast<size_t>(ups[next].relation)].size() <
                           kQueueCapacity) {
      queues[static_cast<size_t>(ups[next].relation)].push_back(
          static_cast<uint32_t>(next));
      ++next;
    }
    window.clear();
    for (auto& q : queues) {
      while (!q.empty() && window.size() < kWindowUpdates) {
        window.push_back(q.front());
        q.pop_front();
      }
    }
    if (window.empty()) break;
    span(&w.append, [&] {
      for (uint32_t i : window) {
        wal.Append<Ring>(ups[i].relation, *ups[i].key,
                         ups[i].sign > 0 ? plus : minus);
      }
    });
    span(&w.seal, [&] { wal.Seal(/*sync=*/true); });
    span(&w.push, [&] {
      for (uint32_t i : window) {
        st.batcher->Push(ups[i].relation, *ups[i].key,
                         ups[i].sign > 0 ? plus : minus);
      }
    });
    std::vector<typename exec::DeltaBatcher<Ring>::Batch> batches;
    span(&w.flush, [&] { batches = st.batcher->Flush(); });
    for (auto& b : batches) {
      w.keys += static_cast<uint32_t>(b.delta.size());
      span(&w.apply, [&] {
        st.executor->ApplyBatch(b.relation, std::move(b.delta));
      });
    }
    span(&w.merge, [&] { w.merged = st.server->MergeStep() > 0; });
    if ((r.windows.size() + 1) % ckpt_every == 0) {
      // Timed in every window: checkpoints are few, and their spacing need
      // not fall on traced windows.
      const uint64_t t0 = NowNs();
      st.log->ckpt.WriteCheckpoint();
      w.ckpt = NowNs() - t0;
      w.checkpointed = true;
      ckpt.Poll();  // before the checkpointer's GC removes the image
    }
    w.updates = static_cast<uint32_t>(window.size());
    w.total = NowNs() - start;
    r.windows.push_back(w);
  }
  st.executor->SetPostBatchHook(nullptr);
  ckpt.Poll();
  r.wal_bytes = wal.stats().bytes_written - wal0;
  r.ckpt_bytes = ckpt.bytes();
  r.ckpt_count = ckpt.count();
  return r;
}

// ---------------------------------------------------------------------------
// Per-step sums from IvmEngine::ExplainAnalyze().

struct StepSums {
  double join_ns = 0, marg_ns = 0, absorb_ns = 0;
  double join_in = 0, join_out = 0, allocs = 0;
};

StepSums ParseExplain(const std::string& text) {
  StepSums s;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t dot = line.find(". ");
    const size_t ann = line.find("[calls=");
    if (dot == std::string::npos || ann == std::string::npos) continue;
    unsigned long long calls = 0, in = 0, out = 0, allocs = 0;
    double ms = 0;
    if (std::sscanf(line.c_str() + ann,
                    "[calls=%llu in=%llu out=%llu time=%lfms allocs=%llu]",
                    &calls, &in, &out, &ms, &allocs) != 5) {
      continue;
    }
    const std::string step = line.substr(dot + 2);
    s.allocs += static_cast<double>(allocs);
    if (step.rfind("join", 0) == 0) {
      s.join_ns += ms * 1e6;
      s.join_in += static_cast<double>(in);
      s.join_out += static_cast<double>(out);
    } else if (step.rfind("store", 0) == 0) {
      s.absorb_ns += ms * 1e6;
    } else {
      s.marg_ns += ms * 1e6;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// One run.

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  JsonObject flags;
  JsonObject gates;
};

template <typename Ring>
class Run {
 public:
  Run(const Inputs& in, uint64_t seed, double seconds, std::string dir)
      : in_(in), seed_(seed), seconds_(seconds), dir_(std::move(dir)) {
    for (const Load& l : kLoads) {
      if (in.name == l.name) load_ = l;
    }
  }

  Outcome Untraced() {
    Outcome o;
    // kRounds rounds, each the whole sequence on a freshly built stack: set-up
    // (Initialize the base), closed loop, open loop, cold recovery. Every
    // round replays the same stream prefix from the base, so the rounds are
    // repetitions of one measurement, each with its own allocations.
    // Set-up and recovery times and memory peaks are medians of the
    // per-repetition values, so a burst of interference from the host only
    // moves the repetitions it hits. Interference only ever lowers a round's
    // rate and raises its latency tail, and it often hits more than half of
    // a run's rounds (see perfbench/README.md), so the closed-loop rate is
    // the upper quartile of the per-round rates and p99 latencies are the
    // lower quartile of the per-round p99s. Medians pool every round's
    // samples.
    const ClosedPlan closed = PlanClosed(load_.closed_ups * seconds_ *
                                         kClosedShare / kRounds);
    const double open_seconds = seconds_ * kOpenShare / kRounds;
    const size_t open_n = static_cast<size_t>(load_.open_rate * open_seconds);
    Require(closed.updates + open_n);

    const Database<Ring> base = BaseDatabase<Ring>(in_);
    OpenSamples samples(open_n, /*traced_offers=*/false);
    std::vector<uint32_t> fresh_ns;  // every round's open-loop samples
    fresh_ns.reserve(kRounds * open_n);
    Reader<Ring> reader(in_.read_domain, seed_ ^ 0x5eadULL,
                        static_cast<size_t>(kReadsPerSecond * (seconds_ + 30)),
                        /*split=*/false);
    // Everything the benchmark itself holds is allocated by now.
    const int64_t own_bytes = util::MemoryTracker::CurrentBytes();
    std::vector<double> setup_s;
    std::unique_ptr<Stack<Ring>> st;
    auto build = [&] {
      st.reset();
      util::MemoryTracker::ResetPeak();
      const uint64_t t0 = NowNs();
      st = std::make_unique<Stack<Ring>>(in_, base, dir_ + "/closed");
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    };
    // Extra set-up repetitions before the rounds, so that short set-ups
    // are sampled often enough for a steady median.
    for (double spent = 0; setup_s.size() < kSetupMaxReps &&
                           spent < kSetupSeconds;) {
      build();
      spent += setup_s.back();
    }

    std::vector<ServiceResult> closed_runs, open_runs;
    std::vector<double> ups, f50, f99, late99, rec_s, steal, peak_mb, r99;
    std::vector<uint64_t> replayed;
    for (int round = 0; round < kRounds; ++round) {
      const bool last = round == kRounds - 1;
      build();
      st->log->ckpt.WriteCheckpoint();  // the base: a recoverable log
      const auto ticks0 = CpuTicks();
      const size_t reads_before = reader.read_ns().size();
      reader.Start(st->server.get());
      closed_runs.push_back(RunClosed(*st, in_.stream.data(), closed.updates,
                                      closed.ckpt_every));
      recover_dir_ = st->log->dir;
      if (last) {
        // The last recovery must reproduce the live stores at this stop.
        WriteReference(*st, st->log->wal.last_sealed_lsn(),
                       st->log->wal.next_update_index());
      }
      st->RollLog(dir_ + "/open");
      open_runs.push_back(RunOpen(*st, in_.stream.data() + closed.updates,
                                  open_n, closed.updates, load_.open_rate,
                                  samples));
      reader.Stop();
      steal.push_back(StealShare(ticks0, CpuTicks()));
      peak_mb.push_back(
          static_cast<double>(util::MemoryTracker::PeakBytes() - own_bytes) /
          1e6);
      const auto& reads = reader.read_ns();
      r99.push_back(Quantile(std::vector<uint32_t>(reads.begin() + reads_before,
                                                   reads.end()),
                             0.99) /
                    1e3);
      // Cold recoveries of this round's closed-loop log; their memory is not
      // part of the live peak.
      RecoveryRun rec;
      for (int rep = 0; rep < kRecoveryReps; ++rep) {
        rec = RecoverOnce(o, /*split=*/false, /*verify=*/last && rep == 0);
        rec_s.push_back(rec.total_s);
        replayed.push_back(rec.rr.updates_replayed);
      }
      if (last) RecoveryFlags(o, rec.rr, closed.expected_replay, replayed);

      const ServiceResult& c = closed_runs.back();
      ups.push_back(static_cast<double>(c.stats.admitted) / c.seconds);
      f50.push_back(Quantile(samples.fresh_ns, 0.5) / 1e6);
      f99.push_back(Quantile(samples.fresh_ns, 0.99) / 1e6);
      late99.push_back(Quantile(samples.late_ns, 0.99) / 1e3);
      fresh_ns.insert(fresh_ns.end(), samples.fresh_ns.begin(),
                      samples.fresh_ns.end());
    }
    uint64_t wal_bytes = 0, ckpt_bytes = 0, admitted = 0;
    for (const ServiceResult& r : closed_runs) {
      wal_bytes += r.wal_bytes;
      ckpt_bytes += r.ckpt_bytes;
      admitted += r.stats.admitted;
    }
    FinalGates(o, *st, closed.updates + open_n, open_runs.back().shed_index);
    Account(o, closed_runs, open_runs, reader);

    o.metrics.Set("setup_s", Median(setup_s), "s");
    o.metrics.Set("ups", Quantile(ups, 0.75), "1/s");
    o.metrics.Set("fresh_p50_ms", Quantile(fresh_ns, 0.5) / 1e6, "ms");
    o.metrics.Set("read_p50_us", Quantile(reader.read_ns(), 0.5) / 1e3, "us");
    o.metrics.Set("read_p99_us", Quantile(r99, 0.25), "us");
    o.metrics.Set("recover_s", Median(rec_s), "s");
    o.metrics.Set("peak_mem_mb", Median(peak_mb), "MB");
    o.metrics.Set("disk_bytes_per_update",
                  static_cast<double>(wal_bytes + ckpt_bytes) /
                      static_cast<double>(admitted),
                  "B");

    Flags(o, closed_runs, open_runs, late99);
    o.flags.Add("rounds", kRounds);
    o.flags.Add("closed_updates_per_round", static_cast<double>(closed.updates));
    o.flags.Add("open_updates_per_round", static_cast<double>(open_n));
    o.flags.Add("open_rate", load_.open_rate);
    o.flags.AddRaw("round_ups", JsonArray(ups));
    o.flags.AddRaw("round_fresh_p50_ms", JsonArray(f50));
    // Reported, not gated: on a shared VM this tail tracks the host's
    // interference more than the program (see README).
    o.flags.Add("fresh_p99_ms", Quantile(f99, 0.25));
    o.flags.AddRaw("round_fresh_p99_ms", JsonArray(f99));
    o.flags.AddRaw("round_read_p99_us", JsonArray(r99));
    o.flags.AddRaw("round_recover_s", JsonArray(rec_s));
    o.flags.AddRaw("round_host_steal", JsonArray(steal));
    o.flags.AddRaw("round_peak_mem_mb", JsonArray(peak_mb));
    o.flags.Add("setup_reps", static_cast<double>(setup_s.size()));
    o.flags.Add("setup_s_min", *std::min_element(setup_s.begin(),
                                                  setup_s.end()));
    o.flags.Add("setup_s_max", *std::max_element(setup_s.begin(),
                                                  setup_s.end()));
    st.reset();
    return o;
  }

  Outcome Traced() {
    Outcome o;
    const ClosedPlan loop = PlanClosed(load_.closed_ups * seconds_ *
                                       kLoopShare);
    const ClosedPlan closed = PlanClosed(load_.closed_ups * seconds_ *
                                         kTracedClosedShare);
    const size_t closed_n = closed.updates;
    const double open_seconds = seconds_ * kTracedOpenShare;
    const size_t open_n = static_cast<size_t>(load_.open_rate * open_seconds);
    Require(loop.updates + closed_n + open_n);
    const Database<Ring> base = BaseDatabase<Ring>(in_);
    Reader<Ring> reader(in_.read_domain, seed_ ^ 0x5eadULL,
                        static_cast<size_t>(kReadsPerSecond * (seconds_ + 30)),
                        /*split=*/true);
    auto st = std::make_unique<Stack<Ring>>(in_, base, dir_ + "/closed");
    st->log->ckpt.WriteCheckpoint();  // the base: recoverable log
    const Update* next = in_.stream.data();

    auto& reg = obs::MetricRegistry::Default();
    reg.ResetAll();
    const StepSums steps0 = ParseExplain(st->engine->ExplainAnalyze());
    const int64_t rehash0 = util::MemoryTracker::RehashCount();
    const uint64_t merged_keys0 = st->server->MergedKeys();
    const uint64_t merges0 = st->server->MergeCount();
    reader.Start(st->server.get());
    const LoopResult traced =
        RunWindowLoop(*st, next, loop.updates, loop.ckpt_every);
    reader.Stop();
    next += loop.updates;
    const StepSums steps1 = ParseExplain(st->engine->ExplainAnalyze());
    const obs::MetricsSnapshot snap = reg.Snapshot();
    const int64_t rehashes = util::MemoryTracker::RehashCount() - rehash0;
    const uint64_t merged_keys = st->server->MergedKeys() - merged_keys0;
    const uint64_t merges = st->server->MergeCount() - merges0;
    const std::vector<uint32_t> acquire_ns = reader.acquire_ns();
    const std::vector<uint32_t> lookup_ns = reader.lookup_ns();
    recover_dir_ = st->log->dir;
    WriteReference(*st, st->log->wal.last_sealed_lsn(),
                   st->log->wal.next_update_index());

    // The service phases, for the admission layer.
    st->RollLog(dir_ + "/service");
    reader.Start(st->server.get());
    ServiceResult c = RunClosed(*st, next, closed_n, closed.ckpt_every);
    next += closed_n;
    st->RollLog(dir_ + "/open");
    OpenSamples smp(open_n, /*traced_offers=*/true);
    ServiceResult op = RunOpen(*st, next, open_n,
                               static_cast<size_t>(next - in_.stream.data()),
                               load_.open_rate, smp);
    reader.Stop();

    std::vector<double> load_s, total_s;
    RecoveryRun rec;
    for (int rep = 0; rep < kRecoveryReps; ++rep) {
      rec = RecoverOnce(o, /*split=*/true, /*verify=*/rep == 0);
      load_s.push_back(rec.load_s);
      total_s.push_back(rec.total_s);
    }
    RecoveryFlags(o, rec.rr, loop.expected_replay, {rec.rr.updates_replayed});
    FinalGates(o, *st, static_cast<size_t>(next - in_.stream.data()) + open_n,
               op.shed_index);
    Account(o, {c}, {op}, reader);
    o.attempted += loop.updates;
    Flags(o, {c}, {op}, {Quantile(smp.late_ns, 0.99) / 1e3});

    Metrics& m = o.metrics;
    // Span sums are over the traced half of the windows; engine and registry
    // counters over all of them.
    uint64_t traced_updates = 0;
    for (const WindowSpans& w : traced.windows) {
      if (w.traced) traced_updates += w.updates;
    }
    const double n = static_cast<double>(traced_updates);
    const double n_all = static_cast<double>(loop.updates);
    // ingest
    m.Set("ingest.offer_p50_ns", Quantile(smp.offer_ns, 0.5), "ns");
    m.Set("ingest.offer_p99_ns", Quantile(smp.offer_ns, 0.99), "ns");
    m.Set("ingest.queue_depth_p99", Quantile(smp.depth, 0.99), "count");
    m.Set("ingest.updates_per_window",
          static_cast<double>(op.stats.admitted) /
              static_cast<double>(std::max<uint64_t>(1, op.stats.flushes)),
          "count");
    m.Set("ingest.shed", static_cast<double>(op.stats.shed + op.stats.dropped),
          "count");
    m.Set("ingest.blocks", static_cast<double>(c.stats.blocks), "count");
    m.Set("ingest.degrade_transitions",
          static_cast<double>(op.stats.degrade_enters + op.stats.degrade_exits),
          "count");
    m.Set("gen.late_p99_us", Quantile(smp.late_ns, 0.99) / 1e3, "us");
    // durability
    std::vector<uint64_t> seal, flush, apply, merge, ckpt_ns;
    uint64_t append = 0, push = 0, covered = 0, keys = 0;
    // Window time outside checkpoints, per half: the overhead comparison.
    double time_on = 0, time_off = 0, updates_on = 0, updates_off = 0;
    uint64_t traced_total = 0;
    for (const WindowSpans& w : traced.windows) {
      if (w.checkpointed) {
        ckpt_ns.push_back(w.ckpt);
      } else {
        (w.traced ? time_on : time_off) += static_cast<double>(w.total);
        (w.traced ? updates_on : updates_off) += w.updates;
      }
      if (!w.traced) continue;
      traced_total += w.total;
      append += w.append;
      push += w.push;
      keys += w.keys;
      seal.push_back(w.seal);
      flush.push_back(w.flush);
      apply.push_back(w.apply - w.publish);
      if (w.merged) merge.push_back(w.merge);
      covered += w.Covered();
    }
    m.Set("wal.append_ns_per_update", static_cast<double>(append) / n, "ns");
    m.Set("wal.seal_p50_us", Quantile(seal, 0.5) / 1e3, "us");
    m.Set("wal.seal_p99_us", Quantile(seal, 0.99) / 1e3, "us");
    m.Set("wal.bytes_per_update", static_cast<double>(traced.wal_bytes) / n_all,
          "B");
    m.Set("ckpt.write_ms_p50", Quantile(ckpt_ns, 0.5) / 1e6, "ms");
    m.Set("ckpt.bytes",
          traced.ckpt_count > 0 ? static_cast<double>(traced.ckpt_bytes) /
                                      static_cast<double>(traced.ckpt_count)
                                : 0.0,
          "B");
    m.Set("ckpt.count", static_cast<double>(traced.ckpt_count), "count");
    const double load = Median(load_s);
    m.Set("recovery.load_ms", load * 1e3, "ms");
    m.Set("recovery.replay_ups",
          static_cast<double>(rec.rr.updates_replayed) /
              std::max(1e-9, Median(total_s) - load),
          "1/s");
    m.Set("recovery.updates_replayed",
          static_cast<double>(rec.rr.updates_replayed), "count");
    // exec
    m.Set("batcher.push_ns_per_update", static_cast<double>(push) / n, "ns");
    m.Set("batcher.flush_us_p50", Quantile(flush, 0.5) / 1e3, "us");
    m.Set("batcher.keys_per_update", static_cast<double>(keys) / n, "count");
    m.Set("exec.apply_ms_p50", Quantile(apply, 0.5) / 1e6, "ms");
    m.Set("exec.apply_ms_p99", Quantile(apply, 0.99) / 1e6, "ms");
    const obs::HistogramSnapshot part = Hist(snap, "exec.partition_ns");
    const obs::HistogramSnapshot emerge = Hist(snap, "exec.merge_ns");
    const obs::HistogramSnapshot imbalance =
        Hist(snap, "exec.shard_imbalance_x100");
    m.Set("exec.partition_us_p50", part.p50 / 1e3, "us");
    m.Set("exec.merge_us_p50", emerge.p50 / 1e3, "us");
    m.Set("exec.shard_imbalance_p99", imbalance.p99 / 100, "ratio");
    const double par = Counter(snap, "exec.parallel_batches");
    const double seq = Counter(snap, "exec.sequential_batches");
    m.Set("exec.parallel_batch_frac", par / std::max(1.0, par + seq), "ratio");
    // plan + core + data + rings
    m.Set("plan.join_ns_per_update", (steps1.join_ns - steps0.join_ns) / n_all,
          "ns");
    m.Set("plan.marginalize_ns_per_update",
          (steps1.marg_ns - steps0.marg_ns) / n_all, "ns");
    m.Set("plan.absorb_ns_per_update",
          (steps1.absorb_ns - steps0.absorb_ns +
           static_cast<double>(emerge.sum)) /
              n_all,
          "ns");
    const double join_in = steps1.join_in - steps0.join_in;
    m.Set("plan.join_fanout",
          join_in > 0 ? (steps1.join_out - steps0.join_out) / join_in : 0.0,
          "ratio");
    m.Set("plan.allocs_per_update", (steps1.allocs - steps0.allocs) / n_all,
          "count");
    m.Set("data.probe_groups_mean",
          Hist(snap, "group_table.probe_groups").Mean(), "count");
    m.Set("data.rehashes", static_cast<double>(rehashes), "count");
    // serve
    m.Set("serve.publish_us_p50", Quantile(traced.publish_ns, 0.5) / 1e3, "us");
    m.Set("serve.publish_us_p99", Quantile(traced.publish_ns, 0.99) / 1e3,
          "us");
    m.Set("serve.merge_ms_p50", Quantile(merge, 0.5) / 1e6, "ms");
    m.Set("serve.merge_ms_p99", Quantile(merge, 0.99) / 1e6, "ms");
    m.Set("serve.merged_keys_per_merge",
          merges > 0 ? static_cast<double>(merged_keys) /
                           static_cast<double>(merges)
                     : 0.0,
          "count");
    m.Set("serve.segments_p99", Quantile(traced.segments, 0.99), "count");
    m.Set("serve.acquire_ns_p50", Quantile(acquire_ns, 0.5), "ns");
    m.Set("serve.lookup_ns_p50", Quantile(lookup_ns, 0.5), "ns");
    m.Set("serve.lookup_ns_p99", Quantile(lookup_ns, 0.99), "ns");
    const double reads = Counter(snap, "serve.reads");
    m.Set("serve.diff_hit_frac",
          reads > 0 ? Counter(snap, "serve.diff_hits") / reads : 0.0, "ratio");
    // obs
    const double plain_ups = updates_off / time_off * 1e9;
    const double traced_ups = updates_on / time_on * 1e9;
    m.Set("trace.overhead_frac", 1.0 - traced_ups / plain_ups, "ratio");
    m.Set("trace.residual_frac",
          1.0 - static_cast<double>(covered) / static_cast<double>(traced_total),
          "ratio");

    o.flags.Add("loop_updates", static_cast<double>(loop.updates));
    o.flags.Add("loop_plain_ups", plain_ups);
    o.flags.Add("loop_traced_ups", traced_ups);
    o.flags.Add("service_closed_ups",
                static_cast<double>(c.stats.admitted) / c.seconds);
    o.flags.Add("windows", static_cast<double>(traced.windows.size()));
    st.reset();
    return o;
  }

 private:
  void Require(size_t n) const {
    if (in_.stream.size() < n) {
      throw std::runtime_error("generated stream too short");
    }
  }

  static obs::HistogramSnapshot Hist(const obs::MetricsSnapshot& s,
                                     const std::string& name) {
    for (const auto& [k, h] : s.histograms) {
      if (k == name) return h;
    }
    return {};
  }
  static double Counter(const obs::MetricsSnapshot& s,
                        const std::string& name) {
    for (const auto& [k, v] : s.counters) {
      if (k == name) return static_cast<double>(v);
    }
    return 0;
  }

  /// Writes the live stores as a checkpoint image into <dir>/reference.
  void WriteReference(const Stack<Ring>& st, uint64_t lsn, uint64_t count) {
    const std::string ref = MakeDir(dir_ + "/reference");
    durability::InstallCheckpointBytes(
        ref, lsn, durability::BuildCheckpointImage(*st.engine, lsn, count));
  }

  std::unique_ptr<Stack<Ring>> ColdStack() const {
    return std::make_unique<Stack<Ring>>(
        in_, fivm::MakeDatabase<Ring>(*in_.query), "");
  }

  struct RecoveryRun {
    double load_s = 0;   // LoadNewestCheckpoint alone (split runs)
    double total_s = 0;  // durability::Recover
    durability::RecoveryResult rr;
  };

  /// One cold recovery of recover_dir_ into a freshly built engine. With
  /// `split`, a separate cold LoadNewestCheckpoint is timed first. With
  /// `verify`, gate: every recovered store equals the reference's.
  RecoveryRun RecoverOnce(Outcome& o, bool split, bool verify) {
    RecoveryRun run;
    if (split) {
      auto cold = ColdStack();
      const uint64_t t0 = NowNs();
      durability::LoadNewestCheckpoint(recover_dir_, cold->engine.get());
      run.load_s = static_cast<double>(NowNs() - t0) / 1e9;
    }
    auto cold = ColdStack();
    const uint64_t t0 = NowNs();
    run.rr = durability::Recover(recover_dir_, cold->engine.get(),
                                 cold->batcher.get(), cold->executor.get());
    run.total_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!verify) return run;
    auto ref = ColdStack();
    const auto loaded =
        durability::LoadNewestCheckpoint(dir_ + "/reference", ref->engine.get());
    bool same = loaded.loaded && !run.rr.gap_detected &&
                !run.rr.saw_torn_tail &&
                run.rr.update_count == loaded.meta.update_count;
    for (size_t i = 0; same && i < ref->tree->nodes().size(); ++i) {
      if (!ref->tree->node(static_cast<int>(i)).materialized) continue;
      same = SameStore(cold->engine->store(static_cast<int>(i)),
                       ref->engine->store(static_cast<int>(i)));
    }
    Gate(o, "recovered_equals_live", same);
    return run;
  }

  /// Whether recovery replayed what the deterministic window schedule
  /// prescribes (every closed-loop window exactly kWindowUpdates updates).
  static void RecoveryFlags(Outcome& o, const durability::RecoveryResult& rr,
                            size_t expected,
                            const std::vector<uint64_t>& replayed) {
    o.flags.Add("recovery_ckpt_lsn", static_cast<double>(rr.checkpoint_lsn));
    o.flags.Add("recovery_frames_replayed",
                static_cast<double>(rr.frames_replayed));
    o.flags.Add("recovery_updates_replayed",
                static_cast<double>(rr.updates_replayed));
    o.flags.Add("recovery_expected_replayed", static_cast<double>(expected));
    o.flags.AddBool("recovery_repeats",
                    std::all_of(replayed.begin(), replayed.end(),
                                [&](uint64_t r) { return r == expected; }));
  }

  /// Final gates: served snapshot == engine root == Evaluate(final database).
  void FinalGates(Outcome& o, Stack<Ring>& st, size_t consumed,
                  const std::vector<size_t>& shed) {
    st.server->Publish();
    Relation<Ring> served = st.server->Acquire().Materialize();
    Gate(o, "snapshot_equals_root", SameStore(served, st.engine->result()));
    Database<Ring> db = BaseDatabase<Ring>(in_);
    size_t s = 0;
    for (size_t i = 0; i < consumed; ++i) {
      if (s < shed.size() && shed[s] == i) {
        ++s;
        continue;
      }
      const Update& u = in_.stream[i];
      db[static_cast<size_t>(u.relation)].Add(*u.key, Payload<Ring>(u.sign));
    }
    const Relation<Ring> expected =
        IvmEngine<Ring>::Evaluate(*st.tree, st.engine->lifts(), db);
    Gate(o, "root_equals_evaluate", SameStore(st.engine->result(), expected));
  }

  static void Gate(Outcome& o, const std::string& name, bool ok) {
    o.gates.AddBool(name, ok);
    ++o.attempted;
    if (!ok) {
      ++o.failed;
      o.correct = false;
    }
  }

  static void Account(Outcome& o, const std::vector<ServiceResult>& closed,
                      const std::vector<ServiceResult>& open,
                      const Reader<Ring>& reader) {
    for (const auto* runs : {&closed, &open}) {
      for (const ServiceResult& r : *runs) {
        o.attempted += r.stats.admitted + r.stats.shed + r.stats.dropped;
        o.failed += r.stats.shed + r.stats.dropped +
                    r.stats.wal_failed_windows + r.stats.failed_flushes;
      }
    }
    o.attempted += reader.attempted();
    o.failed += reader.misses();
  }

  /// Run-validity flags: generator lateness (p99 per open-loop phase), any
  /// shed or degrade transition in the open loop, open-loop size-triggered
  /// flushes (a backlog of a full window; with more than one updated
  /// relation their freshness attribution is approximate, see RunOpen, and
  /// they count as a disturbance), deadline flushes in the closed loop
  /// (windows no longer a function of the stream alone), and absorbed
  /// service faults.
  void Flags(Outcome& o, const std::vector<ServiceResult>& closed,
             const std::vector<ServiceResult>& open,
             const std::vector<double>& late_p99_us) const {
    uint64_t shed = 0, degrade = 0, backlog = 0, deadline = 0, blocks = 0;
    uint64_t faults = 0, ckpts = 0;
    for (const ServiceResult& r : open) {
      shed += r.stats.shed + r.stats.dropped;
      degrade += r.stats.degrade_enters + r.stats.degrade_exits;
      backlog += r.stats.size_flushes;
    }
    for (const ServiceResult& r : closed) {
      deadline += r.stats.deadline_flushes;
      blocks += r.stats.blocks;
      ckpts += r.ckpt_count;
    }
    for (const auto* runs : {&closed, &open}) {
      for (const ServiceResult& r : *runs) {
        faults += r.stats.wal_failed_windows + r.stats.failed_flushes +
                  r.stats.publish_failures + r.stats.merge_failures +
                  r.stats.checkpoint_failures;
      }
    }
    const double late_max =
        *std::max_element(late_p99_us.begin(), late_p99_us.end());
    o.flags.AddRaw("gen_late_p99_us", JsonArray(late_p99_us));
    o.flags.AddBool("gen_late", late_max > kLateFlagUs);
    o.flags.Add("open_shed", static_cast<double>(shed));
    o.flags.Add("open_degrade_transitions", static_cast<double>(degrade));
    o.flags.Add("open_size_flushes", static_cast<double>(backlog));
    const bool inexact = backlog > 0 && in_.updatable.size() > 1;
    o.flags.AddBool("open_disturbed", shed + degrade > 0 || inexact);
    o.flags.Add("closed_deadline_flushes", static_cast<double>(deadline));
    o.flags.Add("closed_blocks", static_cast<double>(blocks));
    o.flags.Add("closed_checkpoints", static_cast<double>(ckpts));
    o.flags.Add("service_faults", static_cast<double>(faults));
  }

  const Inputs& in_;
  uint64_t seed_;
  double seconds_;
  std::string dir_;
  Load load_{"", 1, 1};
  std::string recover_dir_;
};

/// Stream updates a run of `seconds` consumes, with slack.
size_t StreamLength(const std::string& workload, double seconds) {
  for (const Load& l : kLoads) {
    if (workload != l.name) continue;
    const size_t untraced =
        PlanClosed(l.closed_ups * seconds * kClosedShare / kRounds).updates +
        static_cast<size_t>(l.open_rate * seconds * kOpenShare / kRounds);
    const size_t traced =
        PlanClosed(l.closed_ups * seconds * kLoopShare).updates +
        PlanClosed(l.closed_ups * seconds * kTracedClosedShare).updates +
        static_cast<size_t>(l.open_rate * seconds * kTracedOpenShare);
    return std::max(untraced, traced) + kWindowUpdates;
  }
  throw std::runtime_error("unknown workload " + workload);
}

template <typename Ring>
Outcome Dispatch(const Inputs& in, uint64_t seed, double seconds, bool trace,
                 const std::string& dir) {
  Run<Ring> run(in, seed, seconds, dir);
  return trace ? run.Traced() : run.Untraced();
}

int Main(int argc, char** argv) {
  std::string workload, dir;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--dir") dir = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (workload.empty() || dir.empty() || seconds <= 0) {
    throw std::runtime_error(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--dir D");
  }
  MakeDir(dir);
  std::printf("ENV %s\n", EnvBlock(dir).c_str());
  std::fflush(stdout);

  const size_t n = StreamLength(workload, seconds);
  Inputs in;
  if (workload == "housing_cofactor") in = MakeHousing(seed, n);
  else if (workload == "keyed_churn") in = MakeKeyedChurn(seed, n);

  Outcome o = workload == "housing_cofactor"
                  ? Dispatch<RegressionRing>(in, seed, seconds, trace != 0, dir)
                  : Dispatch<I64Ring>(in, seed, seconds, trace != 0, dir);
  std::filesystem::remove_all(dir);

  std::printf("FLAGS %s\n", o.flags.Str().c_str());
  std::printf("GATES %s\n", o.gates.Str().c_str());
  JsonObject result;
  result.AddBool("correct", o.correct);
  result.AddInt("attempted", o.attempted);
  result.AddInt("failed", o.failed);
  result.AddRaw("metrics", o.metrics.Str());
  std::printf("%s\n", result.Str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
