// IVM^ε A/B on the adversarial skewed update stream: triangle *count*
// maintenance (I64 ring) under hot-vertex insert/delete bursts, where the
// classic delta join pays the hot vertex's degree per update while IVM^ε is
// amortized O(√N). All arms maintain the same scalar count over the same
// stream, so the comparison is apples-to-apples:
//
//   IVM-EPS  src/ivme/TriangleEngine (heavy/light partitioning, ε = 0.5)
//   F-IVM    IvmEngine over the A-B-C view tree (count ring)
//   1-IVM    first-order baseline (no auxiliary views)
//
// Protocol: the repo's interleaved-median two-binary A/B — every arm is
// rebuilt and rerun `repeats` times, arms interleaved within each round so
// machine noise hits all arms alike, and the reported throughput is the
// per-arm median. Counts are verified equal across arms that completed.
//
// Knobs: FIVM_BENCH_NODES (vertex domain), FIVM_BENCH_SKEW (Zipf theta of
// hot-vertex choice), FIVM_BENCH_UPDATES, FIVM_BENCH_CHURN,
// FIVM_BENCH_REPEATS, plus the global FIVM_BENCH_SCALE /
// FIVM_BENCH_BUDGET_SEC. run_benches.sh sweeps FIVM_BENCH_NODES to make the
// asymptotic gap visible (the ratio must *widen* with N).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/first_order_ivm.h"
#include "src/core/ivm_engine.h"
#include "src/core/view_tree.h"
#include "src/ivme/triangle_engine.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/rings/lifting.h"
#include "src/util/timer.h"
#include "src/workloads/stream.h"
#include "src/workloads/twitter.h"

namespace fivm {
namespace {

using workloads::TwitterConfig;
using workloads::TwitterDataset;
using workloads::UpdateStream;

struct RunResult {
  uint64_t processed = 0;
  double seconds = 0;
  bool timed_out = false;
  int64_t count = 0;
};

// One full pass of the stream through `apply`, honoring the time budget.
RunResult DriveStream(const UpdateStream& stream,
                      const std::function<void(
                          const UpdateStream::Batch&)>& apply) {
  RunResult res;
  const double budget = bench::BudgetSeconds();
  util::Timer timer;
  for (const auto& batch : stream.batches()) {
    apply(batch);
    res.processed += batch.tuples.size();
    if (timer.ElapsedSeconds() > budget) {
      res.timed_out = res.processed < stream.total_tuples();
      break;
    }
  }
  res.seconds = timer.ElapsedSeconds();
  return res;
}

int64_t ScalarOf(const Relation<I64Ring>& rel) {
  const int64_t* p = rel.Find(Tuple::Empty());
  return p == nullptr ? 0 : *p;
}

struct Arm {
  const char* name;
  // Builds a fresh engine and returns (apply, count, memory_mb).
  std::function<void()> rebuild;
  std::function<void(const UpdateStream::Batch&)> apply;
  std::function<int64_t()> count;
  std::function<double()> memory_mb;
  std::vector<RunResult> runs;
  /// Per-arm latency distribution, pooled over every repeat (the repeats
  /// exist to stabilize the throughput median; for a distribution more
  /// samples only sharpen the tail). IVM-EPS records per single-tuple
  /// update — the granularity at which its rebalance spikes live — the
  /// batch-driven arms per batch.
  std::shared_ptr<obs::Histogram> latency = std::make_shared<obs::Histogram>();
  const char* latency_unit = "batch";
};

double MedianSeconds(const std::vector<RunResult>& runs) {
  std::vector<double> secs;
  for (const auto& r : runs) secs.push_back(r.seconds);
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

void Run() {
  TwitterConfig qcfg;
  qcfg.nodes = 50;
  qcfg.edges = 0;  // query/vorder only; the stream supplies all data
  auto ds = TwitterDataset::Generate(qcfg);
  Query& query = *ds->query;

  UpdateStream::SkewConfig scfg;
  scfg.nodes = static_cast<uint64_t>(bench::EnvInt("FIVM_BENCH_NODES", 4000));
  scfg.updates = static_cast<uint64_t>(
      bench::EnvInt("FIVM_BENCH_UPDATES", 40000 * bench::BenchScale()));
  scfg.theta = bench::EnvDouble("FIVM_BENCH_SKEW", 1.2);
  scfg.churn = bench::EnvDouble("FIVM_BENCH_CHURN", 0.4);
  scfg.batch_size = 1000;
  scfg.burst = 64;
  scfg.seed = 7;
  const int repeats =
      static_cast<int>(bench::EnvInt("FIVM_BENCH_REPEATS", 3));

  auto stream = UpdateStream::AdversarialSkew(scfg);
  std::printf("skewed stream: %llu updates, %llu nodes, theta=%.2f, "
              "churn=%.2f, batch %zu\n",
              static_cast<unsigned long long>(stream.total_tuples()),
              static_cast<unsigned long long>(scfg.nodes), scfg.theta,
              scfg.churn, scfg.batch_size);

  // Arm state lives in unique_ptrs refreshed by rebuild() so each repeat
  // starts from an empty database.
  std::unique_ptr<ivme::TriangleEngine<I64Ring>> eps;
  std::unique_ptr<ViewTree> tree;
  std::unique_ptr<IvmEngine<I64Ring>> fivm;
  std::unique_ptr<FirstOrderIvm<I64Ring>> first_order;

  auto eps_lat = std::make_shared<obs::Histogram>();
  auto fivm_lat = std::make_shared<obs::Histogram>();
  auto foivm_lat = std::make_shared<obs::Histogram>();

  std::vector<Arm> arms;
  arms.push_back(Arm{
      "IVM-EPS",
      [&] {
        eps = std::make_unique<ivme::TriangleEngine<I64Ring>>(
            query, ds->r, ds->s, ds->t);
      },
      [&, eps_lat](const UpdateStream::Batch& b) {
        for (size_t i = 0; i < b.tuples.size(); ++i) {
          obs::ScopedTimer t(eps_lat.get());
          eps->ApplyUpdate(b.relation, b.tuples[i],
                           UpdateStream::UnitPayload<I64Ring>(b, i));
        }
      },
      [&] { return eps->result(); },
      [&] { return eps->TotalBytes() / 1e6; },
      {},
      eps_lat,
      "update"});
  arms.push_back(Arm{
      "F-IVM",
      [&] {
        tree = std::make_unique<ViewTree>(&query, &ds->vorder);
        tree->MaterializeAll();
        fivm = std::make_unique<IvmEngine<I64Ring>>(tree.get(),
                                                    LiftingMap<I64Ring>{});
      },
      [&, fivm_lat](const UpdateStream::Batch& b) {
        obs::ScopedTimer t(fivm_lat.get());
        fivm->ApplyDelta(b.relation,
                         UpdateStream::ToDelta<I64Ring>(query, b));
      },
      [&] { return ScalarOf(fivm->result()); },
      [&] { return fivm->TotalBytes() / 1e6; },
      {},
      fivm_lat,
      "batch"});
  arms.push_back(Arm{
      "1-IVM",
      [&] {
        first_order = std::make_unique<FirstOrderIvm<I64Ring>>(
            &query, std::vector<LiftingMap<I64Ring>>{LiftingMap<I64Ring>{}});
      },
      [&, foivm_lat](const UpdateStream::Batch& b) {
        obs::ScopedTimer t(foivm_lat.get());
        first_order->ApplyDelta(b.relation,
                                UpdateStream::ToDelta<I64Ring>(query, b));
      },
      [&] { return ScalarOf(first_order->result()); },
      [&] { return first_order->TotalBytes() / 1e6; },
      {},
      foivm_lat,
      "batch"});

  for (int round = 0; round < repeats; ++round) {
    for (auto& arm : arms) {
      arm.rebuild();
      arm.runs.push_back(DriveStream(stream, arm.apply));
      arm.runs.back().count = arm.count();
    }
  }

  // Report the median run per arm (series-row format, parsed into the
  // perf-trajectory JSON by collect_bench_json.py), plus the pooled
  // tail-latency distribution — the per-update cost spread that the
  // throughput median averages away (a major rebalance is invisible in
  // mean t/s, unmissable in IVM-EPS's p999).
  for (auto& arm : arms) {
    const RunResult& last = arm.runs.back();
    if (last.timed_out) {
      bench::PrintTimeoutRow(arm.name,
                             static_cast<double>(last.processed) /
                                 stream.total_tuples(),
                             last.processed, last.seconds);
    } else {
      bench::PrintSeriesRow(arm.name, 1.0, last.processed,
                            MedianSeconds(arm.runs), arm.memory_mb());
    }
    bench::PrintLatencyRow(arm.name, *arm.latency, arm.latency_unit);
  }

  // The amortization machinery must actually run (CI smoke asserts this).
  // The counters come from the registry scrape — the ivme gauges bridged
  // by TriangleEngine — not from a bespoke stats call.
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Default().Snapshot();
  auto gauge = [&snap](const char* name) -> long long {
    for (const auto& [n, v] : snap.gauges) {
      if (n == name) return static_cast<long long>(v);
    }
    return 0;
  };
  std::printf("REBALANCE IVM-EPS: updates=%lld minor=%lld moved=%lld "
              "major=%lld threshold=%lld live=%lld\n",
              gauge("ivme.updates"), gauge("ivme.minor_rebalances"),
              gauge("ivme.minor_moved_tuples"),
              gauge("ivme.major_rebalances"), gauge("ivme.threshold"),
              gauge("ivme.live_tuples"));

  // Count verification across arms that completed the stream.
  const RunResult& eps_run = arms[0].runs.back();
  for (size_t a = 1; a < arms.size(); ++a) {
    const RunResult& other = arms[a].runs.back();
    if (eps_run.timed_out || other.timed_out) {
      std::printf("VERIFY skipped for %s (timeout)\n", arms[a].name);
      continue;
    }
    std::printf("VERIFY ivme_skew_%s: IVM-EPS count %s %s count (%lld)\n",
                arms[a].name,
                eps_run.count == other.count ? "==" : "!=", arms[a].name,
                static_cast<long long>(eps_run.count));
  }

  // Headline ratio (vs F-IVM), printed in the SPEEDUP format the collector
  // stores; run_benches.sh sweeps N so the trajectory shows it widening.
  const RunResult& fivm_run = arms[1].runs.back();
  if (!eps_run.timed_out && eps_run.seconds > 0) {
    double eps_tput = eps_run.processed / MedianSeconds(arms[0].runs);
    double fivm_tput =
        fivm_run.processed / MedianSeconds(arms[1].runs);
    if (fivm_tput > 0) {
      std::printf("SPEEDUP ivme_skew: IVM-EPS vs F-IVM per-update "
                  "throughput = %.2fx\n",
                  eps_tput / fivm_tput);
    }
  }

  // Observed per-plan-step profile of the F-IVM arm (CI smoke asserts a
  // non-zero calls/in count on every step) and the full registry snapshot
  // as one machine-readable line.
  std::printf("\nEXPLAIN ANALYZE (F-IVM):\n%s", fivm->ExplainAnalyze().c_str());
  std::printf("METRICS_JSON %s\n", obs::ToJson(snap).c_str());
}

}  // namespace
}  // namespace fivm

int main() {
  fivm::bench::PrintHeader(
      "IVM^eps: triangle count under adversarial skewed updates");
  fivm::Run();
  return 0;
}
