#ifndef FIVM_IVME_TRIANGLE_ENGINE_H_
#define FIVM_IVME_TRIANGLE_ENGINE_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/query.h"
#include "src/data/relation.h"
#include "src/data/tuple.h"
#include "src/obs/metrics.h"
#include "src/rings/ring.h"

namespace fivm::ivme {

/// Tuning of the IVM^ε maintenance strategy.
struct Config {
  /// The ε of the paper: the heavy/light degree threshold is θ ≈ M^ε for
  /// live database size M. Per-update cost is O(M^max(ε,1-ε)), minimized at
  /// ε = 1/2 (amortized O(√M)).
  double epsilon = 0.5;
  /// Floor for θ, so tiny databases don't degenerate into all-heavy
  /// partitions with constant rebalancing.
  size_t min_threshold = 4;
};

/// Rebalancing / maintenance counters (MemoryTracker-style observability:
/// cheap monotonic counters, surfaced by benches and asserted by CI smoke
/// runs so the amortization machinery is provably exercised).
struct Stats {
  int64_t updates = 0;           // single-tuple updates applied
  int64_t minor_rebalances = 0;  // value moves between heavy and light
  int64_t minor_moved_tuples = 0;
  int64_t major_rebalances = 0;  // full repartition + view recomputations
  std::string ToString() const;
};

/// The heavy/light degree threshold for live size `m`:
/// max(min_threshold, round(m^epsilon)).
size_t ThresholdFor(size_t m, double epsilon, size_t min_threshold);

/// IVM^ε maintenance of the triangle count under single-tuple updates
/// (Kara, Ngo, Nikolic, Olteanu, Zhang: "Counting Triangles under Updates
/// in Worst-Case Optimal Time", ICDT 2019, and "Maintaining Triangle
/// Queries under Updates", TODS 2020 — both in PAPERS.md). Maintains
///
///   Q = ⊕_{a,b,c} R(a,b) ⊗ S(b,c) ⊗ T(c,a)
///
/// over any *commutative* ring (multiplicities are ring elements; inserts
/// carry One, deletes Neg(One), so with I64Ring Q is the triangle count of
/// a Z-relation database). In contrast to the classic delta join — whose
/// per-update cost is the degree of the touched value, O(N) on skewed
/// graphs — every update here costs O(N^max(ε,1-ε)) amortized: O(√N) at
/// the default ε = 1/2.
///
/// Strategy. Each relation is partitioned by the degree of one variable
/// against the threshold θ = Θ(M^ε): R(A,B) on A, S(B,C) on B, T(C,A) on C
/// (generically: relation i is partitioned on the variable it shares with
/// relation i-1 in the R→S→T cycle). Three auxiliary views join a heavy
/// part with the following light part, marginalizing the shared variable:
///
///   V_RS(a,c) = ⊕_b R_h(a,b) ⊗ S_l(b,c)
///   V_ST(b,a) = ⊕_c S_h(b,c) ⊗ T_l(c,a)
///   V_TR(c,b) = ⊕_a T_h(c,a) ⊗ R_l(a,b)
///
/// An update δR(a,b) with payload m splits the delta query
/// δQ = m ⊗ ⊕_c S(b,c) ⊗ T(c,a) into three cases:
///
///   (light)       ⊕_c S_l(b,c) ⊗ T(c,a): enumerate σ_{B=b} S_l — at most
///                 2θ tuples by the light-degree invariant — and probe both
///                 parts of T by full key. O(θ) = O(N^ε).
///   (heavy-heavy) ⊕_c S_h(b,c) ⊗ T_h(c,a): enumerate σ_{A=a} T_h — at
///                 most one tuple per heavy C-value, and there are at most
///                 2M/θ heavy values — and probe S_h by full key.
///                 O(M/θ) = O(N^{1-ε}).
///   (heavy-light) ⊕_c S_h(b,c) ⊗ T_l(c,a) = V_ST(b,a): one lookup.
///
/// The same enumerations maintain the two views that contain R: if a is
/// heavy in R, V_RS gains m ⊗ S_l(b,·) (the light enumeration); if a is
/// light, V_TR gains T_h(·,a) ⊗ m (the heavy enumeration). Updates to S
/// and T are the same rules rotated.
///
/// Rebalancing. Partition membership is per-value with hysteresis: a light
/// value is promoted when its degree reaches 2θ and a heavy value demoted
/// when its degree drops below θ/2, so Ω(θ) updates to a value separate
/// two moves of that value and the O(θ·N^{1-ε}+θ²) move cost amortizes to
/// O(N^max(ε,1-ε)) per update (minor rebalancing). When the live database
/// size drifts past a constant factor of its size at the last rebuild, θ
/// is recomputed and partitions + views rebuilt from scratch — O(N(θ+1))
/// amortized over the Ω(N) updates in between (major rebalancing). Both
/// are counted in Stats.
///
/// Storage reuses the engine's existing machinery: partitions and views
/// are `Relation<Ring>` stores (SoA pool + SwissTable primary index), the
/// per-case enumerations run over lazily built secondary indexes, and
/// degree counters are I64Ring relations.
template <typename Ring>
class TriangleEngine {
 public:
  using Element = typename Ring::Element;

  /// `query` must contain three binary relations `r`, `s`, `t` forming a
  /// triangle: sch(r) = (A,B), sch(s) = (B,C), sch(t) = (C,A) for distinct
  /// variables A, B, C (each consecutive pair shares exactly one variable).
  TriangleEngine(const Query& query, int r, int s, int t, Config cfg = {})
      : cfg_(cfg), theta_(ThresholdForLive(0)) {
    const std::array<int, 3> rels{r, s, t};
    for (int i = 0; i < 3; ++i) {
      Rel& rel = rel_[i];
      rel.relation = rels[i];
      rel.schema = query.relation(rels[i]).schema;
      assert(rel.schema.size() == 2 && "triangle relations are binary");
    }
    for (int i = 0; i < 3; ++i) {
      Rel& rel = rel_[i];
      const Schema& prev = rel_[(i + 2) % 3].schema;
      Schema shared = rel.schema.Intersect(prev);
      assert(shared.size() == 1 && "consecutive relations share one var");
      rel.px = static_cast<uint32_t>(rel.schema.PositionOf(shared[0]));
      rel.py = 1 - rel.px;
      rel.xs = Schema{rel.schema[rel.px]};
      rel.ys = Schema{rel.schema[rel.py]};
      rel.light = Relation<Ring>(rel.schema);
      rel.heavy = Relation<Ring>(rel.schema);
      rel.degree = Relation<I64Ring>(rel.xs);
      rel.heavy_set = Relation<I64Ring>(rel.xs);
    }
    for (int i = 0; i < 3; ++i) {
      // Y_i must be X_{i+1}: the marginalized variable of each delta rule.
      assert(rel_[i].schema[rel_[i].py] ==
                 rel_[(i + 1) % 3].schema[rel_[(i + 1) % 3].px] &&
             "relation cycle must close");
      view_schema_[i] = Schema{rel_[i].schema[rel_[i].px],
                               rel_[(i + 2) % 3].schema[rel_[(i + 2) % 3].px]};
      view_[i] = Relation<Ring>(view_schema_[i]);
    }
    RegisterGauges();
  }

  /// The registered gauge callbacks capture `this` — the engine is pinned.
  /// The latest-constructed engine owns the ivme.* gauge names.
  TriangleEngine(const TriangleEngine&) = delete;
  TriangleEngine& operator=(const TriangleEngine&) = delete;

  /// Applies a single-tuple update δK_rel(key) with ring payload `m`
  /// (insert = One, delete = Neg(One), arbitrary elements allowed). `key`
  /// must be in the relation's query schema layout.
  void ApplyUpdate(int relation, const Tuple& key, const Element& m) {
    if (Ring::IsZero(m)) return;
    const int i = SlotOf(relation);
    const int j = (i + 1) % 3;
    const int k = (i + 2) % 3;
    Rel& ri = rel_[i];
    Rel& rj = rel_[j];
    Rel& rk = rel_[k];
    assert(key.size() == 2);
    const Value& x = key[ri.px];
    const Value& y = key[ri.py];
    Tuple xt = OneTuple(x);
    Tuple yt = OneTuple(y);
    const bool x_heavy = ri.heavy_set.Contains(xt);

    Element sum = Ring::Zero();

    // Case (light): enumerate σ_{X_j = y} K_j^l, probe K_k at (z, x).
    // Doubles as the V_i = K_i^h ⋈ K_j^l maintenance loop when x is heavy.
    {
      const auto* slots = rj.light.IndexOn(rj.xs).Probe(yt);
      if (slots != nullptr) {
        for (uint32_t slot : *slots) {
          const Element& pj = rj.light.PayloadAt(slot);
          if (Ring::IsZero(pj)) continue;
          const Value& z = rj.light.KeyAt(slot)[rj.py];
          Tuple zx = PairKey(rk, z, x);
          Element acc = Ring::Zero();
          if (const Element* p = rk.light.Find(zx)) acc = *p;
          if (const Element* p = rk.heavy.Find(zx)) Ring::AddInPlace(acc, *p);
          if (!Ring::IsZero(acc)) {
            Ring::AddInPlace(sum, Ring::Mul(pj, acc));
          }
          if (x_heavy) {
            view_[i].Add(PairValues(x, z), Ring::Mul(m, pj));
          }
        }
      }
    }

    // Case (heavy-heavy): enumerate σ_{Y_k = x} K_k^h, probe K_j^h at
    // (y, z). Doubles as the V_k = K_k^h ⋈ K_i^l maintenance loop when x
    // is light.
    {
      const auto* slots = rk.heavy.IndexOn(rk.ys).Probe(xt);
      if (slots != nullptr) {
        for (uint32_t slot : *slots) {
          const Element& pk = rk.heavy.PayloadAt(slot);
          if (Ring::IsZero(pk)) continue;
          const Value& z = rk.heavy.KeyAt(slot)[rk.px];
          if (const Element* pj = rj.heavy.Find(PairKey(rj, y, z))) {
            Ring::AddInPlace(sum, Ring::Mul(*pj, pk));
          }
          if (!x_heavy) {
            view_[k].Add(PairValues(z, y), Ring::Mul(pk, m));
          }
        }
      }
    }

    // Case (heavy-light): the auxiliary view V_j = K_j^h ⋈ K_k^l at (y, x).
    if (const Element* v = view_[j].Find(PairValues(y, x))) {
      Ring::AddInPlace(sum, *v);
    }
    Ring::AddInPlace(q_, Ring::Mul(m, sum));

    // Partition insert + degree maintenance. Liveness transitions (payload
    // zero ↔ non-zero) drive the per-value degree counters.
    Relation<Ring>& part = x_heavy ? ri.heavy : ri.light;
    const bool was_live = part.Contains(key);
    part.Add(key, m);
    const bool is_live = part.Contains(key);
    ++stats_.updates;
    if (was_live == is_live) return;

    const int64_t dlive = is_live ? 1 : -1;
    ri.degree.Add(xt, dlive);
    live_total_ = static_cast<size_t>(static_cast<int64_t>(live_total_) +
                                      dlive);
    const int64_t* dptr = ri.degree.Find(xt);
    const int64_t deg = dptr ? *dptr : 0;
    // Hysteresis: promote at 2θ, demote below θ/2 — Ω(θ) updates to the
    // same value separate two moves of that value.
    if (!x_heavy && deg >= 2 * static_cast<int64_t>(theta_)) {
      MoveValue(i, x, /*to_heavy=*/true);
    } else if (x_heavy && 2 * deg < static_cast<int64_t>(theta_)) {
      MoveValue(i, x, /*to_heavy=*/false);
    }
    if (live_total_ > 2 * rebalance_base_ + kMinMajorSpacing ||
        2 * live_total_ + kMinMajorSpacing < rebalance_base_) {
      MajorRebalance();
    }
  }

  /// The maintained triangle aggregate Q.
  const Element& result() const { return q_; }

  const Stats& stats() const { return stats_; }
  size_t live_tuples() const { return live_total_; }

  /// Live keys in the heavy part of `relation`.
  size_t HeavySize(int relation) const {
    return rel_[SlotOf(relation)].heavy.size();
  }

  /// Approximate heap footprint: partitions, auxiliary views, degree and
  /// membership maps.
  size_t TotalBytes() const {
    size_t bytes = 0;
    for (const Rel& r : rel_) {
      bytes += r.light.ApproxBytes() + r.heavy.ApproxBytes() +
               r.degree.ApproxBytes() + r.heavy_set.ApproxBytes();
    }
    for (const auto& v : view_) bytes += v.ApproxBytes();
    return bytes;
  }

  /// Human-readable maintenance snapshot.
  std::string StatsString() const {
    std::string out = stats_.ToString();
    out += " threshold=" + std::to_string(theta_) +
           " live=" + std::to_string(live_total_);
    for (int i = 0; i < 3; ++i) {
      out += " h" + std::to_string(i) + "=" +
             std::to_string(rel_[i].heavy.size()) + "/l" + std::to_string(i) +
             "=" + std::to_string(rel_[i].light.size());
    }
    return out;
  }

 private:
  /// The test oracles (tests/ivme_equivalence_test.cc) read the partitions.
  friend struct TriangleEngineTestPeer;

  // Major rebalances are spaced by at least this many live-size steps, so
  // near-empty databases don't rebuild on every update.
  static constexpr size_t kMinMajorSpacing = 8;

  /// Bridges Stats and the partition state into the metric registry as
  /// pull-style gauges — the ivme counters become registry citizens without
  /// any hot-path recording (ApplyUpdate keeps its plain int64 increments;
  /// the gauge lambdas read them at scrape time).
  void RegisterGauges() {
    gauges_.Add("ivme.updates", [this] { return stats_.updates; });
    gauges_.Add("ivme.minor_rebalances",
                [this] { return stats_.minor_rebalances; });
    gauges_.Add("ivme.minor_moved_tuples",
                [this] { return stats_.minor_moved_tuples; });
    gauges_.Add("ivme.major_rebalances",
                [this] { return stats_.major_rebalances; });
    gauges_.Add("ivme.threshold",
                [this] { return static_cast<int64_t>(theta_); });
    gauges_.Add("ivme.live_tuples",
                [this] { return static_cast<int64_t>(live_total_); });
  }

  struct Rel {
    int relation = -1;
    Schema schema;     // (two variables, query layout)
    uint32_t px = 0;   // position of the partition variable X
    uint32_t py = 1;   // position of the other variable Y (== X of next rel)
    Schema xs, ys;     // singleton schemas {X}, {Y} for secondary indexes
    Relation<Ring> light, heavy;
    Relation<I64Ring> degree;     // X -> live tuple count (both parts)
    Relation<I64Ring> heavy_set;  // X -> 1 iff the value is in the heavy part
  };

  int SlotOf(int relation) const {
    for (int i = 0; i < 3; ++i) {
      if (rel_[i].relation == relation) return i;
    }
    assert(false && "unknown relation");
    return 0;
  }

  size_t ThresholdForLive(size_t m) const {
    return ThresholdFor(m, cfg_.epsilon, cfg_.min_threshold);
  }

  static Tuple OneTuple(const Value& v) {
    Tuple t;
    t.Append(v);
    return t;
  }

  /// A key of `rel` with partition value `x` and other value `y`, laid out
  /// in the relation's query schema order.
  static Tuple PairKey(const Rel& rel, const Value& x, const Value& y) {
    Tuple t;
    if (rel.px == 0) {
      t.Append(x);
      t.Append(y);
    } else {
      t.Append(y);
      t.Append(x);
    }
    return t;
  }

  static Tuple PairValues(const Value& a, const Value& b) {
    Tuple t;
    t.Append(a);
    t.Append(b);
    return t;
  }

  /// Moves every tuple of value `x` of relation `i` between the light and
  /// heavy parts, updating the two auxiliary views whose definition
  /// distinguishes K_i's parts: V_i = K_i^h ⋈ K_j^l and V_k = K_k^h ⋈ K_i^l.
  void MoveValue(int i, const Value& x, bool to_heavy) {
    const int j = (i + 1) % 3;
    const int k = (i + 2) % 3;
    Rel& ri = rel_[i];
    Rel& rj = rel_[j];
    Rel& rk = rel_[k];
    Tuple xt = OneTuple(x);

    Relation<Ring>& src = to_heavy ? ri.light : ri.heavy;
    Relation<Ring>& dst = to_heavy ? ri.heavy : ri.light;

    // Collect first: removals below would invalidate the probe result.
    std::vector<std::pair<Tuple, Element>> moved;
    if (const auto* slots = src.IndexOn(ri.xs).Probe(xt)) {
      moved.reserve(slots->size());
      for (uint32_t slot : *slots) {
        const Element& p = src.PayloadAt(slot);
        if (Ring::IsZero(p)) continue;
        moved.emplace_back(src.KeyAt(slot), p);
      }
    }
    // The σ_{Y_k = x} K_k^h enumeration is shared by every moved tuple.
    std::vector<std::pair<Value, Element>> khx;
    if (const auto* slots = rk.heavy.IndexOn(rk.ys).Probe(xt)) {
      khx.reserve(slots->size());
      for (uint32_t slot : *slots) {
        const Element& p = rk.heavy.PayloadAt(slot);
        if (Ring::IsZero(p)) continue;
        khx.emplace_back(rk.heavy.KeyAt(slot)[rk.px], p);
      }
    }

    for (auto& [key, p] : moved) {
      const Value& y = key[ri.py];
      // V_i = K_i^h ⋈ K_j^l gains the tuple when it enters the heavy part.
      if (const auto* slots = rj.light.IndexOn(rj.xs).Probe(OneTuple(y))) {
        for (uint32_t slot : *slots) {
          const Element& pj = rj.light.PayloadAt(slot);
          if (Ring::IsZero(pj)) continue;
          const Value& z = rj.light.KeyAt(slot)[rj.py];
          Element term = Ring::Mul(p, pj);
          view_[i].Add(PairValues(x, z),
                       to_heavy ? std::move(term) : Ring::Neg(term));
        }
      }
      // V_k = K_k^h ⋈ K_i^l loses it when it leaves the light part.
      for (const auto& [z, pk] : khx) {
        Element term = Ring::Mul(pk, p);
        view_[k].Add(PairValues(z, y),
                     to_heavy ? Ring::Neg(term) : std::move(term));
      }
      src.Add(key, Ring::Neg(p));
      dst.Add(std::move(key), std::move(p));
    }
    ri.heavy_set.Add(std::move(xt), to_heavy ? 1 : -1);
    ++stats_.minor_rebalances;
    stats_.minor_moved_tuples += static_cast<int64_t>(moved.size());
  }

  /// Recomputes θ from the live size, repartitions every relation by the
  /// new threshold and rebuilds the auxiliary views from scratch.
  void MajorRebalance() {
    theta_ = ThresholdForLive(live_total_);
    for (int i = 0; i < 3; ++i) {
      Rel& r = rel_[i];
      std::vector<std::pair<Tuple, Element>> all;
      all.reserve(r.light.size() + r.heavy.size());
      auto collect = [&](const Tuple& key, const Element& p) {
        all.emplace_back(key, p);
      };
      r.light.ForEach(collect);
      r.heavy.ForEach(collect);
      r.light = Relation<Ring>(r.schema);
      r.heavy = Relation<Ring>(r.schema);
      r.heavy_set = Relation<I64Ring>(r.xs);
      r.light.Reserve(all.size());
      for (auto& [key, p] : all) {
        Tuple xt = OneTuple(key[r.px]);
        const int64_t* d = r.degree.Find(xt);
        const bool heavy =
            d != nullptr && *d >= static_cast<int64_t>(theta_);
        if (heavy && !r.heavy_set.Contains(xt)) {
          r.heavy_set.Add(std::move(xt), 1);
        }
        (heavy ? r.heavy : r.light).Add(std::move(key), std::move(p));
      }
    }
    for (int i = 0; i < 3; ++i) {
      view_[i] = RecomputeView(i);
    }
    rebalance_base_ = live_total_;
    ++stats_.major_rebalances;
  }

  /// V_i = K_i^h ⋈ K_j^l, from scratch.
  Relation<Ring> RecomputeView(int i) const {
    const int j = (i + 1) % 3;
    const Rel& ri = rel_[i];
    const Rel& rj = rel_[j];
    Relation<Ring> out(view_schema_[i]);
    ri.heavy.ForEach([&](const Tuple& key, const Element& p) {
      const Value& x = key[ri.px];
      const Value& y = key[ri.py];
      if (const auto* slots = rj.light.IndexOn(rj.xs).Probe(OneTuple(y))) {
        for (uint32_t slot : *slots) {
          const Element& pj = rj.light.PayloadAt(slot);
          if (Ring::IsZero(pj)) continue;
          const Value& z = rj.light.KeyAt(slot)[rj.py];
          out.Add(PairValues(x, z), Ring::Mul(p, pj));
        }
      }
    });
    return out;
  }

  Config cfg_;
  std::array<Rel, 3> rel_;
  std::array<Schema, 3> view_schema_;
  std::array<Relation<Ring>, 3> view_;
  Element q_ = Ring::Zero();
  size_t theta_ = 1;
  size_t live_total_ = 0;
  size_t rebalance_base_ = 0;
  Stats stats_;
  obs::GaugeSet gauges_;  // last: unregisters before the state it reads
};

}  // namespace fivm::ivme

#endif  // FIVM_IVME_TRIANGLE_ENGINE_H_
