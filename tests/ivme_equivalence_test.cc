#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/baselines/first_order_ivm.h"
#include "src/core/ivm_engine.h"
#include "src/core/view_tree.h"
#include "src/ivme/triangle_engine.h"
#include "src/rings/lifting.h"
#include "src/util/rng.h"
#include "src/workloads/stream.h"
#include "src/workloads/twitter.h"

namespace fivm::ivme {

/// The IVM^ε test oracles. A friend of TriangleEngine: they recompute the
/// engine's views and result from its partitions and compare.
struct TriangleEngineTestPeer {
  /// Exhaustively verifies internal consistency (test hook, O(N·(θ+deg))):
  ///   - partitions are disjoint and degree counters match live counts;
  ///   - heavy/light membership respects the hysteresis band
  ///     (heavy ⇒ 2·deg ≥ θ, light ⇒ deg < 2θ);
  ///   - each auxiliary view equals its heavy ⋈ light join recomputed from
  ///     scratch;
  ///   - Q equals the brute-force triangle aggregate.
  /// Returns false and fills `error` on the first violation.
  template <typename Ring>
  static bool CheckInvariants(const TriangleEngine<Ring>& e,
                              std::string* error) {
    using Engine = TriangleEngine<Ring>;
    using Element = typename Ring::Element;
    size_t live = 0;
    for (int i = 0; i < 3; ++i) {
      const auto& r = e.rel_[i];
      live += r.light.size() + r.heavy.size();
      // Degrees and membership per value.
      Relation<I64Ring> counts(r.xs);
      bool ok = true;
      r.light.ForEach([&](const Tuple& key, const Element&) {
        Tuple xt = Engine::OneTuple(key[r.px]);
        counts.Add(xt, 1);
        if (r.heavy_set.Contains(xt)) {
          ok = false;
          *error = "light tuple under heavy value in relation " +
                   std::to_string(i) + ": " + key.ToString();
        }
      });
      r.heavy.ForEach([&](const Tuple& key, const Element&) {
        Tuple xt = Engine::OneTuple(key[r.px]);
        counts.Add(xt, 1);
        if (!r.heavy_set.Contains(xt)) {
          ok = false;
          *error = "heavy tuple under light value in relation " +
                   std::to_string(i) + ": " + key.ToString();
        }
      });
      if (!ok) return false;
      size_t degree_live = 0;
      counts.ForEach([&](const Tuple& xt, const int64_t& n) {
        ++degree_live;
        const int64_t* d = r.degree.Find(xt);
        if (d == nullptr || *d != n) {
          ok = false;
          *error = "degree mismatch in relation " + std::to_string(i) +
                   " at " + xt.ToString() + ": counted " + std::to_string(n);
          return;
        }
        const bool is_heavy = r.heavy_set.Contains(xt);
        if (is_heavy && 2 * n < static_cast<int64_t>(e.theta_)) {
          ok = false;
          *error = "heavy value below θ/2 in relation " + std::to_string(i) +
                   " at " + xt.ToString();
        }
        if (!is_heavy && n >= 2 * static_cast<int64_t>(e.theta_)) {
          ok = false;
          *error = "light value at/above 2θ in relation " + std::to_string(i) +
                   " at " + xt.ToString();
        }
      });
      if (!ok) return false;
      if (r.degree.size() != degree_live) {
        *error = "degree map live-key count mismatch in relation " +
                 std::to_string(i);
        return false;
      }
    }
    if (live != e.live_total_) {
      *error = "live_total mismatch";
      return false;
    }
    // Views.
    for (int i = 0; i < 3; ++i) {
      Relation<Ring> expect = e.RecomputeView(i);
      if (!SameContents(expect, e.view_[i], error,
                        "view " + std::to_string(i))) {
        return false;
      }
    }
    // Q.
    Element brute = BruteForceResult(e);
    if (!Ring::IsZero(Ring::Add(brute, Ring::Neg(e.q_)))) {
      *error = "maintained Q differs from brute-force triangle aggregate";
      return false;
    }
    return true;
  }

  /// Q from scratch: full triangle join over both parts of every relation.
  template <typename Ring>
  static typename Ring::Element BruteForceResult(
      const TriangleEngine<Ring>& e) {
    using Engine = TriangleEngine<Ring>;
    using Element = typename Ring::Element;
    const auto& r0 = e.rel_[0];
    const auto& r1 = e.rel_[1];
    const auto& r2 = e.rel_[2];
    Element q = Ring::Zero();
    auto scan = [&](const Tuple& key, const Element& p0) {
      const Value& x = key[r0.px];
      const Value& y = key[r0.py];
      auto inner = [&](const Relation<Ring>& part1) {
        const Tuple yt = Engine::OneTuple(y);
        if (const auto* slots = part1.IndexOn(r1.xs).Probe(yt)) {
          for (uint32_t slot : *slots) {
            const Element& p1 = part1.PayloadAt(slot);
            if (Ring::IsZero(p1)) continue;
            const Value& z = part1.KeyAt(slot)[r1.py];
            Tuple zx = Engine::PairKey(r2, z, x);
            Element acc = Ring::Zero();
            if (const Element* p = r2.light.Find(zx)) acc = *p;
            if (const Element* p = r2.heavy.Find(zx)) {
              Ring::AddInPlace(acc, *p);
            }
            if (!Ring::IsZero(acc)) {
              Ring::AddInPlace(q, Ring::Mul(p0, Ring::Mul(p1, acc)));
            }
          }
        }
      };
      inner(r1.light);
      inner(r1.heavy);
    };
    r0.light.ForEach(scan);
    r0.heavy.ForEach(scan);
    return q;
  }

  /// Ring-generic content equality of two relations (a ≡ b iff every key's
  /// payloads cancel).
  template <typename Ring>
  static bool SameContents(const Relation<Ring>& a, const Relation<Ring>& b,
                           std::string* error, const std::string& what) {
    using Element = typename Ring::Element;
    bool ok = true;
    auto check = [&](const Relation<Ring>& lhs, const Relation<Ring>& rhs) {
      lhs.ForEach([&](const Tuple& key, const Element& p) {
        const Element* q = rhs.Find(key);
        Element other = q ? *q : Ring::Zero();
        if (!Ring::IsZero(Ring::Add(p, Ring::Neg(other)))) {
          ok = false;
          *error = what + " mismatch at " + key.ToString();
        }
      });
    };
    check(a, b);
    check(b, a);
    return ok;
  }
};

}  // namespace fivm::ivme

namespace fivm {
namespace {

using ivme::Config;
using ivme::TriangleEngine;

template <typename Ring>
bool CheckInvariants(const TriangleEngine<Ring>& engine, std::string* error) {
  return ivme::TriangleEngineTestPeer::CheckInvariants(engine, error);
}
using workloads::TwitterDataset;
using workloads::TwitterConfig;
using workloads::UpdateStream;

// Query-only dataset: the triangle query R(A,B) ⋈ S(B,C) ⋈ T(C,A) with no
// pre-generated edges (the streams below supply all data).
std::unique_ptr<TwitterDataset> TriangleQuery() {
  TwitterConfig cfg;
  cfg.nodes = 50;
  cfg.edges = 0;
  return TwitterDataset::Generate(cfg);
}

int64_t ScalarOf(const Relation<I64Ring>& rel) {
  const int64_t* p = rel.Find(Tuple::Empty());
  return p == nullptr ? 0 : *p;
}

UpdateStream::SkewConfig SmallSkew(uint64_t seed) {
  UpdateStream::SkewConfig cfg;
  cfg.nodes = 40;
  cfg.updates = 3000;
  cfg.batch_size = 64;
  cfg.burst = 16;
  cfg.theta = 1.1;
  cfg.churn = 0.45;
  cfg.seed = seed;
  return cfg;
}

// Differential fuzz: the same randomized insert/delete stream through
// IVM^ε, the factorized F-IVM engine, and the first-order baseline must
// agree on the triangle count after every batch.
TEST(IvmeEquivalenceTest, AgreesWithFIvmAndFirstOrderPerBatch) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto ds = TriangleQuery();
    ViewTree tree(ds->query.get(), &ds->vorder);
    tree.MaterializeAll();
    IvmEngine<I64Ring> fivm(&tree, LiftingMap<I64Ring>{});
    FirstOrderIvm<I64Ring> first_order(ds->query.get(),
                                       {LiftingMap<I64Ring>{}});
    TriangleEngine<I64Ring> eps(*ds->query, ds->r, ds->s, ds->t);

    UpdateStream stream = UpdateStream::AdversarialSkew(SmallSkew(seed));
    size_t batch_no = 0;
    for (const auto& batch : stream.batches()) {
      Relation<I64Ring> delta =
          UpdateStream::ToDelta<I64Ring>(*ds->query, batch);
      fivm.ApplyDelta(batch.relation, delta);
      first_order.ApplyDelta(batch.relation, delta);
      for (size_t i = 0; i < batch.tuples.size(); ++i) {
        eps.ApplyUpdate(batch.relation, batch.tuples[i],
                        UpdateStream::UnitPayload<I64Ring>(batch, i));
      }
      const int64_t want = ScalarOf(fivm.result());
      ASSERT_EQ(want, ScalarOf(first_order.result()))
          << "baselines disagree, batch " << batch_no << " seed " << seed;
      ASSERT_EQ(want, eps.result())
          << "IVM^ε diverged at batch " << batch_no << " seed " << seed;
      if (batch_no % 7 == 0) {
        std::string err;
        ASSERT_TRUE(CheckInvariants(eps, &err))
            << err << " (batch " << batch_no << " seed " << seed << ")";
      }
      ++batch_no;
    }
    std::string err;
    ASSERT_TRUE(CheckInvariants(eps, &err)) << err;
    EXPECT_GT(eps.stats().major_rebalances, 0)
        << "stream never triggered a major rebalance";
  }
}

// The ε extremes partition degenerately (ε=0: θ stays at the floor, nearly
// everything heavy; ε=1: θ = live size, everything light) yet must maintain
// the same count through the same skewed stream.
TEST(IvmeEquivalenceTest, EpsilonExtremesAgree) {
  auto ds = TriangleQuery();
  Config lo;
  lo.epsilon = 0.0;
  lo.min_threshold = 2;
  Config mid;  // defaults: ε = 0.5
  Config hi;
  hi.epsilon = 1.0;
  TriangleEngine<I64Ring> e0(*ds->query, ds->r, ds->s, ds->t, lo);
  TriangleEngine<I64Ring> e5(*ds->query, ds->r, ds->s, ds->t, mid);
  TriangleEngine<I64Ring> e1(*ds->query, ds->r, ds->s, ds->t, hi);

  UpdateStream stream = UpdateStream::AdversarialSkew(SmallSkew(21));
  size_t batch_no = 0;
  for (const auto& batch : stream.batches()) {
    for (size_t i = 0; i < batch.tuples.size(); ++i) {
      const int64_t m = UpdateStream::UnitPayload<I64Ring>(batch, i);
      e0.ApplyUpdate(batch.relation, batch.tuples[i], m);
      e5.ApplyUpdate(batch.relation, batch.tuples[i], m);
      e1.ApplyUpdate(batch.relation, batch.tuples[i], m);
    }
    ASSERT_EQ(e0.result(), e5.result()) << "batch " << batch_no;
    ASSERT_EQ(e5.result(), e1.result()) << "batch " << batch_no;
    ++batch_no;
  }
  for (auto* e : {&e0, &e5, &e1}) {
    std::string err;
    ASSERT_TRUE(CheckInvariants(*e, &err)) << err;
  }
  // ε = 0 keeps θ at the floor, so the hot vertices must actually cross it:
  // the heavy partitions and the move machinery were exercised.
  EXPECT_GT(e0.stats().minor_rebalances, 0);
  EXPECT_GT(e0.stats().minor_moved_tuples, 0);
  // ε = 1 keeps θ = live size: no value reaches 2θ, so everything stays
  // light and the heavy cases/views stay empty.
  for (int rel : {ds->r, ds->s, ds->t}) {
    EXPECT_EQ(e1.HeavySize(rel), 0u);
  }
}

// Deleting everything that was inserted must return the engine to the empty
// state: zero count, zero live tuples, invariants intact (the partitions
// shrink through demotions and major rebalances on the way down).
TEST(IvmeEquivalenceTest, InsertAllDeleteAllReturnsToZero) {
  auto ds = TriangleQuery();
  Config cfg;
  cfg.min_threshold = 2;
  TriangleEngine<I64Ring> eps(*ds->query, ds->r, ds->s, ds->t, cfg);

  util::Rng rng(99);
  std::vector<std::pair<int, Tuple>> inserted;
  const std::array<int, 3> rels{ds->r, ds->s, ds->t};
  for (int i = 0; i < 800; ++i) {
    int rel = rels[rng.Uniform(3)];
    // Tiny domain: plenty of triangles and high per-value degrees.
    Tuple t = Tuple::Ints({static_cast<int64_t>(rng.Uniform(8)),
                           static_cast<int64_t>(rng.Uniform(8))});
    eps.ApplyUpdate(rel, t, 1);
    inserted.emplace_back(rel, std::move(t));
  }
  EXPECT_GT(eps.live_tuples(), 0u);
  std::string err;
  ASSERT_TRUE(CheckInvariants(eps, &err)) << err;

  for (auto& [rel, t] : inserted) {
    eps.ApplyUpdate(rel, t, -1);
  }
  EXPECT_EQ(eps.result(), 0);
  EXPECT_EQ(eps.live_tuples(), 0u);
  ASSERT_TRUE(CheckInvariants(eps, &err)) << err;
  EXPECT_GT(eps.stats().major_rebalances, 0);
}

// Ring-generality: arbitrary (non-unit) payloads over the real ring. Two
// engines with different thresholds maintain the same weighted triangle
// aggregate, and both match the brute-force recomputation in
// CheckInvariants.
TEST(IvmeEquivalenceTest, F64PayloadsAcrossThresholds) {
  auto ds = TriangleQuery();
  Config a;  // defaults
  Config b;
  b.epsilon = 0.25;
  b.min_threshold = 2;
  TriangleEngine<F64Ring> ea(*ds->query, ds->r, ds->s, ds->t, a);
  TriangleEngine<F64Ring> eb(*ds->query, ds->r, ds->s, ds->t, b);

  util::Rng rng(7);
  const std::array<int, 3> rels{ds->r, ds->s, ds->t};
  std::vector<std::tuple<int, Tuple, double>> live;
  for (int i = 0; i < 600; ++i) {
    int rel;
    Tuple t;
    double w;
    if (!live.empty() && rng.Bernoulli(0.3)) {
      // Retract an earlier payload exactly (floating-point-safe: the
      // retraction is the negation of the stored weight).
      size_t pick = rng.Uniform(live.size());
      std::tie(rel, t, w) = live[pick];
      w = -w;
      live[pick] = std::move(live.back());
      live.pop_back();
    } else {
      rel = rels[rng.Uniform(3)];
      t = Tuple::Ints({static_cast<int64_t>(rng.Uniform(6)),
                       static_cast<int64_t>(rng.Uniform(6))});
      // Powers of two: products and sums stay exact in binary floating
      // point, so exact equality assertions are meaningful.
      w = static_cast<double>(int64_t{1} << rng.Uniform(4));
      if (rng.Bernoulli(0.5)) w = -w;
      live.emplace_back(rel, t, w);
    }
    ea.ApplyUpdate(rel, t, w);
    eb.ApplyUpdate(rel, t, w);
    if (i % 50 == 0) {
      ASSERT_EQ(ea.result(), eb.result()) << "update " << i;
    }
  }
  EXPECT_EQ(ea.result(), eb.result());
  std::string err;
  ASSERT_TRUE(CheckInvariants(ea, &err)) << err;
  ASSERT_TRUE(CheckInvariants(eb, &err)) << err;
}

}  // namespace
}  // namespace fivm
