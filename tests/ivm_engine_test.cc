#include "src/core/ivm_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/relation_ops.h"
#include "src/exec/parallel_executor.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/rings/ring.h"
#include "src/util/rng.h"

namespace fivm {
namespace {

struct PaperFixture {
  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C, D, E;
  int r, s, t;
  VariableOrder vo;

  PaperFixture() {
    A = catalog.Intern("A");
    B = catalog.Intern("B");
    C = catalog.Intern("C");
    D = catalog.Intern("D");
    E = catalog.Intern("E");
    r = query.AddRelation("R", Schema{A, B});
    s = query.AddRelation("S", Schema{A, C, E});
    t = query.AddRelation("T", Schema{C, D});
    int a = vo.AddNode(A, -1);
    vo.AddNode(B, a);
    int c = vo.AddNode(C, a);
    vo.AddNode(D, c);
    vo.AddNode(E, c);
    std::string error;
    bool ok = vo.Finalize(query, &error);
    assert(ok);
    (void)ok;
  }

  // Figure 2c database, with all payloads 1 (COUNT).
  Database<I64Ring> Figure2cDatabase() const {
    Database<I64Ring> db = MakeDatabase<I64Ring>(query);
    db[r].Add(Tuple::Ints({1, 1}), 1);  // (a1,b1)
    db[r].Add(Tuple::Ints({1, 2}), 1);  // (a1,b2)
    db[r].Add(Tuple::Ints({2, 3}), 1);  // (a2,b3)
    db[r].Add(Tuple::Ints({3, 4}), 1);  // (a3,b4)
    db[s].Add(Tuple::Ints({1, 1, 1}), 1);  // (a1,c1,e1)
    db[s].Add(Tuple::Ints({1, 1, 2}), 1);  // (a1,c1,e2)
    db[s].Add(Tuple::Ints({1, 2, 3}), 1);  // (a1,c2,e3)
    db[s].Add(Tuple::Ints({2, 2, 4}), 1);  // (a2,c2,e4)
    db[t].Add(Tuple::Ints({1, 1}), 1);  // (c1,d1)
    db[t].Add(Tuple::Ints({2, 2}), 1);  // (c2,d2)
    db[t].Add(Tuple::Ints({2, 3}), 1);  // (c2,d3)
    db[t].Add(Tuple::Ints({3, 4}), 1);  // (c3,d4)
    return db;
  }
};

// Figure 2d: the COUNT query over the Figure 2c database is 10.
TEST(IvmEngineTest, CountQueryEvaluatesFigure2d) {
  PaperFixture f;
  ViewTree tree(&f.query, &f.vo);
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
  engine.Initialize(f.Figure2cDatabase());

  ASSERT_EQ(engine.result().size(), 1u);
  EXPECT_EQ(*engine.result().Find(Tuple()), 10);

  // Intermediate views from Figure 2d: V@B_R[a1]=2, [a2]=1, [a3]=1.
  int vb = tree.node(tree.LeafOfRelation(f.r)).parent;
  EXPECT_EQ(*engine.store(vb).Find(Tuple::Ints({1})), 2);
  EXPECT_EQ(*engine.store(vb).Find(Tuple::Ints({2})), 1);
  EXPECT_EQ(*engine.store(vb).Find(Tuple::Ints({3})), 1);

  // V@D_T[c1]=1, [c2]=2, [c3]=1.
  int vd = tree.node(tree.LeafOfRelation(f.t)).parent;
  EXPECT_EQ(*engine.store(vd).Find(Tuple::Ints({1})), 1);
  EXPECT_EQ(*engine.store(vd).Find(Tuple::Ints({2})), 2);
  EXPECT_EQ(*engine.store(vd).Find(Tuple::Ints({3})), 1);

  // V@C_ST[a1]=4, [a2]=2.
  int vc = tree.node(vd).parent;
  EXPECT_EQ(*engine.store(vc).Find(Tuple::Ints({1})), 4);
  EXPECT_EQ(*engine.store(vc).Find(Tuple::Ints({2})), 2);
}

// Example 4.1: δT = {(c1,d1)→-1, (c2,d2)→3} changes the count by +5.
TEST(IvmEngineTest, Example41DeltaPropagation) {
  PaperFixture f;
  ViewTree tree(&f.query, &f.vo);
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
  engine.Initialize(f.Figure2cDatabase());

  Relation<I64Ring> dt(Schema{f.C, f.D});
  dt.Add(Tuple::Ints({1, 1}), -1);
  dt.Add(Tuple::Ints({2, 2}), 3);
  engine.ApplyDelta(f.t, dt);

  EXPECT_EQ(*engine.result().Find(Tuple()), 15);

  // The stores on the path were refreshed: V@D_T[c1]=0 (gone), [c2]=5.
  int vd = tree.node(tree.LeafOfRelation(f.t)).parent;
  EXPECT_EQ(engine.store(vd).Find(Tuple::Ints({1})), nullptr);
  EXPECT_EQ(*engine.store(vd).Find(Tuple::Ints({2})), 5);
  // δV@C_ST[a1] = 1, [a2] = 3 over old values 4 and 2.
  int vc = tree.node(vd).parent;
  EXPECT_EQ(*engine.store(vc).Find(Tuple::Ints({1})), 5);
  EXPECT_EQ(*engine.store(vc).Find(Tuple::Ints({2})), 5);
}

// Example 4.2: for updates to T only, propagation works with only the root,
// V@B_R and V@E_S materialized.
TEST(IvmEngineTest, UpdatesToTOnlyUseSparsePlan) {
  PaperFixture f;
  ViewTree tree(&f.query, &f.vo);
  tree.ComputeMaterialization({f.t});
  EXPECT_EQ(tree.MaterializedCount(), 3);

  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
  engine.Initialize(f.Figure2cDatabase());
  EXPECT_EQ(*engine.result().Find(Tuple()), 10);

  Relation<I64Ring> dt(Schema{f.C, f.D});
  dt.Add(Tuple::Ints({1, 1}), -1);
  dt.Add(Tuple::Ints({2, 2}), 3);
  engine.ApplyDelta(f.t, dt);
  EXPECT_EQ(*engine.result().Find(Tuple()), 15);
}

// Example 1.1 / 2.3: SUM(B*D*E) grouped by (A, C).
TEST(IvmEngineTest, SumQueryWithGroupByAndLiftings) {
  PaperFixture f;
  f.query.SetFreeVars(Schema{f.A, f.C});
  ViewTree tree(&f.query, &f.vo);
  tree.MaterializeAll();
  LiftingMap<I64Ring> lifts;
  auto numeric = [](const Value& x) { return x.AsInt(); };
  lifts.Set(f.B, numeric);
  lifts.Set(f.D, numeric);
  lifts.Set(f.E, numeric);
  IvmEngine<I64Ring> engine(&tree, lifts);
  engine.Initialize(f.Figure2cDatabase());

  // Reference: join everything, sum B*D*E per (A, C).
  auto db = f.Figure2cDatabase();
  auto joined = Join(Join(db[f.r], db[f.s]), db[f.t]);
  auto expected = Marginalize(joined, Schema{f.B, f.D, f.E}, lifts);

  EXPECT_EQ(engine.result().size(), expected.size());
  expected.ForEach([&](const Tuple& k, const int64_t& p) {
    auto pos =
        expected.schema().PositionsOf(engine.result().schema());
    const int64_t* found = engine.result().Find(k.Project(pos));
    ASSERT_NE(found, nullptr) << k.ToString();
    EXPECT_EQ(*found, p);
  });

  // Now update S and compare against recomputation.
  Relation<I64Ring> ds(Schema{f.A, f.C, f.E});
  ds.Add(Tuple::Ints({1, 1, 9}), 2);
  ds.Add(Tuple::Ints({2, 2, 4}), -1);
  engine.ApplyDelta(f.s, ds);

  auto db2 = f.Figure2cDatabase();
  db2[f.s].UnionWith(ds);
  auto expected2 = Marginalize(Join(Join(db2[f.r], db2[f.s]), db2[f.t]),
                               Schema{f.B, f.D, f.E}, lifts);
  EXPECT_EQ(engine.result().size(), expected2.size());
  expected2.ForEach([&](const Tuple& k, const int64_t& p) {
    auto pos =
        expected2.schema().PositionsOf(engine.result().schema());
    const int64_t* found = engine.result().Find(k.Project(pos));
    ASSERT_NE(found, nullptr) << k.ToString();
    EXPECT_EQ(*found, p);
  });
}

// Factorized delta: δS = δS_A ⊗ δS_C ⊗ δS_E (Example 5.2) must produce the
// same result as the expanded listing delta.
TEST(IvmEngineTest, FactorizedDeltaMatchesListingDelta) {
  PaperFixture f;
  ViewTree tree(&f.query, &f.vo);
  tree.MaterializeAll();
  LiftingMap<I64Ring> lifts;

  IvmEngine<I64Ring> listing(&tree, lifts);
  IvmEngine<I64Ring> factorized(&tree, lifts);
  auto db = f.Figure2cDatabase();
  listing.Initialize(db);
  factorized.Initialize(db);

  Relation<I64Ring> da(Schema{f.A});
  da.Add(Tuple::Ints({1}), 1);
  da.Add(Tuple::Ints({2}), 1);
  Relation<I64Ring> dc(Schema{f.C});
  dc.Add(Tuple::Ints({1}), 1);
  dc.Add(Tuple::Ints({2}), 2);
  Relation<I64Ring> de(Schema{f.E});
  de.Add(Tuple::Ints({7}), 1);

  // Expanded product for the listing engine.
  auto expanded = Join(Join(da, dc), de);
  Relation<I64Ring> reordered(Schema{f.A, f.C, f.E});
  AbsorbInto(reordered, expanded);
  listing.ApplyDelta(f.s, reordered);

  factorized.ApplyFactorizedDelta(f.s, {da, dc, de});

  EXPECT_EQ(*listing.result().Find(Tuple()),
            *factorized.result().Find(Tuple()));
  // All stores on the path agree too.
  for (int node : tree.PathToRoot(f.s)) {
    const auto& a = listing.store(node);
    const auto& b = factorized.store(node);
    EXPECT_EQ(a.size(), b.size()) << tree.node(node).name;
    a.ForEach([&](const Tuple& k, const int64_t& p) {
      const int64_t* found = b.Find(k);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, p);
    });
  }
}

struct StepProfile {
  unsigned long long calls = 0, in = 0, out = 0;
};

/// The per-step profiles of an ExplainAnalyze dump, in plan order. Every
/// numbered step line must carry the annotation in exactly the format the
/// perfbench trace reader scans; a step without one fails the test.
std::vector<StepProfile> ParseStepProfiles(const std::string& text) {
  std::vector<StepProfile> steps;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    // Step lines are "  <n>. <step>"; plan headers are not numbered.
    if (line.size() < 3 || !std::isdigit(static_cast<unsigned char>(line[2])))
      continue;
    const size_t ann = line.find("[calls=");
    StepProfile p;
    double ms = 0;
    unsigned long long allocs = 0;
    if (ann == std::string::npos ||
        std::sscanf(line.c_str() + ann,
                    "[calls=%llu in=%llu out=%llu time=%lfms allocs=%llu]",
                    &p.calls, &p.in, &p.out, &ms, &allocs) != 5) {
      ADD_FAILURE() << "step without a profile annotation: " << line;
      continue;
    }
    steps.push_back(p);
  }
  return steps;
}

// EXPLAIN ANALYZE profiles every step a propagation reaches, and the one
// instrumentation switch, obs::SetEnabled(false), freezes those profiles
// and the engine.* registry counters without changing what is maintained.
TEST(IvmEngineTest, ExplainAnalyzeProfilesStepsAndRuntimeSwitchFreezesThem) {
  PaperFixture f;
  ViewTree tree(&f.query, &f.vo);
  tree.MaterializeAll();
  IvmEngine<I64Ring> engine(&tree, LiftingMap<I64Ring>{});
  IvmEngine<I64Ring> twin(&tree, LiftingMap<I64Ring>{});
  engine.Initialize(f.Figure2cDatabase());
  twin.Initialize(f.Figure2cDatabase());

  // One insert per relation, each joining the Figure 2c data (a1, c1), so
  // no propagation dies out early and every step of every route runs.
  auto apply_round = [&f](IvmEngine<I64Ring>& e, int64_t k) {
    Relation<I64Ring> dr(Schema{f.A, f.B});
    dr.Add(Tuple::Ints({1, 10 + k}), 1);
    e.ApplyDelta(f.r, dr);
    Relation<I64Ring> ds(Schema{f.A, f.C, f.E});
    ds.Add(Tuple::Ints({1, 1, 10 + k}), 1);
    e.ApplyDelta(f.s, ds);
    Relation<I64Ring> dt(Schema{f.C, f.D});
    dt.Add(Tuple::Ints({1, 10 + k}), 1);
    e.ApplyDelta(f.t, dt);
  };
  constexpr int kRounds = 4;
  for (int k = 0; k < kRounds; ++k) {
    apply_round(engine, k);
    apply_round(twin, k);
  }

  const std::vector<StepProfile> on = ParseStepProfiles(engine.ExplainAnalyze());
  ASSERT_FALSE(on.empty());
  for (size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i].calls, static_cast<unsigned long long>(kRounds))
        << "step " << i;
    EXPECT_GT(on[i].in, 0u) << "step " << i;
  }

  obs::Counter* applied =
      obs::MetricRegistry::Default().GetCounter("engine.applied_deltas");
  const uint64_t applied_before = applied->Value();
  obs::SetEnabled(false);
  for (int k = kRounds; k < 2 * kRounds; ++k) apply_round(engine, k);
  obs::SetEnabled(true);
  const std::vector<StepProfile> off =
      ParseStepProfiles(engine.ExplainAnalyze());
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(off[i].calls, on[i].calls) << "step " << i;
    EXPECT_EQ(off[i].in, on[i].in) << "step " << i;
    EXPECT_EQ(off[i].out, on[i].out) << "step " << i;
  }
  EXPECT_EQ(applied->Value(), applied_before);

  for (int k = kRounds; k < 2 * kRounds; ++k) apply_round(twin, k);
  for (int node = 0; node < static_cast<int>(tree.nodes().size()); ++node) {
    EXPECT_TRUE(ContentEquals(engine.store(node), twin.store(node)))
        << tree.node(node).name;
  }
}

// ---------------------------------------------------------------------------
// Randomized property sweep: for random databases and random update streams
// (inserts and deletes, all relations), the engine result equals both
// from-scratch view-tree evaluation and a naive join-aggregate reference.
// ---------------------------------------------------------------------------

struct RandomCase {
  int shape;  // 0 = paper query, 1 = path join, 2 = star join
  int seed;
  bool with_free_vars;
  bool with_liftings;
};

class IvmRandomizedTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(IvmRandomizedTest, IvmMatchesRecomputation) {
  const RandomCase& rc = GetParam();
  util::Rng rng(1000 + rc.seed * 7919);

  Catalog catalog;
  Query query(&catalog);
  if (rc.shape == 0) {
    VarId A = catalog.Intern("A"), B = catalog.Intern("B"),
          C = catalog.Intern("C"), D = catalog.Intern("D"),
          E = catalog.Intern("E");
    query.AddRelation("R", Schema{A, B});
    query.AddRelation("S", Schema{A, C, E});
    query.AddRelation("T", Schema{C, D});
    if (rc.with_free_vars) query.SetFreeVars(Schema{A, C});
  } else if (rc.shape == 1) {
    VarId A = catalog.Intern("A"), B = catalog.Intern("B"),
          C = catalog.Intern("C"), D = catalog.Intern("D");
    query.AddRelation("R1", Schema{A, B});
    query.AddRelation("R2", Schema{B, C});
    query.AddRelation("R3", Schema{C, D});
    if (rc.with_free_vars) query.SetFreeVars(Schema{B});
  } else {
    VarId K = catalog.Intern("K");
    for (int i = 0; i < 4; ++i) {
      VarId X = catalog.Intern("X" + std::to_string(i));
      query.AddRelation("R" + std::to_string(i), Schema{K, X});
    }
    if (rc.with_free_vars) query.SetFreeVars(Schema{K});
  }

  VariableOrder vo = VariableOrder::Auto(query);
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();

  LiftingMap<I64Ring> lifts;
  if (rc.with_liftings) {
    for (VarId v : query.BoundVars()) {
      if (rng.Bernoulli(0.5)) {
        lifts.Set(v, [](const Value& x) { return x.AsInt(); });
      }
    }
  }

  IvmEngine<I64Ring> engine(&tree, lifts);
  Database<I64Ring> db = MakeDatabase<I64Ring>(query);
  engine.Initialize(db);

  auto reference = [&]() {
    Relation<I64Ring> acc = db[0];
    for (int i = 1; i < query.relation_count(); ++i) {
      acc = Join(acc, db[i]);
    }
    return Marginalize(acc, query.BoundVars(), lifts);
  };

  for (int step = 0; step < 25; ++step) {
    // Random batch: 1-4 tuples to one random relation, inserts and deletes.
    int rel = static_cast<int>(rng.Uniform(query.relation_count()));
    const Schema& sch = query.relation(rel).schema;
    Relation<I64Ring> delta(sch);
    int batch = 1 + static_cast<int>(rng.Uniform(4));
    for (int b = 0; b < batch; ++b) {
      Tuple t;
      for (size_t i = 0; i < sch.size(); ++i) {
        t.Append(Value::Int(rng.UniformInt(0, 2)));
      }
      delta.Add(t, rng.Bernoulli(0.3) ? -1 : 1);
    }
    engine.ApplyDelta(rel, delta);
    db[rel].UnionWith(delta);

    auto expected = reference();
    const auto& actual = engine.result();
    ASSERT_EQ(actual.size(), expected.size()) << "step " << step;
    bool ok = true;
    expected.ForEach([&](const Tuple& k, const int64_t& p) {
      auto pos = expected.schema().PositionsOf(actual.schema());
      const int64_t* found = actual.Find(k.Project(pos));
      if (found == nullptr || *found != p) ok = false;
    });
    ASSERT_TRUE(ok) << "mismatch at step " << step;

    // From-scratch view-tree evaluation agrees as well (F-RE path).
    auto reeval = IvmEngine<I64Ring>::Evaluate(tree, lifts, db);
    ASSERT_EQ(reeval.size(), expected.size());
  }
}

std::vector<RandomCase> MakeCases() {
  std::vector<RandomCase> cases;
  for (int shape = 0; shape < 3; ++shape) {
    for (int seed = 0; seed < 4; ++seed) {
      cases.push_back({shape, seed, (seed % 2) == 0, (seed / 2) == 0});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IvmRandomizedTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<RandomCase>& info) {
                           return "shape" + std::to_string(info.param.shape) +
                                  "seed" + std::to_string(info.param.seed);
                         });


// Every apply is all-or-nothing: a lift that throws mid-propagation leaves
// every materialized store as it was — the leaf's included, whose delta is
// staged along with the view deltas rather than absorbed up front — and a
// retry of the same apply then lands exactly a fault-free twin's state.
// Q(A) = Σ_{B,C} R(A,B) ⋈ S(B,C); the lift on B runs when the S-delta
// reaches the view that marginalizes B, after the S leaf's and the C
// view's store deltas were already computed.
struct FaultyLiftFixture {
  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C;
  VariableOrder vo;
  std::optional<ViewTree> tree;
  /// The lift on B throws on its N-th call after `fuse` is set to N.
  std::shared_ptr<std::atomic<int>> fuse =
      std::make_shared<std::atomic<int>>(0);

  FaultyLiftFixture() {
    A = catalog.Intern("A");
    B = catalog.Intern("B");
    C = catalog.Intern("C");
    query.AddRelation("R", Schema{A, B});
    query.AddRelation("S", Schema{B, C});
    query.SetFreeVars(Schema{A});
    vo = VariableOrder::Auto(query);
    tree.emplace(&query, &vo);
    tree->MaterializeAll();
  }

  LiftingMap<I64Ring> Lifts() const {
    LiftingMap<I64Ring> lifts;
    lifts.Set(B, [f = fuse](const Value&) -> int64_t {
      if (f->load() > 0 && f->fetch_sub(1) == 1) {
        throw std::runtime_error("injected lift fault");
      }
      return 2;
    });
    return lifts;
  }

  /// An engine over a small R ⋈ S instance (fuse unarmed while loading).
  std::unique_ptr<IvmEngine<I64Ring>> MakeEngine() const {
    auto e = std::make_unique<IvmEngine<I64Ring>>(&*tree, Lifts());
    Database<I64Ring> db = MakeDatabase<I64Ring>(query);
    for (int64_t i = 0; i < 20; ++i) {
      db[0].Add(Tuple::Ints({i % 5, i % 4}), 1);
      db[1].Add(Tuple::Ints({i % 4, i}), 1);
    }
    e->Initialize(db);
    return e;
  }

  std::vector<Relation<I64Ring>> Stores(const IvmEngine<I64Ring>& e) const {
    std::vector<Relation<I64Ring>> out;
    for (size_t i = 0; i < tree->nodes().size(); ++i) {
      out.push_back(e.store(static_cast<int>(i)));
    }
    return out;
  }

  void ExpectStoresEqual(const std::vector<Relation<I64Ring>>& expect,
                         const IvmEngine<I64Ring>& e) const {
    for (size_t i = 0; i < tree->nodes().size(); ++i) {
      int node = static_cast<int>(i);
      if (!tree->node(node).materialized) continue;
      EXPECT_TRUE(ContentEquals(e.store(node), expect[i]))
          << "store of " << tree->node(node).name << " changed";
    }
  }
};

Relation<I64Ring> SmallSDelta(const Schema& schema) {
  Relation<I64Ring> d(schema);
  for (int64_t i = 0; i < 8; ++i) d.Add(Tuple::Ints({i % 4, 100 + i}), 1);
  return d;
}

TEST(IvmEngineTest, FaultedApplyLeavesEveryStoreUnchanged) {
  const std::vector<std::string> kinds = {"batch", "delta", "factorized"};
  for (const std::string& kind : kinds) {
    SCOPED_TRACE(kind);
    FaultyLiftFixture f;
    auto engine = f.MakeEngine();
    auto twin = f.MakeEngine();
    exec::ThreadPool pool(2);
    exec::ParallelExecutor<I64Ring> executor(
        engine.get(), &pool,
        exec::ParallelExecutor<I64Ring>::Options{.shards = 2});
    const Schema& s_schema = f.query.relation(1).schema;
    ASSERT_LT(SmallSDelta(s_schema).size(),
              exec::ParallelExecutor<I64Ring>::kMinParallelKeys);
    auto apply = [&](IvmEngine<I64Ring>& e) {
      if (kind == "batch" && &e == engine.get()) {
        executor.ApplyBatch(1, SmallSDelta(s_schema));
      } else if (kind == "factorized") {
        Relation<I64Ring> d_b(Schema{f.B});
        Relation<I64Ring> d_c(Schema{f.C});
        for (int64_t i = 0; i < 3; ++i) {
          d_b.Add(Tuple::Ints({i}), 1);
          d_c.Add(Tuple::Ints({200 + i}), 1);
        }
        e.ApplyFactorizedDelta(1, {d_b, d_c});
      } else {
        e.ApplyDelta(1, SmallSDelta(s_schema));
      }
    };

    const auto before = f.Stores(*engine);
    f.fuse->store(2);
    EXPECT_THROW(apply(*engine), std::runtime_error);
    EXPECT_EQ(f.fuse->load(), 0) << "the lift fault did not fire";
    f.ExpectStoresEqual(before, *engine);

    // Retrying the same apply lands exactly the fault-free state.
    apply(*engine);
    apply(*twin);
    EXPECT_TRUE(exec::StoresContentEqual(*engine, *twin));
  }
}

}  // namespace
}  // namespace fivm
