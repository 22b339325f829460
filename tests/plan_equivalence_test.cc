// Equivalence of compiled propagation plans (src/plan/) with the seed
// interpreter semantics: randomized insert/delete streams over the fig7
// housing schema, the fig13 triangle, and an indicator-projection tree must
// leave every materialized store identical whether deltas flow through the
// engine's compiled plan path or through a reference interpreter that
// re-derives the schema algebra per update (the seed PropagateUp loop,
// reproduced here against the engine's public store API). Data is
// integer-valued, so regression-ring aggregates are exactly representable
// and equality is bitwise, not approximate.
//
// Scope of the oracle: the reference arm uses the schema-deriving
// relation_ops overloads, which since PR 3 compile a spec on the fly — so
// these tests pin down what the *plan layer* adds (once-compiled route,
// step sequencing, fused-marg placement, scratch ping-pong/reuse, store
// surrender points), not the operator executors themselves. Operator
// semantics are anchored independently by the pre-existing suites
// (ivm_engine_test's hand-computed Figure 2d/Example 4.1 values,
// property_sweep_test vs full re-evaluation, relation_ops_test,
// baselines_test cross-checks).
//
// The fused multi-way join (a run of full-key sibling probes at one node
// compiled into one step) is pinned down by its plan shape on the fig7 star,
// by the absence of fusion on secondary-probe and single-join routes, by
// payload order under the non-commutative relational ring, and — through
// the EvalOut path — by Evaluate against naive re-evaluation.
//
// Also the plan-derived prewarming contract: PrewarmPropagationIndexes
// builds exactly the secondary indexes the compiled joins probe — no more,
// and none left to be built lazily during (possibly concurrent)
// propagation. The concurrent section runs under the CI TSan job, where a
// lazy IndexOn on the propagation path would be reported as a data race.

#include <gtest/gtest.h>

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/reevaluation.h"
#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/relation_ops.h"
#include "src/exec/thread_pool.h"
#include "src/ml/cofactor.h"
#include "src/plan/propagation_plan.h"
#include "src/rings/regression_ring.h"
#include "src/rings/relational_ring.h"
#include "src/rings/ring.h"
#include "src/util/rng.h"
#include "src/workloads/housing.h"
#include "src/workloads/twitter.h"

namespace fivm {
namespace {

struct Update {
  int relation;
  Tuple key;
  int64_t multiplicity;  // +1 insert, -1 delete
};

std::vector<Update> RandomStream(const Query& query, size_t n,
                                 int64_t key_domain, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Update> stream;
  stream.reserve(n);
  std::vector<std::vector<Tuple>> inserted(query.relation_count());
  for (size_t i = 0; i < n; ++i) {
    int r = static_cast<int>(rng.UniformInt(0, query.relation_count() - 1));
    bool can_delete = !inserted[r].empty();
    if (can_delete && rng.Bernoulli(0.25)) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(inserted[r].size()) - 1));
      stream.push_back(Update{r, inserted[r][pick], -1});
      inserted[r][pick] = inserted[r].back();
      inserted[r].pop_back();
      continue;
    }
    Tuple t;
    for (size_t c = 0; c < query.relation(r).schema.size(); ++c) {
      t.Append(Value::Int(rng.UniformInt(0, key_domain)));
    }
    inserted[r].push_back(t);
    stream.push_back(Update{r, std::move(t), 1});
  }
  return stream;
}

/// The seed engine's interpreted trigger, reproduced against an engine's
/// public API: per update it re-derives every schema intersection/union,
/// position map and join strategy from the view tree (via the
/// schema-deriving relation_ops overloads) and writes the stores through
/// AbsorbStoreDelta. The compiled plan path must match this bit for bit.
template <typename Ring>
class SeedInterpreter {
 public:
  using Element = typename Ring::Element;

  explicit SeedInterpreter(IvmEngine<Ring>* engine) : e_(engine) {
    const ViewTree& tree = e_->tree();
    counts_.resize(tree.nodes().size());
    for (size_t i = 0; i < tree.nodes().size(); ++i) {
      const ViewTree::Node& n = tree.node(static_cast<int>(i));
      if (n.indicator_for >= 0) {
        counts_[i] = Relation<I64Ring>(n.out_schema);
      }
    }
  }

  void ApplyDelta(int relation, Relation<Ring> delta) {
    const ViewTree& tree = e_->tree();
    std::vector<std::pair<int, Relation<Ring>>> indicator_deltas;
    for (int leaf : tree.IndicatorLeavesOfRelation(relation)) {
      indicator_deltas.emplace_back(leaf,
                                    ComputeIndicatorDelta(leaf, delta));
    }

    int leaf = tree.LeafOfRelation(relation);
    if (tree.node(leaf).materialized) {
      e_->AbsorbStoreDelta(leaf, Relation<Ring>(delta));
    }
    PropagateUp(leaf,
                Reordered(std::move(delta), tree.node(leaf).out_schema));

    for (auto& [ind_leaf, ind_delta] : indicator_deltas) {
      if (ind_delta.empty()) continue;
      if (tree.node(ind_leaf).materialized) {
        e_->AbsorbStoreDelta(ind_leaf, Relation<Ring>(ind_delta));
      }
      PropagateUp(ind_leaf, std::move(ind_delta));
    }
  }

 private:
  void PropagateUp(int from, Relation<Ring> cur) {
    const ViewTree& tree = e_->tree();
    const LiftingMap<Ring>& lifts = e_->lifts();
    Relation<Ring> owned = std::move(cur);
    Relation<Ring> held;
    const Relation<Ring>* left = &owned;
    int prev = from;
    int idx = tree.node(from).parent;
    while (idx >= 0) {
      if (left->empty()) return;
      const ViewTree::Node& n = tree.node(idx);
      Schema store_marg = n.marg_vars.Minus(n.retained_vars);
      int last_sibling = -1;
      for (int c : n.children) {
        if (c != prev) last_sibling = c;
      }
      for (int c : n.children) {
        if (c == prev) continue;
        ASSERT_TRUE(tree.node(c).materialized);
        Schema marg = tree.node(c).retained_vars;
        if (c == last_sibling && !store_marg.empty()) {
          marg = marg.Union(store_marg);
          store_marg = Schema{};
        }
        owned = JoinAndMarginalize(*left, e_->store(c), marg, lifts);
        left = &owned;
      }
      if (!store_marg.empty()) {
        owned = Marginalize(*left, store_marg, lifts);
        left = &owned;
      }
      if (n.materialized) {
        if (left != &owned) owned = *left;
        held = std::move(owned);
        e_->AbsorbStoreDelta(idx, Relation<Ring>(held));
        left = &held;
      }
      Schema out_marg = n.marg_vars.Intersect(n.retained_vars);
      if (!out_marg.empty()) {
        owned = Marginalize(*left, out_marg, lifts);
        left = &owned;
      }
      prev = idx;
      idx = n.parent;
    }
  }

  Relation<Ring> ComputeIndicatorDelta(int ind_leaf,
                                       const Relation<Ring>& delta) {
    const ViewTree& tree = e_->tree();
    const ViewTree::Node& ln = tree.node(ind_leaf);
    int relation = ln.indicator_for;
    int rleaf = tree.LeafOfRelation(relation);
    const Relation<Ring>& rstore = e_->store(rleaf);
    Relation<I64Ring>& counts = counts_[ind_leaf];

    auto store_pos = delta.schema().PositionsOf(rstore.schema());
    auto pk_pos = delta.schema().PositionsOf(ln.out_schema);

    Relation<Ring> dind(ln.out_schema);
    delta.ForEach([&](const Tuple& t, const Element& p) {
      const Element* old = rstore.Find(TupleView(t, store_pos));
      bool old_nz = old != nullptr;
      Element updated = old ? Ring::Add(*old, p) : p;
      bool new_nz = !Ring::IsZero(updated);
      if (old_nz == new_nz) return;
      Tuple pk = t.Project(pk_pos);
      const int64_t* before_ptr = counts.Find(pk);
      int64_t before = before_ptr ? *before_ptr : 0;
      if (new_nz) {
        counts.Add(pk, 1);
        if (before == 0) dind.Add(pk, Ring::One());
      } else {
        counts.Add(pk, -1);
        if (before == 1) dind.Add(pk, Ring::Neg(Ring::One()));
      }
    });
    return dind;
  }

  IvmEngine<Ring>* e_;
  std::vector<Relation<I64Ring>> counts_;
};

/// Runs `stream` through the compiled engine (ApplyDelta) and through the
/// reference interpreter over a twin engine, asserting store equality at
/// every checkpoint.
template <typename Ring>
void CheckCompiledMatchesInterpreter(IvmEngine<Ring>& compiled,
                                     IvmEngine<Ring>& reference,
                                     const Query& query,
                                     const std::vector<Update>& stream,
                                     size_t checkpoint_every) {
  SeedInterpreter<Ring> interp(&reference);
  size_t step = 0;
  for (const Update& u : stream) {
    Relation<Ring> d1(query.relation(u.relation).schema);
    d1.Add(u.key,
           u.multiplicity > 0 ? Ring::One() : Ring::Neg(Ring::One()));
    Relation<Ring> d2 = d1;
    compiled.ApplyDelta(u.relation, std::move(d1));
    interp.ApplyDelta(u.relation, std::move(d2));
    ++step;
    if (step % checkpoint_every != 0 && step != stream.size()) continue;
    const ViewTree& tree = compiled.tree();
    for (size_t i = 0; i < tree.nodes().size(); ++i) {
      int node = static_cast<int>(i);
      if (!tree.node(node).materialized) continue;
      ASSERT_TRUE(ContentEquals(compiled.store(node), reference.store(node)))
          << "store " << node << " (" << tree.node(node).name
          << ") diverged at step " << step;
    }
  }
}

TEST(PlanEquivalenceTest, Fig13TriangleMatchesSeedInterpreter) {
  workloads::TwitterConfig cfg;
  cfg.nodes = 80;
  cfg.edges = 700;
  auto ds = workloads::TwitterDataset::Generate(cfg);
  Query& query = *ds->query;
  ViewTree tree(&query, &ds->vorder);
  tree.ComputeMaterialization({0, 1, 2});
  auto slots = tree.AssignAggregateSlots();
  IvmEngine<RegressionRing> compiled(&tree,
                                     ml::RegressionLiftings(query, slots));
  IvmEngine<RegressionRing> reference(&tree,
                                      ml::RegressionLiftings(query, slots));
  Database<RegressionRing> empty = MakeDatabase<RegressionRing>(query);
  compiled.Initialize(empty);
  reference.Initialize(empty);

  auto stream = RandomStream(query, 3000, 35, /*seed=*/101);
  CheckCompiledMatchesInterpreter(compiled, reference, query, stream, 500);
}

TEST(PlanEquivalenceTest, Fig7HousingMatchesSeedInterpreter) {
  workloads::HousingConfig cfg;
  cfg.postcodes = 40;
  cfg.scale = 1;
  auto ds = workloads::HousingDataset::Generate(cfg);
  Query& query = *ds->query;
  ViewTree tree(&query, &ds->vorder);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();
  IvmEngine<RegressionRing> compiled(&tree,
                                     ml::RegressionLiftings(query, slots));
  IvmEngine<RegressionRing> reference(&tree,
                                      ml::RegressionLiftings(query, slots));
  Database<RegressionRing> empty = MakeDatabase<RegressionRing>(query);
  compiled.Initialize(empty);
  reference.Initialize(empty);

  // Integer key domain keeps the 27-attribute regression aggregates exactly
  // representable, so the comparison is bitwise.
  auto stream = RandomStream(query, 1200, 20, /*seed=*/55);
  CheckCompiledMatchesInterpreter(compiled, reference, query, stream, 300);
}

TEST(PlanEquivalenceTest, IndicatorTreeMatchesSeedInterpreter) {
  workloads::TwitterConfig cfg;
  cfg.nodes = 50;
  cfg.edges = 350;
  auto ds = workloads::TwitterDataset::Generate(cfg);
  Query& query = *ds->query;
  ViewTree tree(&query, &ds->vorder);
  ASSERT_GT(tree.AddIndicatorProjections(), 0);
  tree.ComputeMaterialization({0, 1, 2});
  auto slots = tree.AssignAggregateSlots();
  IvmEngine<RegressionRing> compiled(&tree,
                                     ml::RegressionLiftings(query, slots));
  IvmEngine<RegressionRing> reference(&tree,
                                      ml::RegressionLiftings(query, slots));
  Database<RegressionRing> empty = MakeDatabase<RegressionRing>(query);
  compiled.Initialize(empty);
  reference.Initialize(empty);

  auto stream = RandomStream(query, 2000, 25, /*seed=*/7);
  CheckCompiledMatchesInterpreter(compiled, reference, query, stream, 250);
}

TEST(PlanEquivalenceTest, I64CountQueryMatchesSeedInterpreter) {
  // The paper's A-(B, C-(D,E)) acyclic query under the exact counting ring:
  // equality here is bitwise by construction.
  Catalog catalog;
  Query query(&catalog);
  VarId A = catalog.Intern("A"), B = catalog.Intern("B"),
        C = catalog.Intern("C"), D = catalog.Intern("D"),
        E = catalog.Intern("E");
  query.AddRelation("R", Schema{A, B});
  query.AddRelation("S", Schema{A, C, E});
  query.AddRelation("T", Schema{C, D});
  VariableOrder vo;
  int a = vo.AddNode(A, -1);
  vo.AddNode(B, a);
  int c = vo.AddNode(C, a);
  vo.AddNode(D, c);
  vo.AddNode(E, c);
  std::string error;
  ASSERT_TRUE(vo.Finalize(query, &error)) << error;
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();

  IvmEngine<I64Ring> compiled(&tree, {});
  IvmEngine<I64Ring> reference(&tree, {});
  Database<I64Ring> empty = MakeDatabase<I64Ring>(query);
  compiled.Initialize(empty);
  reference.Initialize(empty);

  auto stream = RandomStream(query, 4000, 10, /*seed=*/13);
  CheckCompiledMatchesInterpreter(compiled, reference, query, stream, 400);
}

/// The kJoin steps of `p`, in route order.
std::vector<const plan::PropagationStep*> JoinSteps(
    const plan::PropagationPlan& p) {
  std::vector<const plan::PropagationStep*> joins;
  for (const plan::PropagationStep& s : p.steps()) {
    if (s.kind == plan::PropagationStep::Kind::kJoin) joins.push_back(&s);
  }
  return joins;
}

/// The numbered DebugString lines of `p` that describe join steps.
std::vector<std::string> JoinLines(const plan::PropagationPlan& p,
                                   const ViewTree& tree) {
  std::vector<std::string> lines;
  std::string dump = p.DebugString(tree);
  size_t at = 0;
  while (at < dump.size()) {
    size_t end = dump.find('\n', at);
    if (end == std::string::npos) end = dump.size();
    std::string line = dump.substr(at, end - at);
    size_t dot = line.find(". ");
    if (dot != std::string::npos && line.compare(dot + 2, 4, "join") == 0) {
      lines.push_back(line);
    }
    at = end + 1;
  }
  return lines;
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(PlanEquivalenceTest, Fig7RoutesJoinAllFiveSiblingsInOneStep) {
  workloads::HousingConfig cfg;
  cfg.postcodes = 20;
  auto ds = workloads::HousingDataset::Generate(cfg);
  Query& query = *ds->query;
  ViewTree tree(&query, &ds->vorder);
  tree.MaterializeAll();
  auto slots = tree.AssignAggregateSlots();
  IvmEngine<RegressionRing> engine(&tree,
                                   ml::RegressionLiftings(query, slots));
  const ViewTree::Node& root = tree.node(tree.root());
  ASSERT_EQ(root.children.size(), 6u);

  for (int r = 0; r < query.relation_count(); ++r) {
    const plan::PropagationPlan& p = engine.plans().ForRelation(r);
    std::vector<const plan::PropagationStep*> joins = JoinSteps(p);
    ASSERT_EQ(joins.size(), 1u) << p.DebugString(tree);
    const plan::PropagationStep& join = *joins[0];
    EXPECT_EQ(join.node, tree.root());
    ASSERT_EQ(join.links.size(), 5u);
    // The siblings in the chain's order: the root's children minus the one
    // on this route.
    size_t li = 0;
    for (int c : root.children) {
      bool on_route = false;
      for (int rel : tree.node(c).subtree_relations) on_route |= rel == r;
      if (on_route) continue;
      ASSERT_LT(li, join.links.size());
      EXPECT_EQ(join.links[li].sibling, c);
      EXPECT_EQ(join.links[li].join.kind, JoinKind::kFullKeyPrimary);
      ++li;
    }
    // Only the last link carries the ⊕; the others keep the left schema.
    for (size_t i = 0; i + 1 < join.links.size(); ++i) {
      EXPECT_TRUE(join.links[i].join.marg.empty());
      EXPECT_EQ(join.links[i].join.out_schema, join.links[i].join.left_schema);
    }
    EXPECT_FALSE(join.last_join().marg.empty());

    // DebugString: one join line per route, naming all five siblings.
    std::vector<std::string> lines = JoinLines(p, tree);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(CountOf(lines[0], " ⊗ "), 5u) << lines[0];
    for (const plan::JoinLink& l : join.links) {
      EXPECT_NE(lines[0].find(tree.node(l.sibling).name), std::string::npos);
    }
    EXPECT_NE(lines[0].find("fused ⊕[postcode]"), std::string::npos)
        << lines[0];
  }
}

TEST(PlanEquivalenceTest, SingleAndSecondaryProbeJoinsAreNotFused) {
  // Keyed R(A,B) ⋈ S(B,C) with free A: one sibling join on R's route.
  {
    Catalog catalog;
    Query query(&catalog);
    VarId A = catalog.Intern("A"), B = catalog.Intern("B"),
          C = catalog.Intern("C");
    query.AddRelation("R", Schema{A, B});
    query.AddRelation("S", Schema{B, C});
    query.SetFreeVars(Schema{A});
    VariableOrder vo = VariableOrder::Auto(query);
    ViewTree tree(&query, &vo);
    tree.ComputeMaterialization({0});
    IvmEngine<I64Ring> engine(&tree, {});
    std::vector<const plan::PropagationStep*> joins =
        JoinSteps(engine.plans().ForRelation(0));
    ASSERT_EQ(joins.size(), 1u);
    EXPECT_EQ(joins[0]->links.size(), 1u);
  }
  // Fig13 triangle: sibling joins probe secondary indexes, never fused.
  {
    workloads::TwitterConfig cfg;
    cfg.nodes = 30;
    cfg.edges = 150;
    auto ds = workloads::TwitterDataset::Generate(cfg);
    Query& query = *ds->query;
    ViewTree tree(&query, &ds->vorder);
    tree.ComputeMaterialization({0, 1, 2});
    auto slots = tree.AssignAggregateSlots();
    IvmEngine<RegressionRing> engine(&tree,
                                     ml::RegressionLiftings(query, slots));
    size_t secondary = 0;
    for (int r = 0; r < query.relation_count(); ++r) {
      const plan::PropagationPlan& p = engine.plans().ForRelation(r);
      for (const plan::PropagationStep* s : JoinSteps(p)) {
        EXPECT_EQ(s->links.size(), 1u) << p.DebugString(tree);
        secondary += s->last_join().kind == JoinKind::kSecondaryProbe;
      }
      EXPECT_EQ(JoinLines(p, tree).size(), JoinSteps(p).size());
    }
    EXPECT_GT(secondary, 0u);
  }
}

// The relational ring's product concatenates payload schemas left to right,
// so a multi-way join that multiplied in any order but the chain's would
// produce root payloads over a permuted schema. Star Q(A,B,C,D,E) = R(A,B) ⊗
// S(A,C) ⊗ T(A,D) ⊗ U(A,E) with every variable lifted to a singleton: each
// route's three sibling probes fuse into one step, and the root payloads
// must match the seed interpreter's chain exactly, schema order included.
TEST(PlanEquivalenceTest, RelationalRingStarKeepsPayloadOrder) {
  Catalog catalog;
  Query query(&catalog);
  VarId A = catalog.Intern("A"), B = catalog.Intern("B"),
        C = catalog.Intern("C"), D = catalog.Intern("D"),
        E = catalog.Intern("E");
  query.AddRelation("R", Schema{A, B});
  query.AddRelation("S", Schema{A, C});
  query.AddRelation("T", Schema{A, D});
  query.AddRelation("U", Schema{A, E});
  VariableOrder vo;
  int a = vo.AddNode(A, -1);
  for (VarId v : {B, C, D, E}) vo.AddNode(v, a);
  std::string error;
  ASSERT_TRUE(vo.Finalize(query, &error)) << error;
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();
  LiftingMap<RelationalRing> lifts;
  for (VarId v : {A, B, C, D, E}) lifts.Set(v, RelationalLifting(v));

  IvmEngine<RelationalRing> compiled(&tree, lifts);
  IvmEngine<RelationalRing> reference(&tree, lifts);
  for (int r = 0; r < query.relation_count(); ++r) {
    std::vector<const plan::PropagationStep*> joins =
        JoinSteps(compiled.plans().ForRelation(r));
    ASSERT_EQ(joins.size(), 1u);
    EXPECT_EQ(joins[0]->links.size(), 3u);
  }
  Database<RelationalRing> empty = MakeDatabase<RelationalRing>(query);
  compiled.Initialize(empty);
  reference.Initialize(empty);

  auto stream = RandomStream(query, 600, 3, /*seed=*/29);
  CheckCompiledMatchesInterpreter(compiled, reference, query, stream, 100);
  ASSERT_FALSE(compiled.result().empty());
  ASSERT_EQ(compiled.result().size(), reference.result().size());
  compiled.result().ForEach([&](const Tuple& k, const PayloadRelation& p) {
    const PayloadRelation* q = reference.result().Find(k);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(p.schema(), q->schema()) << "payload schema order diverged";
    EXPECT_TRUE(p == *q);
  });
}

// A star wider than the executor's inline buffers (8 right sides): eleven
// relations R_i(A, X_i) under A, so every route fuses ten sibling probes and
// the per-batch hash and hit arrays spill to the heap. Exact counting ring.
TEST(PlanEquivalenceTest, WideStarBeyondInlineCapacityMatchesSeedInterpreter) {
  constexpr int kRelations = 11;
  Catalog catalog;
  Query query(&catalog);
  VarId A = catalog.Intern("A");
  VariableOrder vo;
  int a = vo.AddNode(A, -1);
  for (int i = 0; i < kRelations; ++i) {
    const std::string suffix = std::to_string(i);
    VarId x = catalog.Intern(std::string("X").append(suffix));
    query.AddRelation(std::string("R").append(suffix), Schema{A, x});
    vo.AddNode(x, a);
  }
  std::string error;
  ASSERT_TRUE(vo.Finalize(query, &error)) << error;
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();

  IvmEngine<I64Ring> compiled(&tree, {});
  IvmEngine<I64Ring> reference(&tree, {});
  for (int r = 0; r < kRelations; ++r) {
    std::vector<const plan::PropagationStep*> joins =
        JoinSteps(compiled.plans().ForRelation(r));
    ASSERT_EQ(joins.size(), 1u);
    EXPECT_EQ(joins[0]->links.size(), size_t{kRelations - 1});
  }
  Database<I64Ring> empty = MakeDatabase<I64Ring>(query);
  compiled.Initialize(empty);
  reference.Initialize(empty);
  auto stream = RandomStream(query, 3000, 4, /*seed=*/43);
  CheckCompiledMatchesInterpreter(compiled, reference, query, stream, 300);
  EXPECT_FALSE(compiled.result().empty());
}

// A fused run whose siblings key on different positions of the delta:
// R(A,B,X), S(A,B), T(B,Y) under A - B - {X, Y}. At node B, R's delta
// [A,B] probes S on [A,B] and T's view on [B] in one step, so the two
// probes need their own hashes.
TEST(PlanEquivalenceTest, FusedProbesOnDifferentKeysMatchSeedInterpreter) {
  Catalog catalog;
  Query query(&catalog);
  VarId A = catalog.Intern("A"), B = catalog.Intern("B"),
        X = catalog.Intern("X"), Y = catalog.Intern("Y");
  query.AddRelation("R", Schema{A, B, X});
  query.AddRelation("S", Schema{A, B});
  query.AddRelation("T", Schema{B, Y});
  VariableOrder vo;
  int a = vo.AddNode(A, -1);
  int b = vo.AddNode(B, a);
  vo.AddNode(X, b);
  vo.AddNode(Y, b);
  std::string error;
  ASSERT_TRUE(vo.Finalize(query, &error)) << error;
  ViewTree tree(&query, &vo);
  tree.MaterializeAll();

  IvmEngine<I64Ring> compiled(&tree, {});
  IvmEngine<I64Ring> reference(&tree, {});
  const plan::PropagationPlan& p = compiled.plans().ForRelation(0);
  std::vector<const plan::PropagationStep*> joins = JoinSteps(p);
  ASSERT_FALSE(joins.empty());
  ASSERT_EQ(joins[0]->links.size(), 2u) << p.DebugString(tree);
  EXPECT_NE(joins[0]->links[0].join.right_key_pos.size(),
            joins[0]->links[1].join.right_key_pos.size());
  Database<I64Ring> empty = MakeDatabase<I64Ring>(query);
  compiled.Initialize(empty);
  reference.Initialize(empty);
  auto stream = RandomStream(query, 3000, 5, /*seed=*/47);
  CheckCompiledMatchesInterpreter(compiled, reference, query, stream, 300);
  EXPECT_FALSE(compiled.result().empty());
}

// Initialize and Evaluate run a node whose children are all stored and keyed
// on the first child's variables as one multi-way join over the children's
// stores. On integer-valued housing data (aggregates exact) the root equals
// naive re-evaluation — the full join, then marginalization — and the
// binary-chain fallback (children not stored) gives the same root.
TEST(PlanEquivalenceTest, FusedEvaluateMatchesNaiveReevaluation) {
  workloads::HousingConfig cfg;
  cfg.postcodes = 4;
  auto ds = workloads::HousingDataset::Generate(cfg);
  Query& query = *ds->query;
  util::Rng rng(61);
  Database<RegressionRing> db = MakeDatabase<RegressionRing>(query);
  for (int r = 0; r < query.relation_count(); ++r) {
    const size_t arity = query.relation(r).schema.size();
    for (int i = 0; i < 8; ++i) {
      Tuple t;
      t.Append(Value::Int(rng.UniformInt(0, 2)));  // postcode
      for (size_t c = 1; c < arity; ++c) {
        t.Append(Value::Int(rng.UniformInt(0, 9)));
      }
      db[r].Add(std::move(t), RegressionRing::One());
    }
  }
  ViewTree fused(&query, &ds->vorder);
  fused.MaterializeAll();
  ASSERT_EQ(fused.node(fused.root()).children.size(), 6u);
  ViewTree chained(&query, &ds->vorder);
  chained.ComputeMaterialization({});
  for (int c : chained.node(chained.root()).children) {
    ASSERT_FALSE(chained.node(c).materialized);
  }
  auto lifts = ml::RegressionLiftings(query, fused.AssignAggregateSlots());

  Relation<RegressionRing> naive = NaiveReevaluate(query, db, lifts);
  ASSERT_FALSE(naive.empty());
  EXPECT_TRUE(ContentEquals(
      IvmEngine<RegressionRing>::Evaluate(fused, lifts, db), naive));
  EXPECT_TRUE(ContentEquals(
      IvmEngine<RegressionRing>::Evaluate(chained, lifts, db), naive));
  IvmEngine<RegressionRing> engine(&fused, lifts);
  engine.Initialize(db);
  EXPECT_TRUE(ContentEquals(engine.result(), naive));
}

/// Counts secondary indexes across every store of the engine's tree.
template <typename Ring>
size_t TotalSecondaryIndexes(const IvmEngine<Ring>& engine) {
  size_t total = 0;
  for (size_t i = 0; i < engine.tree().nodes().size(); ++i) {
    total += engine.store(static_cast<int>(i)).SecondaryIndexCount();
  }
  return total;
}

TEST(PlanEquivalenceTest, PrewarmBuildsExactlyTheProbedIndexes) {
  workloads::TwitterConfig cfg;
  cfg.nodes = 60;
  cfg.edges = 500;
  auto ds = workloads::TwitterDataset::Generate(cfg);
  Query& query = *ds->query;

  for (int r = 0; r < query.relation_count(); ++r) {
    // Fresh engine per relation so the index census is attributable to one
    // plan's prewarm alone.
    ViewTree tree(&query, &ds->vorder);
    tree.ComputeMaterialization({0, 1, 2});
    auto slots = tree.AssignAggregateSlots();
    IvmEngine<RegressionRing> engine(&tree,
                                     ml::RegressionLiftings(query, slots));
    Database<RegressionRing> db = MakeDatabase<RegressionRing>(query);
    for (int rel = 0; rel < query.relation_count(); ++rel) {
      for (const Tuple& t : ds->tuples[rel]) {
        db[rel].Add(t, RegressionRing::One());
      }
    }
    engine.Initialize(db);
    ASSERT_EQ(TotalSecondaryIndexes(engine), 0u)
        << "Initialize must not leave secondary indexes on stores";

    const plan::PropagationPlan& plan = engine.plans().ForRelation(r);
    engine.PrewarmPropagationIndexes(r);

    // Exactly the plan's probe list was built...
    for (const auto& probe : plan.secondary_probes()) {
      EXPECT_TRUE(engine.store(probe.node).HasIndexOn(probe.key));
    }
    size_t distinct = TotalSecondaryIndexes(engine);
    size_t planned = 0;
    for (size_t i = 0; i < plan.secondary_probes().size(); ++i) {
      const auto& p = plan.secondary_probes()[i];
      bool dup = false;
      for (size_t j = 0; j < i; ++j) {
        const auto& q = plan.secondary_probes()[j];
        if (q.node == p.node && q.key == p.key) dup = true;
      }
      if (!dup) ++planned;
    }
    EXPECT_EQ(distinct, planned) << "prewarm built an index no join probes";

    // ...and propagation builds nothing further: concurrent shards only
    // perform read-only probes (a lazy IndexOn here would be a TSan race).
    const Schema& leaf_schema = plan.leaf_schema();
    exec::ThreadPool pool(4);
    std::vector<Relation<RegressionRing>> shard_delta;
    util::Rng rng(99 + static_cast<uint64_t>(r));
    for (size_t s = 0; s < 4; ++s) {
      shard_delta.emplace_back(leaf_schema);
      for (int k = 0; k < 50; ++k) {
        Tuple t;
        for (size_t col = 0; col < leaf_schema.size(); ++col) {
          t.Append(Value::Int(rng.UniformInt(0, 60)));
        }
        shard_delta[s].Add(std::move(t), RegressionRing::One());
      }
    }
    std::vector<IvmEngine<RegressionRing>::StagedDeltas> staged(4);
    std::vector<std::function<void()>> tasks;
    for (size_t s = 0; s < 4; ++s) {
      tasks.push_back([&engine, &plan, &shard_delta, &staged, s] {
        IvmEngine<RegressionRing>::PropagationScratch scratch;
        engine.PropagateDelta(plan.leaf(), std::move(shard_delta[s]),
                              &staged[s], &scratch);
      });
    }
    pool.RunTasks(std::move(tasks));
    EXPECT_EQ(TotalSecondaryIndexes(engine), distinct)
        << "propagation from relation " << r << " built a lazy index";
  }
}

TEST(PlanEquivalenceTest, DebugStringDumpsEveryRoute) {
  workloads::TwitterConfig cfg;
  cfg.nodes = 30;
  cfg.edges = 150;
  auto ds = workloads::TwitterDataset::Generate(cfg);
  Query& query = *ds->query;
  ViewTree tree(&query, &ds->vorder);
  tree.ComputeMaterialization({0, 1, 2});
  auto slots = tree.AssignAggregateSlots();
  IvmEngine<RegressionRing> engine(&tree,
                                   ml::RegressionLiftings(query, slots));

  std::string dump = engine.plans().DebugString();
  EXPECT_NE(dump.find("plan for leaf"), std::string::npos);
  EXPECT_NE(dump.find("partition key"), std::string::npos);
  EXPECT_NE(dump.find("store δ"), std::string::npos);
  // One route per leaf, each naming its join kind.
  for (int r = 0; r < query.relation_count(); ++r) {
    const plan::PropagationPlan& p = engine.plans().ForRelation(r);
    std::string one = p.DebugString(tree);
    EXPECT_NE(one.find(tree.node(p.leaf()).name), std::string::npos);
    EXPECT_FALSE(p.steps().empty());
    EXPECT_TRUE(tree.node(p.leaf()).out_schema.ContainsAll(
        p.partition_key()));
  }
}

}  // namespace
}  // namespace fivm
