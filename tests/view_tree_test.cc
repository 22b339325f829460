#include "src/core/view_tree.h"

#include <gtest/gtest.h>

#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/data/catalog.h"

namespace fivm {
namespace {

struct PaperQuery {
  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C, D, E;
  int r, s, t;

  PaperQuery() {
    A = catalog.Intern("A");
    B = catalog.Intern("B");
    C = catalog.Intern("C");
    D = catalog.Intern("D");
    E = catalog.Intern("E");
    r = query.AddRelation("R", Schema{A, B});
    s = query.AddRelation("S", Schema{A, C, E});
    t = query.AddRelation("T", Schema{C, D});
  }

  VariableOrder Figure2a() const {
    VariableOrder vo;
    int a = vo.AddNode(A, -1);
    vo.AddNode(B, a);
    int c = vo.AddNode(C, a);
    vo.AddNode(D, c);
    vo.AddNode(E, c);
    return vo;
  }
};

// Figure 2b: views V@B_R[A], V@D_T[C], V@E_S[A,C], V@C_ST[A], V@A_RST[].
TEST(ViewTreeTest, Figure2bKeySchemas) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  ViewTree tree(&pq.query, &vo);

  // 5 variable views + 3 leaves = 8 nodes (no chains to compose here).
  EXPECT_EQ(tree.nodes().size(), 8u);

  const auto& root = tree.node(tree.root());
  EXPECT_TRUE(root.out_schema.empty());
  ASSERT_EQ(root.vars.size(), 1u);
  EXPECT_EQ(root.vars[0], pq.A);

  // Locate the view above leaf R: V@B_R with keys [A].
  int leaf_r = tree.LeafOfRelation(pq.r);
  const auto& vb = tree.node(tree.node(leaf_r).parent);
  EXPECT_TRUE(vb.out_schema.SameSet(Schema{pq.A}));
  EXPECT_TRUE(vb.marg_vars.SameSet(Schema{pq.B}));

  int leaf_t = tree.LeafOfRelation(pq.t);
  const auto& vd = tree.node(tree.node(leaf_t).parent);
  EXPECT_TRUE(vd.out_schema.SameSet(Schema{pq.C}));

  int leaf_s = tree.LeafOfRelation(pq.s);
  const auto& ve = tree.node(tree.node(leaf_s).parent);
  EXPECT_TRUE(ve.out_schema.SameSet(Schema{pq.A, pq.C}));

  // V@C_ST[A]: parent of V@D and V@E.
  const auto& vc = tree.node(vd.parent);
  EXPECT_TRUE(vc.out_schema.SameSet(Schema{pq.A}));
  EXPECT_EQ(vc.parent, tree.root());
}

TEST(ViewTreeTest, FreeVariablesStayInKeys) {
  PaperQuery pq;
  pq.query.SetFreeVars(Schema{pq.A, pq.C});
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  ViewTree tree(&pq.query, &vo);

  const auto& root = tree.node(tree.root());
  EXPECT_TRUE(root.out_schema.SameSet(Schema{pq.A, pq.C}));
  EXPECT_TRUE(root.marg_vars.empty());
}

TEST(ViewTreeTest, PathToRootFollowsLeafChain) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  ViewTree tree(&pq.query, &vo);

  auto path = tree.PathToRoot(pq.t);
  // T-leaf → V@D → V@C → V@A(root).
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(tree.node(path[0]).relation, pq.t);
  EXPECT_EQ(path.back(), tree.root());
}

// Example 4.2 / Figure 5: for updates to T only, materialize the root and
// the sibling views V@E_S and V@B_R, but not V@D_T or V@C_ST.
TEST(ViewTreeTest, MaterializationForUpdatesToTOnly) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  ViewTree tree(&pq.query, &vo);
  tree.ComputeMaterialization({pq.t});

  EXPECT_TRUE(tree.node(tree.root()).materialized);

  int leaf_r = tree.LeafOfRelation(pq.r);
  int leaf_s = tree.LeafOfRelation(pq.s);
  int leaf_t = tree.LeafOfRelation(pq.t);
  int vb = tree.node(leaf_r).parent;   // V@B_R
  int ve = tree.node(leaf_s).parent;   // V@E_S
  int vd = tree.node(leaf_t).parent;   // V@D_T
  int vc = tree.node(vd).parent;       // V@C_ST

  EXPECT_TRUE(tree.node(vb).materialized);
  EXPECT_TRUE(tree.node(ve).materialized);
  EXPECT_FALSE(tree.node(vd).materialized);
  EXPECT_FALSE(tree.node(vc).materialized);
  // Base relations are not needed either (T's own leaf feeds the delta).
  EXPECT_FALSE(tree.node(leaf_t).materialized);
  EXPECT_FALSE(tree.node(leaf_r).materialized);
  EXPECT_FALSE(tree.node(leaf_s).materialized);
}

TEST(ViewTreeTest, MaterializationForAllUpdatableStoresEverything) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  ViewTree tree(&pq.query, &vo);
  tree.ComputeMaterialization({pq.r, pq.s, pq.t});
  // Every view joins (at some ancestor) with siblings over updatable
  // relations, except base-relation leaves whose parents only cover
  // themselves... here all views are needed except none.
  for (const auto& n : tree.nodes()) {
    if (n.relation >= 0) {
      // Leaf R: parent V@B has rels {R} → (rels(parent)\{R}) ∩ U = ∅ for R's
      // own leaf under a single-relation view.
      continue;
    }
    EXPECT_TRUE(n.materialized) << n.name;
  }
}

TEST(ViewTreeTest, NoUpdatesStoresOnlyRoot) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  ViewTree tree(&pq.query, &vo);
  tree.ComputeMaterialization({});
  EXPECT_EQ(tree.MaterializedCount(), 1);
  EXPECT_TRUE(tree.node(tree.root()).materialized);
}

TEST(ViewTreeTest, ChainCompositionCollapsesLocalVariables) {
  // Wide relation W(K, L1..L4) joined with X(K, M): the L chain composes
  // into a single view over W.
  Catalog catalog;
  Query q(&catalog);
  VarId K = catalog.Intern("K");
  VarId M = catalog.Intern("M");
  std::vector<VarId> L;
  for (int i = 0; i < 4; ++i) {
    L.push_back(catalog.Intern("L" + std::to_string(i)));
  }
  Schema w_schema{K};
  for (VarId l : L) w_schema.Add(l);
  q.AddRelation("W", w_schema);
  q.AddRelation("X", Schema{K, M});

  VariableOrder vo;
  int k = vo.AddNode(K, -1);
  int parent = k;
  for (VarId l : L) parent = vo.AddNode(l, parent);
  vo.AddNode(M, k);
  std::string error;
  ASSERT_TRUE(vo.Finalize(q, &error)) << error;

  ViewTree tree(&q, &vo);
  // Expected: root V@K, child V@[L0..L3] over leaf W, child V@M over leaf X.
  // Total nodes: 3 views + 2 leaves = 5.
  EXPECT_EQ(tree.nodes().size(), 5u);
  int leaf_w = tree.LeafOfRelation(0);
  const auto& vl = tree.node(tree.node(leaf_w).parent);
  EXPECT_EQ(vl.vars.size(), 4u);
  EXPECT_TRUE(vl.marg_vars.SameSet(Schema{L[0], L[1], L[2], L[3]}));
  EXPECT_TRUE(vl.out_schema.SameSet(Schema{K}));
}

TEST(ViewTreeTest, CompositionDisabled) {
  Catalog catalog;
  Query q(&catalog);
  VarId K = catalog.Intern("K");
  VarId L0 = catalog.Intern("L0");
  VarId L1 = catalog.Intern("L1");
  q.AddRelation("W", Schema{K, L0, L1});
  q.AddRelation("X", Schema{K});
  VariableOrder vo;
  int k = vo.AddNode(K, -1);
  int l0 = vo.AddNode(L0, k);
  vo.AddNode(L1, l0);
  std::string error;
  ASSERT_TRUE(vo.Finalize(q, &error)) << error;
  ViewTree::Options opts;
  opts.compose_chains = false;
  ViewTree tree(&q, &vo, opts);
  EXPECT_EQ(tree.nodes().size(), 5u);  // K, L0, L1 views + 2 leaves
}

TEST(ViewTreeTest, RetainVarsModeStoresOwnVariable) {
  PaperQuery pq;
  pq.query.SetFreeVars(Schema{pq.A, pq.B, pq.C, pq.D});
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  ViewTree::Options opts;
  opts.retain_vars = true;
  ViewTree tree(&pq.query, &vo, opts);

  // In retain mode the root marginalizes A but stores [A].
  const auto& root = tree.node(tree.root());
  EXPECT_TRUE(root.out_schema.empty());
  EXPECT_TRUE(root.store_schema.SameSet(Schema{pq.A}));
  EXPECT_TRUE(root.retained_vars.SameSet(Schema{pq.A}));

  // V@D_T stores [C, D].
  int leaf_t = tree.LeafOfRelation(pq.t);
  const auto& vd = tree.node(tree.node(leaf_t).parent);
  EXPECT_TRUE(vd.store_schema.SameSet(Schema{pq.C, pq.D}));
  EXPECT_TRUE(vd.out_schema.SameSet(Schema{pq.C}));
}

TEST(ViewTreeTest, AggregateSlotsAreContiguousPerSubtree) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  ViewTree tree(&pq.query, &vo);
  auto slots = tree.AssignAggregateSlots();

  // All five variables get distinct slots 0..4.
  std::vector<bool> used(5, false);
  for (VarId v : {pq.A, pq.B, pq.C, pq.D, pq.E}) {
    ASSERT_LT(slots[v], 5u);
    EXPECT_FALSE(used[slots[v]]);
    used[slots[v]] = true;
  }
  // The subtree under C covers {C, D, E}: those slots are contiguous.
  uint32_t lo = std::min({slots[pq.C], slots[pq.D], slots[pq.E]});
  uint32_t hi = std::max({slots[pq.C], slots[pq.D], slots[pq.E]});
  EXPECT_EQ(hi - lo, 2u);
}

TEST(ViewTreeTest, DisconnectedQueryGetsVirtualRoot) {
  Catalog catalog;
  Query q(&catalog);
  q.AddRelation("R", Schema{catalog.Intern("A")});
  q.AddRelation("S", Schema{catalog.Intern("X")});
  VariableOrder vo = VariableOrder::Auto(q);
  ViewTree tree(&q, &vo);
  const auto& root = tree.node(tree.root());
  EXPECT_EQ(root.relation, -1);
  EXPECT_EQ(root.subtree_relations.size(), 2u);
}

// --- Explain facilities ---------------------------------------------------

TEST(ExplainTest, ExplainViewsShowsDefinitions) {
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
  ASSERT_TRUE(vo.Finalize(query, &error));
  ViewTree tree(&query, &vo);

  std::string views = tree.ExplainViews();
  EXPECT_NE(views.find("⊕D"), std::string::npos);
  EXPECT_NE(views.find("T[C,D]"), std::string::npos);
  EXPECT_NE(views.find("⊗"), std::string::npos);
}

}  // namespace
}  // namespace fivm
