#include "src/core/variable_order.h"

#include <gtest/gtest.h>

#include "src/core/query.h"
#include "src/data/catalog.h"

namespace fivm {
namespace {

// The running example of the paper: R(A,B), S(A,C,E), T(C,D).
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

  // Figure 2a: A - {B, C - {D, E}}.
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

TEST(VariableOrderTest, Figure2aValidates) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
}

TEST(VariableOrderTest, Figure2aDepSets) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;

  // dep(A)=∅, dep(B)={A}, dep(C)={A}, dep(D)={C}, dep(E)={A,C} (Fig. 2a).
  EXPECT_TRUE(vo.node(vo.node_of_var(pq.A)).dep.empty());
  EXPECT_TRUE(vo.node(vo.node_of_var(pq.B)).dep.SameSet(Schema{pq.A}));
  EXPECT_TRUE(vo.node(vo.node_of_var(pq.C)).dep.SameSet(Schema{pq.A}));
  EXPECT_TRUE(vo.node(vo.node_of_var(pq.D)).dep.SameSet(Schema{pq.C}));
  EXPECT_TRUE(
      vo.node(vo.node_of_var(pq.E)).dep.SameSet(Schema{pq.A, pq.C}));
}

TEST(VariableOrderTest, RelationsAnchoredAtLowestVariable) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;

  // R(A,B) under B; S(A,C,E) under E; T(C,D) under D.
  auto anchored = [&](VarId v) {
    return vo.node(vo.node_of_var(v)).relations;
  };
  ASSERT_EQ(anchored(pq.B).size(), 1u);
  EXPECT_EQ(anchored(pq.B)[0], pq.r);
  ASSERT_EQ(anchored(pq.E).size(), 1u);
  EXPECT_EQ(anchored(pq.E)[0], pq.s);
  ASSERT_EQ(anchored(pq.D).size(), 1u);
  EXPECT_EQ(anchored(pq.D)[0], pq.t);
}

TEST(VariableOrderTest, RejectsRelationAcrossBranches) {
  PaperQuery pq;
  // Put C in a separate branch from E: S(A,C,E) then spans two branches.
  VariableOrder vo;
  int a = vo.AddNode(pq.A, -1);
  vo.AddNode(pq.B, a);
  int c = vo.AddNode(pq.C, a);
  vo.AddNode(pq.D, c);
  vo.AddNode(pq.E, a);  // E not under C → S's vars not on one path
  std::string error;
  EXPECT_FALSE(vo.Finalize(pq.query, &error));
  EXPECT_NE(error.find("S"), std::string::npos);
}

TEST(VariableOrderTest, RejectsMissingVariable) {
  PaperQuery pq;
  VariableOrder vo;
  int a = vo.AddNode(pq.A, -1);
  vo.AddNode(pq.B, a);
  std::string error;
  EXPECT_FALSE(vo.Finalize(pq.query, &error));
}

TEST(VariableOrderTest, RejectsDuplicateVariable) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  vo.AddNode(pq.B, vo.node_of_var(pq.E));
  std::string error;
  EXPECT_FALSE(vo.Finalize(pq.query, &error));
}

TEST(VariableOrderTest, SubtreeVarsAndRelations) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  const auto& c_node = vo.node(vo.node_of_var(pq.C));
  EXPECT_TRUE(c_node.subtree_vars.SameSet(Schema{pq.C, pq.D, pq.E}));
  EXPECT_EQ(c_node.subtree_relations.size(), 2u);  // S and T
  const auto& a_node = vo.node(vo.node_of_var(pq.A));
  EXPECT_EQ(a_node.subtree_relations.size(), 3u);
}

TEST(VariableOrderTest, AutoProducesValidOrder) {
  PaperQuery pq;
  VariableOrder vo = VariableOrder::Auto(pq.query);
  EXPECT_TRUE(vo.finalized());
  EXPECT_EQ(vo.nodes().size(), 5u);
}

TEST(VariableOrderTest, AutoPutsFreeVarsOnTop) {
  PaperQuery pq;
  pq.query.SetFreeVars(Schema{pq.A, pq.C});
  VariableOrder vo = VariableOrder::Auto(pq.query);
  // Every free variable node must have only free ancestors.
  for (const auto& n : vo.nodes()) {
    if (!pq.query.free_vars().Contains(n.var)) continue;
    int anc = n.parent;
    while (anc >= 0) {
      EXPECT_TRUE(pq.query.free_vars().Contains(vo.node(anc).var))
          << "bound ancestor above free var";
      anc = vo.node(anc).parent;
    }
  }
}

TEST(VariableOrderTest, AutoHandlesDisconnectedQuery) {
  Catalog catalog;
  Query q(&catalog);
  q.AddRelation("R", Schema{catalog.Intern("A"), catalog.Intern("B")});
  q.AddRelation("S", Schema{catalog.Intern("X"), catalog.Intern("Y")});
  VariableOrder vo = VariableOrder::Auto(q);
  EXPECT_TRUE(vo.finalized());
  EXPECT_EQ(vo.roots().size(), 2u);
}

TEST(VariableOrderTest, ChainOrderIsValid) {
  PaperQuery pq;
  VariableOrder vo;
  int parent = -1;
  for (VarId v : {pq.A, pq.C, pq.B, pq.D, pq.E}) parent = vo.AddNode(v, parent);
  std::string error;
  // A-C-B-D-E: R(A,B) has A,B on the path ✓; S(A,C,E) ✓; T(C,D) ✓.
  EXPECT_TRUE(vo.Finalize(pq.query, &error)) << error;
}

TEST(VariableOrderTest, TopDownVisitsParentsFirst) {
  PaperQuery pq;
  VariableOrder vo = pq.Figure2a();
  std::string error;
  ASSERT_TRUE(vo.Finalize(pq.query, &error)) << error;
  auto order = vo.TopDown();
  std::vector<bool> seen(vo.nodes().size(), false);
  for (int n : order) {
    if (vo.node(n).parent >= 0) {
      EXPECT_TRUE(seen[vo.node(n).parent]);
    }
    seen[n] = true;
  }
}

}  // namespace
}  // namespace fivm
