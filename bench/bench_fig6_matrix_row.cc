// Figure 6 (left): incremental maintenance and re-evaluation of
// A = A1 * A2 * A3 under one-row updates to A2, on both runtimes:
// the hash-map relational engine (IvmEngine over the F64 ring, matrices as
// binary relations) and the dense-array runtime (the paper's Octave
// analogue). Expected shape: F-IVM is O(n^2) per update, 1-IVM pays one
// O(n^3) matmul, RE-EVAL pays two.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/linalg/dense_chain_ivm.h"
#include "src/linalg/low_rank.h"
#include "src/linalg/matrix.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace fivm {
namespace {

using linalg::Matrix;
using linalg::Vector;

Relation<F64Ring> ToRelation(const Matrix& m, const Schema& schema) {
  Relation<F64Ring> rel(schema);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      rel.Add(Tuple::Ints({static_cast<int64_t>(i), static_cast<int64_t>(j)}),
              m.at(i, j));
    }
  }
  return rel;
}

struct HashChain {
  Catalog catalog;
  Query query{&catalog};
  VariableOrder vo;
  VarId x1, x2, x3, x4;

  HashChain() {
    x1 = catalog.Intern("X1");
    x2 = catalog.Intern("X2");
    x3 = catalog.Intern("X3");
    x4 = catalog.Intern("X4");
    query.AddRelation("A1", Schema{x1, x2});
    query.AddRelation("A2", Schema{x2, x3});
    query.AddRelation("A3", Schema{x3, x4});
    query.SetFreeVars(Schema{x1, x4});
    // X1 - X4 - X2 - X3: the optimal bracketing's variable order.
    int n1 = vo.AddNode(x1, -1);
    int n4 = vo.AddNode(x4, n1);
    int n2 = vo.AddNode(x2, n4);
    vo.AddNode(x3, n2);
    std::string error;
    bool ok = vo.Finalize(query, &error);
    (void)ok;
  }
};

void RunHashRuntime(size_t n, int updates, util::Rng& rng) {
  HashChain chain;
  ViewTree tree(&chain.query, &chain.vo);
  tree.ComputeMaterialization({1});  // updates to A2 only
  LiftingMap<F64Ring> lifts;

  Matrix a1 = Matrix::Random(n, n, rng);
  Matrix a2 = Matrix::Random(n, n, rng);
  Matrix a3 = Matrix::Random(n, n, rng);
  Database<F64Ring> db;
  db.push_back(ToRelation(a1, Schema{chain.x1, chain.x2}));
  db.push_back(ToRelation(a2, Schema{chain.x2, chain.x3}));
  db.push_back(ToRelation(a3, Schema{chain.x3, chain.x4}));

  IvmEngine<F64Ring> fivm(&tree, lifts);
  fivm.Initialize(db);

  // F-IVM with factorized row updates: δA2 = e_row ⊗ delta_row.
  util::Timer timer;
  for (int u = 0; u < updates; ++u) {
    int64_t row = static_cast<int64_t>(rng.Uniform(n));
    Relation<F64Ring> erow(Schema{chain.x2});
    erow.Add(Tuple::Ints({row}), 1.0);
    Relation<F64Ring> drow(Schema{chain.x3});
    for (size_t j = 0; j < n; ++j) {
      drow.Add(Tuple::Ints({static_cast<int64_t>(j)}),
               rng.UniformDouble(-1.0, 1.0));
    }
    fivm.ApplyFactorizedDelta(1, {erow, drow});
  }
  double fivm_time = timer.ElapsedSeconds() / updates;

  // 1-IVM on hash maps: recompute delta = A1 δA2 A3 via joins.
  timer.Reset();
  for (int u = 0; u < updates; ++u) {
    int64_t row = static_cast<int64_t>(rng.Uniform(n));
    Relation<F64Ring> delta(Schema{chain.x2, chain.x3});
    for (size_t j = 0; j < n; ++j) {
      delta.Add(Tuple::Ints({row, static_cast<int64_t>(j)}),
                rng.UniformDouble(-1.0, 1.0));
    }
    LiftingMap<F64Ring> l;
    auto d12 = JoinAndMarginalize(delta, db[0], Schema{chain.x2}, l);
    auto d = JoinAndMarginalize(d12, db[2], Schema{chain.x3}, l);
    (void)d;
  }
  double first_time = timer.ElapsedSeconds() / updates;

  // RE-EVAL on hash maps: recompute both joins from scratch.
  int reeval_updates = n > 256 ? 1 : updates;
  timer.Reset();
  for (int u = 0; u < reeval_updates; ++u) {
    LiftingMap<F64Ring> l;
    auto p12 = JoinAndMarginalize(db[0], db[1], Schema{chain.x2}, l);
    auto p = JoinAndMarginalize(p12, db[2], Schema{chain.x3}, l);
    (void)p;
  }
  double reeval_time = timer.ElapsedSeconds() / reeval_updates;

  std::printf("hash   n=%5zu  F-IVM=%.6fs  1-IVM=%.6fs  RE-EVAL=%.6fs  "
              "(1-IVM/F-IVM=%.1fx, RE-EVAL/F-IVM=%.1fx)\n",
              n, fivm_time, first_time, reeval_time, first_time / fivm_time,
              reeval_time / fivm_time);
}

void RunDenseRuntime(size_t n, int updates, util::Rng& rng) {
  Matrix a1 = Matrix::Random(n, n, rng);
  Matrix a2 = Matrix::Random(n, n, rng);
  Matrix a3 = Matrix::Random(n, n, rng);

  linalg::DenseChainIvm fivm(a1, a2, a3);
  linalg::DenseChainIvm first(a1, a2, a3);
  linalg::DenseChainIvm reeval(a1, a2, a3);

  util::Timer timer;
  for (int u = 0; u < updates; ++u) {
    size_t row = rng.Uniform(n);
    Vector delta(n);
    for (double& v : delta) v = rng.UniformDouble(-1.0, 1.0);
    fivm.FactorizedRowUpdate(row, delta);
  }
  double fivm_time = timer.ElapsedSeconds() / updates;

  int heavy_updates = n >= 1024 ? 1 : 3;
  timer.Reset();
  for (int u = 0; u < heavy_updates; ++u) {
    size_t row = rng.Uniform(n);
    Matrix delta(n, n);
    for (size_t j = 0; j < n; ++j) delta.at(row, j) = rng.UniformDouble(-1, 1);
    first.FirstOrderUpdate(delta);
  }
  double first_time = timer.ElapsedSeconds() / heavy_updates;

  timer.Reset();
  for (int u = 0; u < heavy_updates; ++u) {
    size_t row = rng.Uniform(n);
    Matrix delta(n, n);
    for (size_t j = 0; j < n; ++j) delta.at(row, j) = rng.UniformDouble(-1, 1);
    reeval.ReevaluateUpdate(delta);
  }
  double reeval_time = timer.ElapsedSeconds() / heavy_updates;

  std::printf("dense  n=%5zu  F-IVM=%.6fs  1-IVM=%.6fs  RE-EVAL=%.6fs  "
              "(1-IVM/F-IVM=%.1fx, RE-EVAL/F-IVM=%.1fx)\n",
              n, fivm_time, first_time, reeval_time, first_time / fivm_time,
              reeval_time / fivm_time);
}

/// Runs `run` on each size in ascending order, and stops growing n once a
/// size's run exceeds the per-strategy budget (FIVM_BENCH_BUDGET_SEC). The
/// cut is reported as a TIMEOUT row: its fraction is the share of sizes
/// that ran, its tuple count the last n that ran. The smallest size always
/// runs.
template <typename Run>
void RunSizes(const char* runtime, const std::vector<size_t>& sizes,
              Run&& run) {
  const double budget = bench::BudgetSeconds();
  for (size_t i = 0; i < sizes.size(); ++i) {
    util::Timer timer;
    run(sizes[i]);
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed > budget && i + 1 < sizes.size()) {
      bench::PrintTimeoutRow(runtime,
                             static_cast<double>(i + 1) / sizes.size(),
                             sizes[i], elapsed);
      return;
    }
  }
}

}  // namespace
}  // namespace fivm

int main() {
  using namespace fivm;
  bench::PrintHeader(
      "Figure 6 (left): one-row updates to A2 in A = A1*A2*A3, avg time per "
      "update");
  util::Rng rng(42);
  int64_t scale = bench::BenchScale();

  std::vector<size_t> hash_sizes{64, 128, 256};
  if (scale > 1) hash_sizes.push_back(512);
  RunSizes("hash", hash_sizes, [&](size_t n) { RunHashRuntime(n, 5, rng); });

  std::vector<size_t> dense_sizes{256, 512, 1024};
  if (scale > 1) dense_sizes.push_back(2048);
  RunSizes("dense", dense_sizes,
           [&](size_t n) { RunDenseRuntime(n, 20, rng); });
  return 0;
}
