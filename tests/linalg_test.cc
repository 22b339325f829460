#include <gtest/gtest.h>

#include <cmath>

#include "src/linalg/chain_order.h"
#include "src/linalg/dense_chain_ivm.h"
#include "src/linalg/low_rank.h"
#include "src/linalg/matrix.h"
#include "src/util/rng.h"

namespace fivm::linalg {
namespace {

Matrix NaiveMultiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) sum += a.at(i, k) * b.at(k, j);
      c.at(i, j) = sum;
    }
  }
  return c;
}

Matrix Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Transposed(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

/// Reassembles Σ u_i v_i^T.
Matrix Expand(const LowRankFactorization& f, size_t rows, size_t cols) {
  Matrix out(rows, cols);
  for (size_t k = 0; k < f.rank(); ++k) out.AddOuter(f.us[k], f.vs[k]);
  return out;
}

/// Same shape, and no element differs by more than `tol`.
bool ApproxEquals(const Matrix& a, const Matrix& b, double tol = 1e-9) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (std::fabs(a.at(i, j) - b.at(i, j)) > tol) return false;
    }
  }
  return true;
}

TEST(MatrixTest, MultiplyMatchesNaive) {
  util::Rng rng(1);
  for (auto [n, k, m] : {std::tuple<int, int, int>{3, 4, 5},
                         {17, 33, 9},
                         {64, 64, 64},
                         {100, 1, 100}}) {
    Matrix a = Matrix::Random(n, k, rng);
    Matrix b = Matrix::Random(k, m, rng);
    EXPECT_TRUE(ApproxEquals(Multiply(a, b), NaiveMultiply(a, b), 1e-9));
  }
}

TEST(MatrixTest, IdentityIsNeutral) {
  util::Rng rng(2);
  Matrix a = Matrix::Random(8, 8, rng);
  EXPECT_TRUE(ApproxEquals(Multiply(a, Identity(8)), a));
  EXPECT_TRUE(ApproxEquals(Multiply(Identity(8), a), a));
}

TEST(MatrixTest, MultiplyVecMatchesMatrix) {
  util::Rng rng(3);
  Matrix a = Matrix::Random(6, 4, rng);
  Vector x{1.0, -2.0, 0.5, 3.0};
  Vector y = MultiplyVec(a, x);
  Matrix xm(4, 1);
  for (int i = 0; i < 4; ++i) xm.at(i, 0) = x[i];
  Matrix ym = Multiply(a, xm);
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], ym.at(i, 0), 1e-12);
  }
}

TEST(MatrixTest, VecMultiplyMatchesTranspose) {
  util::Rng rng(4);
  Matrix a = Matrix::Random(5, 7, rng);
  Vector x{1.0, 2.0, 3.0, 4.0, 5.0};
  Vector y = VecMultiply(x, a);
  Vector y2 = MultiplyVec(Transposed(a), x);
  for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y2[i], 1e-12);
}

TEST(MatrixTest, AddOuter) {
  Matrix m(2, 3);
  m.AddOuter({1.0, 2.0}, {3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 10.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  util::Rng rng(5);
  Matrix a = Matrix::Random(4, 9, rng);
  EXPECT_TRUE(ApproxEquals(Transposed(Transposed(a)), a));
}

TEST(LowRankTest, ExactForRank1) {
  util::Rng rng(6);
  Matrix a = Matrix::RandomOfRank(20, 30, 1, rng);
  auto f = FactorizeLowRank(a);
  EXPECT_EQ(f.rank(), 1u);
  EXPECT_TRUE(ApproxEquals(Expand(f, 20, 30), a, 1e-8));
}

TEST(LowRankTest, RecoversTrueRank) {
  util::Rng rng(7);
  for (size_t r : {2u, 5u, 9u}) {
    Matrix a = Matrix::RandomOfRank(40, 40, r, rng);
    auto f = FactorizeLowRank(a, SIZE_MAX, 1e-8);
    EXPECT_EQ(f.rank(), r) << "rank " << r;
    EXPECT_TRUE(ApproxEquals(Expand(f, 40, 40), a, 1e-6)) << "rank " << r;
  }
}

TEST(LowRankTest, MaxRankTruncates) {
  util::Rng rng(8);
  Matrix a = Matrix::RandomOfRank(20, 20, 6, rng);
  auto f = FactorizeLowRank(a, 3);
  EXPECT_EQ(f.rank(), 3u);
}

TEST(LowRankTest, ZeroMatrixHasRankZero) {
  Matrix a(10, 10);
  EXPECT_EQ(FactorizeLowRank(a).rank(), 0u);
}

TEST(ChainOrderTest, TextbookExample) {
  // CLRS example: dims 30,35,15,5,10,20,25 → optimal cost 15125.
  ChainOrder order({30, 35, 15, 5, 10, 20, 25});
  EXPECT_EQ(order.OptimalCost(), 15125u);
  EXPECT_EQ(order.Parenthesization(), "((A1 (A2 A3)) ((A4 A5) A6))");
}

TEST(ChainOrderTest, TwoMatrices) {
  ChainOrder order({10, 20, 30});
  EXPECT_EQ(order.OptimalCost(), 10u * 20u * 30u);
  EXPECT_EQ(order.Parenthesization(), "(A1 A2)");
}

TEST(ChainOrderTest, SquareChainIsLeftToRight) {
  ChainOrder order({8, 8, 8, 8});
  EXPECT_EQ(order.OptimalCost(), 2u * 8u * 8u * 8u);
}

TEST(DenseChainIvmTest, StrategiesAgreeOnRowUpdate) {
  util::Rng rng(9);
  const size_t n = 24;
  Matrix a1 = Matrix::Random(n, n, rng);
  Matrix a2 = Matrix::Random(n, n, rng);
  Matrix a3 = Matrix::Random(n, n, rng);

  DenseChainIvm reeval(a1, a2, a3);
  DenseChainIvm first(a1, a2, a3);
  DenseChainIvm fivm(a1, a2, a3);

  for (int step = 0; step < 5; ++step) {
    size_t row = rng.Uniform(n);
    Vector delta(n);
    for (double& v : delta) v = rng.UniformDouble(-1.0, 1.0);
    Matrix delta_mat(n, n);
    for (size_t j = 0; j < n; ++j) delta_mat.at(row, j) = delta[j];

    reeval.ReevaluateUpdate(delta_mat);
    first.FirstOrderUpdate(delta_mat);
    fivm.FactorizedRowUpdate(row, delta);

    EXPECT_TRUE(ApproxEquals(reeval.product(), first.product(), 1e-7));
    EXPECT_TRUE(ApproxEquals(reeval.product(), fivm.product(), 1e-7));
    EXPECT_TRUE(ApproxEquals(reeval.a2(), fivm.a2(), 1e-9));
  }
}

TEST(DenseChainIvmTest, RankRUpdateMatchesReevaluation) {
  util::Rng rng(10);
  const size_t n = 20;
  Matrix a1 = Matrix::Random(n, n, rng);
  Matrix a2 = Matrix::Random(n, n, rng);
  Matrix a3 = Matrix::Random(n, n, rng);

  DenseChainIvm reeval(a1, a2, a3);
  DenseChainIvm fivm(a1, a2, a3);

  for (size_t r : {1u, 3u, 7u}) {
    Matrix delta = Matrix::RandomOfRank(n, n, r, rng);
    auto f = FactorizeLowRank(delta, SIZE_MAX, 1e-10);
    EXPECT_EQ(f.rank(), r);
    reeval.ReevaluateUpdate(delta);
    fivm.FactorizedUpdate(f);
    EXPECT_TRUE(ApproxEquals(reeval.product(), fivm.product(), 1e-6));
  }
}

}  // namespace
}  // namespace fivm::linalg
