#include "src/ml/linear_regression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/ml/cofactor.h"
#include "src/rings/regression_ring.h"
#include "src/util/rng.h"

namespace fivm::ml {
namespace {

// Builds a cofactor payload directly from a design matrix.
RegressionPayload PayloadFromRows(
    const std::vector<std::vector<double>>& rows) {
  RegressionPayload total;
  for (const auto& row : rows) {
    RegressionPayload p = RegressionPayload::Count(1.0);
    for (size_t j = 0; j < row.size(); ++j) {
      p = Mul(p, RegressionPayload::Lift(static_cast<uint32_t>(j), row[j]));
    }
    total.AddInPlace(p);
  }
  return total;
}

TEST(LinearRegressionTest, RecoversExactLinearModel) {
  // y = 3 + 2*x0 - 1.5*x1, noise-free.
  util::Rng rng(11);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 200; ++i) {
    double x0 = rng.UniformDouble(-5.0, 5.0);
    double x1 = rng.UniformDouble(-5.0, 5.0);
    rows.push_back({x0, x1, 3.0 + 2.0 * x0 - 1.5 * x1});
  }
  auto payload = PayloadFromRows(rows);

  auto result = TrainFromCofactor(payload, {0, 1}, 2);
  ASSERT_EQ(result.theta.size(), 3u);
  EXPECT_NEAR(result.theta[0], 3.0, 1e-3);
  EXPECT_NEAR(result.theta[1], 2.0, 1e-3);
  EXPECT_NEAR(result.theta[2], -1.5, 1e-3);
  EXPECT_LT(result.mse, 1e-5);
}

TEST(LinearRegressionTest, ClosedFormMatchesGradientDescent) {
  util::Rng rng(12);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 300; ++i) {
    double x0 = rng.UniformDouble(-2.0, 2.0);
    double x1 = rng.UniformDouble(-2.0, 2.0);
    double y = 1.0 - 0.5 * x0 + 4.0 * x1 + rng.UniformDouble(-0.1, 0.1);
    rows.push_back({x0, x1, y});
  }
  auto payload = PayloadFromRows(rows);

  auto gd = TrainFromCofactor(payload, {0, 1}, 2);
  auto cf = SolveLeastSquares(payload, {0, 1}, 2);
  ASSERT_EQ(gd.theta.size(), cf.theta.size());
  for (size_t i = 0; i < gd.theta.size(); ++i) {
    EXPECT_NEAR(gd.theta[i], cf.theta[i], 1e-3) << "theta " << i;
  }
  EXPECT_NEAR(gd.mse, cf.mse, 1e-5);
}

TEST(LinearRegressionTest, MseDecreasesWithBetterModel) {
  util::Rng rng(13);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 100; ++i) {
    double x = rng.UniformDouble(-1.0, 1.0);
    rows.push_back({x, 2.0 * x + 1.0});
  }
  auto payload = PayloadFromRows(rows);
  // The all-zero model's error is the mean of y².
  double mse_zero = 0.0;
  for (const auto& row : rows) mse_zero += row[1] * row[1] / rows.size();
  double mse_fit = SolveLeastSquares(payload, {0}, 1).mse;
  EXPECT_GT(mse_zero, mse_fit);
  EXPECT_NEAR(mse_fit, 0.0, 1e-12);
}

TEST(LinearRegressionTest, EmptyPayloadReturnsEmptyResult) {
  RegressionPayload empty;
  auto result = TrainFromCofactor(empty, {0}, 1);
  EXPECT_TRUE(result.theta.empty());
  EXPECT_FALSE(result.converged);
}

TEST(LinearRegressionTest, SingularSystemStillSolvable) {
  // Two perfectly collinear features: ridge keeps the solve finite.
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 50; ++i) {
    double x = i * 0.1;
    rows.push_back({x, 2.0 * x, 5.0 * x});
  }
  auto payload = PayloadFromRows(rows);
  auto cf = SolveLeastSquares(payload, {0, 1}, 2);
  ASSERT_EQ(cf.theta.size(), 3u);
  for (double t : cf.theta) EXPECT_TRUE(std::isfinite(t));
  EXPECT_LT(cf.mse, 1e-6);
}

TEST(CofactorHelpersTest, ScalarAggregateCountMatchesFormula) {
  Catalog catalog;
  Query query(&catalog);
  query.AddRelation("R", Schema{catalog.Intern("A"), catalog.Intern("B")});
  query.AddRelation("S", Schema{catalog.Intern("B"), catalog.Intern("C")});
  // m = 3 vars: 1 count + 3 sums + 6 quadratic = 10.
  auto aggs = ScalarRegressionAggregates(query);
  EXPECT_EQ(aggs.size(), 10u);
}

TEST(CofactorHelpersTest, ScalarAggregatesTruncate) {
  Catalog catalog;
  Query query(&catalog);
  query.AddRelation("R", Schema{catalog.Intern("A"), catalog.Intern("B"),
                               catalog.Intern("C"), catalog.Intern("D")});
  auto aggs = ScalarRegressionAggregates(query, 2);
  // 1 + 2 + 3 = 6.
  EXPECT_EQ(aggs.size(), 6u);
}

}  // namespace
}  // namespace fivm::ml
