#include "src/ml/linear_regression.h"

#include <cassert>
#include <cmath>
#include <vector>

namespace fivm::ml {
namespace {

// Builds the normal-equation system from the payload: A θ = b with the bias
// folded in as a constant-1 feature (paper footnote 1).
//   A[0][0] = c,          A[0][1+i]   = SUM(x_i),
//   A[1+i][1+j] = SUM(x_i x_j),   b[0] = SUM(y),   b[1+i] = SUM(x_i y).
void BuildSystem(const RegressionPayload& p,
                 const std::vector<uint32_t>& features, uint32_t label,
                 std::vector<std::vector<double>>* a,
                 std::vector<double>* b) {
  size_t m = features.size() + 1;
  a->assign(m, std::vector<double>(m, 0.0));
  b->assign(m, 0.0);
  (*a)[0][0] = p.count();
  (*b)[0] = p.Sum(label);
  for (size_t i = 0; i < features.size(); ++i) {
    (*a)[0][i + 1] = p.Sum(features[i]);
    (*a)[i + 1][0] = p.Sum(features[i]);
    (*b)[i + 1] = p.Cofactor(features[i], label);
    for (size_t j = 0; j < features.size(); ++j) {
      (*a)[i + 1][j + 1] = p.Cofactor(features[i], features[j]);
    }
  }
}

double Quadratic(const std::vector<std::vector<double>>& a,
                 const std::vector<double>& b, double yty,
                 const std::vector<double>& theta) {
  // theta^T A theta - 2 theta^T b + y^T y.
  size_t m = theta.size();
  double quad = 0.0, lin = 0.0;
  for (size_t i = 0; i < m; ++i) {
    double row = 0.0;
    for (size_t j = 0; j < m; ++j) row += a[i][j] * theta[j];
    quad += theta[i] * row;
    lin += theta[i] * b[i];
  }
  return quad - 2.0 * lin + yty;
}

}  // namespace

TrainResult TrainFromCofactor(const RegressionPayload& payload,
                              const std::vector<uint32_t>& feature_slots,
                              uint32_t label_slot,
                              const TrainOptions& options) {
  TrainResult result;
  size_t m = feature_slots.size() + 1;
  double n = payload.count();
  if (n <= 0.0) return result;

  std::vector<std::vector<double>> a;
  std::vector<double> b;
  BuildSystem(payload, feature_slots, label_slot, &a, &b);
  double yty = payload.Cofactor(label_slot, label_slot);

  std::vector<double> theta(m, 0.0);
  double alpha = options.step_size;
  double loss = Quadratic(a, b, yty, theta) / (2.0 * n);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // g = (A θ - b) / n.
    std::vector<double> g(m, 0.0);
    double gnorm = 0.0;
    for (size_t i = 0; i < m; ++i) {
      double row = 0.0;
      for (size_t j = 0; j < m; ++j) row += a[i][j] * theta[j];
      g[i] = (row - b[i]) / n;
      gnorm += g[i] * g[i];
    }
    gnorm = std::sqrt(gnorm);
    result.iterations = iter;
    if (gnorm < options.tolerance) {
      result.converged = true;
      break;
    }
    // Backtracking line search on the exact quadratic loss.
    for (int bt = 0; bt < 60; ++bt) {
      std::vector<double> next = theta;
      for (size_t i = 0; i < m; ++i) next[i] -= alpha * g[i];
      double next_loss = Quadratic(a, b, yty, next) / (2.0 * n);
      if (next_loss <= loss) {
        theta = std::move(next);
        loss = next_loss;
        alpha *= 1.1;
        break;
      }
      alpha *= 0.5;
    }
  }
  result.theta = theta;
  result.mse = Quadratic(a, b, yty, theta) / n;
  return result;
}

TrainResult SolveLeastSquares(const RegressionPayload& payload,
                              const std::vector<uint32_t>& feature_slots,
                              uint32_t label_slot) {
  TrainResult result;
  size_t m = feature_slots.size() + 1;
  double n = payload.count();
  if (n <= 0.0) return result;

  std::vector<std::vector<double>> a;
  std::vector<double> b;
  BuildSystem(payload, feature_slots, label_slot, &a, &b);
  double yty = payload.Cofactor(label_slot, label_slot);

  // Ridge regularization keeps degenerate systems solvable.
  double trace = 0.0;
  for (size_t i = 0; i < m; ++i) trace += a[i][i];
  double ridge = trace > 0 ? trace * 1e-12 : 1e-12;
  for (size_t i = 0; i < m; ++i) a[i][i] += ridge;

  // Gaussian elimination with partial pivoting.
  std::vector<double> x = b;
  for (size_t col = 0; col < m; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < m; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(x[col], x[pivot]);
    double p = a[col][col];
    if (std::fabs(p) < 1e-300) continue;  // fully degenerate direction
    for (size_t r = col + 1; r < m; ++r) {
      double factor = a[r][col] / p;
      if (factor == 0.0) continue;
      for (size_t c = col; c < m; ++c) a[r][c] -= factor * a[col][c];
      x[r] -= factor * x[col];
    }
  }
  std::vector<double> theta(m, 0.0);
  for (size_t i = m; i-- > 0;) {
    double sum = x[i];
    for (size_t j = i + 1; j < m; ++j) sum -= a[i][j] * theta[j];
    theta[i] = std::fabs(a[i][i]) < 1e-300 ? 0.0 : sum / a[i][i];
  }

  result.theta = theta;
  result.converged = true;
  // Recompute the system without ridge for the reported MSE.
  BuildSystem(payload, feature_slots, label_slot, &a, &b);
  result.mse = Quadratic(a, b, yty, theta) / n;
  return result;
}

}  // namespace fivm::ml
