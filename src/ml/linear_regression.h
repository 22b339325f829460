#ifndef FIVM_ML_LINEAR_REGRESSION_H_
#define FIVM_ML_LINEAR_REGRESSION_H_

#include <cstdint>
#include <vector>

#include "src/rings/regression_ring.h"

namespace fivm::ml {

/// Batch gradient descent over a maintained cofactor payload (Section 6.2).
/// The payload (c, s, Q) holds the sufficient statistics of the training
/// dataset (the join result); each convergence step costs O(m^2) and never
/// touches the data again — the property that makes maintaining the payload
/// incrementally worthwhile.
struct TrainOptions {
  double step_size = 0.1;     // initial α; adapted by backtracking
  int max_iterations = 10000;
  double tolerance = 1e-9;    // stop when the gradient norm falls below
};

struct TrainResult {
  /// theta[0] is the bias; theta[1 + i] multiplies feature_slots[i].
  std::vector<double> theta;
  int iterations = 0;
  /// Mean squared error on the training data, computed from the payload.
  double mse = 0.0;
  bool converged = false;
};

/// Trains f(x) = θ_0 + Σ_i θ_i x_i to predict the variable at `label_slot`
/// from the variables at `feature_slots`, using only the cofactor payload.
TrainResult TrainFromCofactor(const RegressionPayload& payload,
                              const std::vector<uint32_t>& feature_slots,
                              uint32_t label_slot,
                              const TrainOptions& options = TrainOptions());

/// Closed-form least squares via the normal equations (Gaussian elimination
/// with partial pivoting); used to validate gradient descent and as the
/// fast path when the system is well-conditioned.
TrainResult SolveLeastSquares(const RegressionPayload& payload,
                              const std::vector<uint32_t>& feature_slots,
                              uint32_t label_slot);

}  // namespace fivm::ml

#endif  // FIVM_ML_LINEAR_REGRESSION_H_
