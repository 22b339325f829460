#ifndef FIVM_LINALG_LOW_RANK_H_
#define FIVM_LINALG_LOW_RANK_H_

#include <vector>

#include "src/linalg/matrix.h"

namespace fivm::linalg {

/// A rank-revealing product decomposition δA = Σ_i u_i v_i^T (Section 5:
/// "an arbitrary update matrix can be decomposed into a sum of rank-1
/// matrices, each of them expressible as products of vectors").
struct LowRankFactorization {
  std::vector<Vector> us;  // column factors
  std::vector<Vector> vs;  // row factors
  size_t rank() const { return us.size(); }
};

/// Greedy cross (rank-1 peeling) factorization: repeatedly subtracts the
/// outer product through the largest remaining pivot. Exact (up to
/// round-off) for matrices of true low rank; `max_rank` and `tol` bound the
/// effort for noisy inputs. This is the library's stand-in for the external
/// tensor-decomposition toolboxes the paper cites [26, 44].
LowRankFactorization FactorizeLowRank(const Matrix& a,
                                      size_t max_rank = SIZE_MAX,
                                      double tol = 1e-10);

}  // namespace fivm::linalg

#endif  // FIVM_LINALG_LOW_RANK_H_
