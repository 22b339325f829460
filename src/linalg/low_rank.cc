#include "src/linalg/low_rank.h"

#include <cmath>

namespace fivm::linalg {

LowRankFactorization FactorizeLowRank(const Matrix& a, size_t max_rank,
                                      double tol) {
  LowRankFactorization f;
  Matrix residual = a;
  const size_t rows = a.rows(), cols = a.cols();

  while (f.rank() < max_rank) {
    // Find the pivot: the largest remaining absolute entry.
    size_t pi = 0, pj = 0;
    double pivot = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      const double* r = residual.row(i);
      for (size_t j = 0; j < cols; ++j) {
        if (std::fabs(r[j]) > std::fabs(pivot)) {
          pivot = r[j];
          pi = i;
          pj = j;
        }
      }
    }
    if (std::fabs(pivot) <= tol) break;

    // u = residual column pj; v = residual row pi / pivot.
    Vector u(rows), v(cols);
    for (size_t i = 0; i < rows; ++i) u[i] = residual.at(i, pj);
    const double* prow = residual.row(pi);
    for (size_t j = 0; j < cols; ++j) v[j] = prow[j] / pivot;

    residual.AddOuter(u, v, -1.0);
    f.us.push_back(std::move(u));
    f.vs.push_back(std::move(v));
  }
  return f;
}

}  // namespace fivm::linalg
