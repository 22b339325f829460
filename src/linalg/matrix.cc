#include "src/linalg/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fivm::linalg {

Matrix Matrix::Random(size_t rows, size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.UniformDouble(-1.0, 1.0);
  return m;
}

Matrix Matrix::RandomOfRank(size_t rows, size_t cols, size_t rank,
                            util::Rng& rng) {
  Matrix u = Random(rows, rank, rng);
  Matrix v = Random(rank, cols, rng);
  return Multiply(u, v);
}

void Matrix::Add(const Matrix& other, double scale) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Matrix::AddOuter(const Vector& u, const Vector& v, double scale) {
  assert(u.size() == rows_ && v.size() == cols_);
  for (size_t i = 0; i < rows_; ++i) {
    double ui = scale * u[i];
    double* r = row(i);
    for (size_t j = 0; j < cols_; ++j) r[j] += ui * v[j];
  }
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  constexpr size_t kBlock = 64;
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  // i-k-j loop order with blocking: streams over contiguous rows of B and C.
  for (size_t ii = 0; ii < n; ii += kBlock) {
    size_t iend = std::min(ii + kBlock, n);
    for (size_t kk = 0; kk < k; kk += kBlock) {
      size_t kend = std::min(kk + kBlock, k);
      for (size_t i = ii; i < iend; ++i) {
        double* crow = c.row(i);
        const double* arow = a.row(i);
        for (size_t p = kk; p < kend; ++p) {
          double av = arow[p];
          if (av == 0.0) continue;
          const double* brow = b.row(p);
          for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
  return c;
}

Vector MultiplyVec(const Matrix& a, const Vector& x) {
  assert(a.cols() == x.size());
  Vector y(a.rows(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* r = a.row(i);
    double sum = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) sum += r[j] * x[j];
    y[i] = sum;
  }
  return y;
}

Vector VecMultiply(const Vector& x, const Matrix& a) {
  assert(a.rows() == x.size());
  Vector y(a.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    double xi = x[i];
    if (xi == 0.0) continue;
    const double* r = a.row(i);
    for (size_t j = 0; j < a.cols(); ++j) y[j] += xi * r[j];
  }
  return y;
}

}  // namespace fivm::linalg
