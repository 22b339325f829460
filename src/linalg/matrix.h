#ifndef FIVM_LINALG_MATRIX_H_
#define FIVM_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/util/rng.h"

namespace fivm::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles. This is the "Octave" substrate of the
/// paper's Figure 6: matrices in flat arrays with cache-blocked
/// multiplication, in contrast to the hash-map representation used by the
/// relational engines.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& at(size_t i, size_t j) { return data_[i * cols_ + j]; }
  double at(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  double* row(size_t i) { return data_.data() + i * cols_; }
  const double* row(size_t i) const { return data_.data() + i * cols_; }

  const std::vector<double>& data() const { return data_; }

  /// Fills with uniform values in (-1, 1) (the paper's dense matrices).
  static Matrix Random(size_t rows, size_t cols, util::Rng& rng);

  /// A matrix of the given rank: the product of random (rows x rank) and
  /// (rank x cols) factors.
  static Matrix RandomOfRank(size_t rows, size_t cols, size_t rank,
                             util::Rng& rng);

  void Add(const Matrix& other, double scale = 1.0);

  /// this += u * v^T.
  void AddOuter(const Vector& u, const Vector& v, double scale = 1.0);

  double FrobeniusNorm() const;

  size_t ApproxBytes() const { return data_.capacity() * sizeof(double); }

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// C = A * B with cache blocking (the O(n^3) kernel of RE-EVAL and 1-IVM).
Matrix Multiply(const Matrix& a, const Matrix& b);

/// y = A * x (O(n^2), the kernel of factorized updates).
Vector MultiplyVec(const Matrix& a, const Vector& x);

/// y^T = x^T * A, returned as a vector (O(n^2)).
Vector VecMultiply(const Vector& x, const Matrix& a);

}  // namespace fivm::linalg

#endif  // FIVM_LINALG_MATRIX_H_
