#ifndef FIVM_LINALG_CHAIN_ORDER_H_
#define FIVM_LINALG_CHAIN_ORDER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fivm::linalg {

/// Textbook matrix chain multiplication DP (Section 6.1: "the optimal
/// variable order corresponds to the optimal sequence of matrix
/// multiplications"). Given dimensions p_0..p_n for matrices A_i of size
/// p_{i-1} x p_i, computes the minimal scalar multiplication count and the
/// optimal split points.
class ChainOrder {
 public:
  explicit ChainOrder(std::vector<uint64_t> dims);

  /// Minimal multiplication cost of computing A_1 ... A_n.
  uint64_t OptimalCost() const { return cost_[Index(1, n_)]; }

  /// Parenthesized rendering, e.g. "((A1 A2) A3)".
  std::string Parenthesization() const;

 private:
  size_t Index(int i, int j) const {
    return static_cast<size_t>(i) * (n_ + 1) + j;
  }
  std::string Render(int i, int j) const;

  int n_;
  std::vector<uint64_t> dims_;
  std::vector<uint64_t> cost_;
  std::vector<int> split_;
};

}  // namespace fivm::linalg

#endif  // FIVM_LINALG_CHAIN_ORDER_H_
