#include "src/linalg/chain_order.h"

#include <cassert>
#include <limits>

namespace fivm::linalg {

ChainOrder::ChainOrder(std::vector<uint64_t> dims)
    : n_(static_cast<int>(dims.size()) - 1), dims_(std::move(dims)) {
  assert(n_ >= 1);
  cost_.assign(static_cast<size_t>(n_ + 1) * (n_ + 1), 0);
  split_.assign(static_cast<size_t>(n_ + 1) * (n_ + 1), 0);
  for (int len = 2; len <= n_; ++len) {
    for (int i = 1; i + len - 1 <= n_; ++i) {
      int j = i + len - 1;
      uint64_t best = std::numeric_limits<uint64_t>::max();
      int best_k = i;
      for (int k = i; k < j; ++k) {
        uint64_t c = cost_[Index(i, k)] + cost_[Index(k + 1, j)] +
                     dims_[i - 1] * dims_[k] * dims_[j];
        if (c < best) {
          best = c;
          best_k = k;
        }
      }
      cost_[Index(i, j)] = best;
      split_[Index(i, j)] = best_k;
    }
  }
}

std::string ChainOrder::Render(int i, int j) const {
  if (i == j) return "A" + std::to_string(i);
  int k = split_[Index(i, j)];
  return "(" + Render(i, k) + " " + Render(k + 1, j) + ")";
}

std::string ChainOrder::Parenthesization() const { return Render(1, n_); }

}  // namespace fivm::linalg
