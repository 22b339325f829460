#ifndef FIVM_WORKLOADS_RETAILER_H_
#define FIVM_WORKLOADS_RETAILER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/data/catalog.h"
#include "src/data/tuple.h"

namespace fivm::workloads {

/// Synthetic stand-in for the paper's proprietary Retailer dataset: the
/// published snowflake schema (fact relation Inventory joining dimension
/// hierarchies Item, Weather, and Location with its lookup Census; 43
/// attributes total), Zipf-skewed foreign keys, and scaled row counts. The
/// paper's variable order is reproduced: locn - { dateid - { ksn }, zip },
/// with each relation's local attributes forming a chain below.
struct RetailerConfig {
  uint64_t inventory_rows = 100000;
  uint64_t locations = 30;
  uint64_t dates = 200;
  uint64_t products = 1000;
  double zipf_theta = 0.5;  // skew of Inventory foreign keys
  uint64_t seed = 1;
};

class RetailerDataset {
 public:
  static std::unique_ptr<RetailerDataset> Generate(const RetailerConfig& cfg);

  RetailerDataset(const RetailerDataset&) = delete;
  RetailerDataset& operator=(const RetailerDataset&) = delete;

  Catalog catalog;
  std::unique_ptr<Query> query;
  VariableOrder vorder;

  // Relation indices in the query/database.
  int inventory = -1, item = -1, weather = -1, location = -1, census = -1;
  // Join variables.
  VarId locn = 0, dateid = 0, ksn = 0, zip = 0;

  /// Generated tuples per relation (aligned with query relation indices).
  std::vector<std::vector<Tuple>> tuples;

 private:
  RetailerDataset() = default;
};

}  // namespace fivm::workloads

#endif  // FIVM_WORKLOADS_RETAILER_H_
