#ifndef FIVM_WORKLOADS_HOUSING_H_
#define FIVM_WORKLOADS_HOUSING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/data/catalog.h"
#include "src/data/tuple.h"

namespace fivm::workloads {

/// Re-implementation of the Housing synthetic generator [42]: a star schema
/// of six relations (House, Shop, Institution, Restaurant, Demographics,
/// Transport; 27 attributes) all joining on the common `postcode`. The
/// scale factor grows House/Shop/Restaurant linearly per postcode, so the
/// listing representation of the natural join grows cubically while the
/// factorized representation grows linearly (Figure 8 right).
struct HousingConfig {
  uint64_t postcodes = 2000;
  int scale = 1;  // paper sweeps 1..20
  uint64_t seed = 7;
};

class HousingDataset {
 public:
  static std::unique_ptr<HousingDataset> Generate(const HousingConfig& cfg);

  HousingDataset(const HousingDataset&) = delete;
  HousingDataset& operator=(const HousingDataset&) = delete;

  Catalog catalog;
  std::unique_ptr<Query> query;
  VariableOrder vorder;

  int house = -1, shop = -1, institution = -1, restaurant = -1,
      demographics = -1, transport = -1;
  VarId postcode = 0;
  VarId price = 0, livingarea = 0, nbbedrooms = 0;  // regression targets

  std::vector<std::vector<Tuple>> tuples;

 private:
  HousingDataset() = default;
};

}  // namespace fivm::workloads

#endif  // FIVM_WORKLOADS_HOUSING_H_
