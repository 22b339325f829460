#ifndef FIVM_DATA_CATALOG_H_
#define FIVM_DATA_CATALOG_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/data/schema.h"
#include "src/util/flat_hash_map.h"
#include "src/util/hash.h"

namespace fivm {

/// Maps human-readable variable (attribute) names to dense VarIds and back.
/// One catalog per query workload; shared by the query, the variable order,
/// and the view tree.
class Catalog {
 public:
  /// Returns the id for `name`, creating it if unseen.
  VarId Intern(std::string_view name);

  /// Returns the id for `name`, or kInvalidVar if it was never interned.
  VarId Lookup(std::string_view name) const;

  const std::string& NameOf(VarId id) const;

  size_t size() const { return names_.size(); }

 private:
  struct StringHash {
    uint64_t operator()(const std::string& s) const {
      return util::HashString(s);
    }
  };

  std::vector<std::string> names_;
  util::FlatHashMap<std::string, VarId, StringHash> ids_;
};

}  // namespace fivm

#endif  // FIVM_DATA_CATALOG_H_
