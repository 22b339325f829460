#include "src/data/catalog.h"

#include <cassert>

namespace fivm {

VarId Catalog::Intern(std::string_view name) {
  std::string key(name);
  if (const VarId* found = ids_.Find(key)) return *found;
  VarId id = static_cast<VarId>(names_.size());
  names_.push_back(key);
  ids_.Insert(std::move(key), id);
  return id;
}

VarId Catalog::Lookup(std::string_view name) const {
  std::string key(name);
  const VarId* found = ids_.Find(key);
  return found ? *found : kInvalidVar;
}

const std::string& Catalog::NameOf(VarId id) const {
  assert(id < names_.size());
  return names_[id];
}

}  // namespace fivm
