#include "src/core/query.h"

namespace fivm {

int Query::AddRelation(std::string name, Schema schema) {
  relations_.push_back(RelationDef{std::move(name), std::move(schema)});
  return static_cast<int>(relations_.size()) - 1;
}

Schema Query::AllVars() const {
  Schema all;
  for (const auto& rel : relations_) {
    for (VarId v : rel.schema) all.Add(v);
  }
  return all;
}

std::vector<int> Query::RelationsWithVar(VarId v) const {
  std::vector<int> out;
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].schema.Contains(v)) out.push_back(static_cast<int>(i));
  }
  return out;
}

}  // namespace fivm
