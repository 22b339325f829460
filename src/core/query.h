#ifndef FIVM_CORE_QUERY_H_
#define FIVM_CORE_QUERY_H_

#include <string>
#include <vector>

#include "src/data/catalog.h"
#include "src/data/relation.h"
#include "src/data/schema.h"

namespace fivm {

/// A natural-join query with group-by (free) variables and a SUM aggregate
/// over a ring (Section 2):
///
///   Q[X_1..X_f] = ⊕_{X_{f+1}} ... ⊕_{X_m}  R_1[S_1] ⊗ ... ⊗ R_n[S_n]
///
/// The ring, the payloads, and the lifting functions are supplied separately
/// (LiftingMap / Database<Ring>); the Query only fixes the key-space shape,
/// which is shared by all tasks.
class Query {
 public:
  struct RelationDef {
    std::string name;
    Schema schema;
  };

  explicit Query(Catalog* catalog) : catalog_(catalog) {}

  /// Registers a relation; returns its index (position in the database).
  int AddRelation(std::string name, Schema schema);

  void SetFreeVars(Schema free_vars) { free_vars_ = std::move(free_vars); }

  const Catalog& catalog() const { return *catalog_; }
  const std::vector<RelationDef>& relations() const { return relations_; }
  const RelationDef& relation(int i) const { return relations_[i]; }
  int relation_count() const { return static_cast<int>(relations_.size()); }
  const Schema& free_vars() const { return free_vars_; }

  /// All variables mentioned by any relation, in first-occurrence order.
  Schema AllVars() const;

  /// Bound variables: AllVars minus free.
  Schema BoundVars() const { return AllVars().Minus(free_vars_); }

 private:
  Catalog* catalog_;
  std::vector<RelationDef> relations_;
  Schema free_vars_;
};

/// The database instance for a query: one keyed relation per Query relation,
/// by index, all over the same ring.
template <typename Ring>
using Database = std::vector<Relation<Ring>>;

/// Creates an empty database matching the query's relation schemas.
template <typename Ring>
Database<Ring> MakeDatabase(const Query& q) {
  Database<Ring> db;
  db.reserve(q.relations().size());
  for (const auto& rel : q.relations()) db.emplace_back(rel.schema);
  return db;
}

}  // namespace fivm

#endif  // FIVM_CORE_QUERY_H_
