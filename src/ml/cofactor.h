#ifndef FIVM_ML_COFACTOR_H_
#define FIVM_ML_COFACTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/query.h"
#include "src/data/relation.h"
#include "src/ml/linear_regression.h"
#include "src/rings/lifting.h"
#include "src/rings/regression_ring.h"
#include "src/rings/ring.h"
#include "src/rings/sparse_regression_ring.h"

namespace fivm::ml {

/// Lifting map for the cofactor query over *all* query variables under the
/// degree-m matrix ring: g_X(x) = (1, s_slot = x, Q_slot,slot = x^2).
/// `slots` maps VarId -> aggregate slot (ViewTree::AssignAggregateSlots).
inline LiftingMap<RegressionRing> RegressionLiftings(
    const Query& query, const std::vector<uint32_t>& slots) {
  LiftingMap<RegressionRing> lifts;
  for (VarId v : query.AllVars()) {
    lifts.Set(v, RegressionLifting(slots[v]));
  }
  return lifts;
}

/// Same under the SQL-OPT degree-indexed encoding.
inline LiftingMap<SparseRegressionRing> SparseRegressionLiftings(
    const Query& query, const std::vector<uint32_t>& slots) {
  LiftingMap<SparseRegressionRing> lifts;
  for (VarId v : query.AllVars()) {
    lifts.Set(v, SparseRegressionLifting(slots[v]));
  }
  return lifts;
}

/// One scalar aggregate (a SUM with per-variable degree liftings), for the
/// DBT and 1-IVM baselines that maintain the cofactor matrix as
/// quadratically many independent scalar SUMs.
struct ScalarAggregateSpec {
  LiftingMap<F64Ring> lifts;
  std::vector<uint8_t> signature;  // degree per VarId (0, 1, or 2)
};

/// Builds the m + m(m+1)/2 + 1 scalar aggregates of the cofactor matrix:
/// SUM(1), SUM(x_i) for each variable, and SUM(x_i * x_j) for each pair.
/// `max_vars` optionally truncates the variable set (the baselines time out
/// on the full set — exactly the paper's observation — so benchmarks can
/// scale the aggregate count).
inline std::vector<ScalarAggregateSpec> ScalarRegressionAggregates(
    const Query& query, size_t max_vars = SIZE_MAX) {
  std::vector<VarId> vars;
  for (VarId v : query.AllVars()) {
    if (vars.size() >= max_vars) break;
    vars.push_back(v);
  }
  size_t sig_len = query.catalog().size();

  auto degree1 = [](const Value& x) { return x.AsDouble(); };
  auto degree2 = [](const Value& x) {
    double d = x.AsDouble();
    return d * d;
  };

  std::vector<ScalarAggregateSpec> out;
  // SUM(1).
  out.push_back(ScalarAggregateSpec{{}, std::vector<uint8_t>(sig_len, 0)});
  // SUM(x_i).
  for (VarId v : vars) {
    ScalarAggregateSpec spec;
    spec.signature.assign(sig_len, 0);
    spec.signature[v] = 1;
    spec.lifts.Set(v, degree1);
    out.push_back(std::move(spec));
  }
  // SUM(x_i * x_j), i <= j.
  for (size_t i = 0; i < vars.size(); ++i) {
    for (size_t j = i; j < vars.size(); ++j) {
      ScalarAggregateSpec spec;
      spec.signature.assign(sig_len, 0);
      if (i == j) {
        spec.signature[vars[i]] = 2;
        spec.lifts.Set(vars[i], degree2);
      } else {
        spec.signature[vars[i]] = 1;
        spec.signature[vars[j]] = 1;
        spec.lifts.Set(vars[i], degree1);
        spec.lifts.Set(vars[j], degree1);
      }
      out.push_back(std::move(spec));
    }
  }
  return out;
}

}  // namespace fivm::ml

#endif  // FIVM_ML_COFACTOR_H_
