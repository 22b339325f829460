// Seeded input generators for the full-stack benchmark (perfbench/).
//
// Each workload is a query, a base database that set-up Initialize()s, and a
// stationary update stream: after the base load, the live database keeps its
// size, so the per-update cost does not drift with run length. Every input is a pure function of the
// seed; the program under test only ever sees the generated tuples.
//
// Tuples live in per-workload pools that never reallocate after generation,
// so stream entries and base rows refer to them by pointer.
#ifndef FIVM_PERFBENCH_WORKLOADS_H_
#define FIVM_PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/data/catalog.h"
#include "src/data/tuple.h"
#include "src/util/rng.h"
#include "src/workloads/housing.h"

namespace perfbench {

using fivm::Tuple;

/// One update of the stream: +1 inserts `key` into `relation`, -1 deletes it.
struct Update {
  const Tuple* key;
  int32_t relation;
  int32_t sign;
};

/// Generated inputs of one workload run.
struct Inputs {
  std::string name;
  /// Owns the catalog, query and variable order (a workloads:: dataset or a
  /// local fixture); `query`/`vorder` point into it.
  std::shared_ptr<void> owner;
  const fivm::Query* query = nullptr;
  const fivm::VariableOrder* vorder = nullptr;
  /// Relations the stream updates; the view tree materializes for them.
  std::vector<int> updatable;
  /// Tuple storage for base rows and stream keys (stable addresses).
  std::deque<Tuple> pool;
  std::vector<std::pair<int, const Tuple*>> base;
  std::vector<Update> stream;
  /// Read keys are drawn uniformly from [0, read_domain) as one-integer
  /// tuples; 0 means the root is scalar and every read probes the empty key.
  int64_t read_domain = 0;
};

// ---------------------------------------------------------------------------
// housing_cofactor: the Housing star join (6 relations, 27 attributes). The
// dataset is generated once; a random half of every relation is the base,
// and the stream repeatedly swaps one absent tuple in and one live tuple out
// of a relation chosen in proportion to its size.

inline constexpr uint64_t kHousingPostcodes = 4000;
inline constexpr int kHousingScale = 4;

/// Pairs of (insert absent, delete live) updates over per-relation tuple
/// lists, `updates` in total. `live[r][i]` says whether list r's tuple i is
/// in the base; the stream keeps each relation's live count constant.
inline void SwapChurn(const std::vector<std::vector<const Tuple*>>& tuples,
                      const std::vector<std::vector<char>>& live_init,
                      size_t updates, fivm::util::Rng& rng,
                      std::vector<Update>* out) {
  const size_t rels = tuples.size();
  std::vector<std::vector<uint32_t>> live(rels), absent(rels);
  std::vector<uint64_t> cumulative;
  uint64_t total = 0;
  for (size_t r = 0; r < rels; ++r) {
    for (uint32_t i = 0; i < tuples[r].size(); ++i) {
      (live_init[r][i] ? live[r] : absent[r]).push_back(i);
    }
    // Only relations with both a live and an absent tuple can churn.
    if (!live[r].empty() && !absent[r].empty()) total += tuples[r].size();
    cumulative.push_back(total);
  }
  out->reserve(out->size() + updates);
  while (out->size() < updates) {
    const uint64_t pick = rng.Uniform(total);
    const size_t r = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), pick) -
        cumulative.begin());
    const size_t ia = rng.Uniform(absent[r].size());
    const size_t il = rng.Uniform(live[r].size());
    const uint32_t in = absent[r][ia];
    const uint32_t gone = live[r][il];
    out->push_back(Update{tuples[r][in], static_cast<int32_t>(r), +1});
    if (out->size() < updates) {
      out->push_back(Update{tuples[r][gone], static_cast<int32_t>(r), -1});
    }
    absent[r][ia] = gone;
    live[r][il] = in;
  }
}

inline Inputs MakeHousing(uint64_t seed, size_t stream_updates) {
  fivm::workloads::HousingConfig cfg;
  cfg.postcodes = kHousingPostcodes;
  cfg.scale = kHousingScale;
  cfg.seed = seed;
  std::shared_ptr<fivm::workloads::HousingDataset> ds =
      fivm::workloads::HousingDataset::Generate(cfg);
  Inputs in;
  in.name = "housing_cofactor";
  in.query = ds->query.get();
  in.vorder = &ds->vorder;
  for (int r = 0; r < in.query->relation_count(); ++r) {
    in.updatable.push_back(r);
  }
  fivm::util::Rng rng(seed ^ 0x686f7573696e6721ULL);
  std::vector<std::vector<const Tuple*>> tuples(ds->tuples.size());
  std::vector<std::vector<char>> live(ds->tuples.size());
  for (size_t r = 0; r < ds->tuples.size(); ++r) {
    for (Tuple& t : ds->tuples[r]) {
      in.pool.push_back(std::move(t));
      tuples[r].push_back(&in.pool.back());
      const bool is_base = rng.Bernoulli(0.5);
      live[r].push_back(is_base ? 1 : 0);
      if (is_base) in.base.emplace_back(static_cast<int>(r), tuples[r].back());
    }
    ds->tuples[r].clear();
    ds->tuples[r].shrink_to_fit();
  }
  SwapChurn(tuples, live, stream_updates, rng, &in.stream);
  in.owner = std::move(ds);
  return in;
}

// ---------------------------------------------------------------------------
// keyed_churn: Q(A) = Σ_{B,C} R(A,B) ⋈ S(B,C) over a static S. About 500k
// base R rows over a 500k-value A domain give about 316k root keys; the
// stream swaps R tuples in and out of a 750k-tuple universe, so the live R
// size and the root key count stay flat.

inline constexpr int64_t kKeyedDomainA = 500000;
inline constexpr int64_t kKeyedDomainB = 2000;
inline constexpr int64_t kKeyedDomainC = 2000;
inline constexpr size_t kKeyedBaseR = 500000;
inline constexpr size_t kKeyedUniverseR = 750000;
inline constexpr size_t kKeyedRowsS = 16000;

struct KeyedFixture {
  fivm::Catalog catalog;
  fivm::Query query{&catalog};
  fivm::VariableOrder vorder;
};

inline Inputs MakeKeyedChurn(uint64_t seed, size_t stream_updates) {
  auto fx = std::make_shared<KeyedFixture>();
  const fivm::VarId a = fx->catalog.Intern("A");
  const fivm::VarId b = fx->catalog.Intern("B");
  const fivm::VarId c = fx->catalog.Intern("C");
  fx->query.AddRelation("R", fivm::Schema{a, b});
  fx->query.AddRelation("S", fivm::Schema{b, c});
  fx->query.SetFreeVars(fivm::Schema{a});
  fx->vorder = fivm::VariableOrder::Auto(fx->query);

  Inputs in;
  in.name = "keyed_churn";
  in.query = &fx->query;
  in.vorder = &fx->vorder;
  in.updatable = {0};
  in.read_domain = kKeyedDomainA;
  fivm::util::Rng rng(seed ^ 0x6b65796564ULL);
  std::vector<std::vector<const Tuple*>> tuples(1);
  std::vector<std::vector<char>> live(1);
  for (size_t i = 0; i < kKeyedUniverseR; ++i) {
    in.pool.push_back(Tuple::Ints({rng.UniformInt(0, kKeyedDomainA - 1),
                                   rng.UniformInt(0, kKeyedDomainB - 1)}));
    tuples[0].push_back(&in.pool.back());
    live[0].push_back(i < kKeyedBaseR ? 1 : 0);
    if (i < kKeyedBaseR) in.base.emplace_back(0, &in.pool.back());
  }
  for (size_t i = 0; i < kKeyedRowsS; ++i) {
    in.pool.push_back(Tuple::Ints({rng.UniformInt(0, kKeyedDomainB - 1),
                                   rng.UniformInt(0, kKeyedDomainC - 1)}));
    in.base.emplace_back(1, &in.pool.back());
  }
  SwapChurn(tuples, live, stream_updates, rng, &in.stream);
  in.owner = std::move(fx);
  return in;
}

/// Order-sensitive digest of a workload's base rows and stream.
inline uint64_t StreamDigest(const Inputs& in) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const auto& [rel, key] : in.base) {
    mix(static_cast<uint64_t>(rel));
    mix(key->Hash());
  }
  for (const Update& u : in.stream) {
    mix(static_cast<uint64_t>(u.relation));
    mix(u.key->Hash());
    mix(static_cast<uint64_t>(static_cast<int64_t>(u.sign)));
  }
  return h;
}

}  // namespace perfbench

#endif  // FIVM_PERFBENCH_WORKLOADS_H_
