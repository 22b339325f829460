// Equivalence of the batch execution subsystem with sequential per-tuple
// maintenance: randomized update streams (inserts, deletes, duplicate keys)
// applied through DeltaBatcher + ParallelExecutor at several batch sizes and
// thread counts must leave every materialized store content-equal to a
// reference engine fed one ApplyDelta per tuple. These tests are also the
// workload of the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/query.h"
#include "src/core/variable_order.h"
#include "src/core/view_tree.h"
#include "src/data/relation_ops.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/parallel_executor.h"
#include "src/exec/thread_pool.h"
#include "src/ml/cofactor.h"
#include "src/obs/metrics.h"
#include "src/rings/regression_ring.h"
#include "src/rings/ring.h"
#include "src/util/fail_point.h"
#include "src/util/rng.h"
#include "src/workloads/housing.h"
#include "src/workloads/twitter.h"

namespace fivm::exec {
namespace {

struct Update {
  int relation;
  Tuple key;
  int64_t multiplicity;  // +1 insert, -1 delete
};

/// A randomized stream over `query`'s relations: mostly inserts with
/// repeated keys (small key domain), plus deletes of previously inserted
/// tuples so zero-crossing tombstones occur on every path.
std::vector<Update> RandomStream(const Query& query, size_t n,
                                 int64_t key_domain, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Update> stream;
  stream.reserve(n);
  std::vector<std::vector<Tuple>> inserted(query.relation_count());
  for (size_t i = 0; i < n; ++i) {
    int r = static_cast<int>(rng.UniformInt(0, query.relation_count() - 1));
    bool can_delete = !inserted[r].empty();
    if (can_delete && rng.Bernoulli(0.25)) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(inserted[r].size()) - 1));
      stream.push_back(Update{r, inserted[r][pick], -1});
      inserted[r][pick] = inserted[r].back();
      inserted[r].pop_back();
      continue;
    }
    Tuple t;
    for (size_t c = 0; c < query.relation(r).schema.size(); ++c) {
      t.Append(Value::Int(rng.UniformInt(0, key_domain)));
    }
    inserted[r].push_back(t);
    stream.push_back(Update{r, std::move(t), 1});
  }
  return stream;
}

/// Applies `stream` per tuple to `reference` and through a DeltaBatcher +
/// ParallelExecutor (batch `batch_size`, `threads` threads) to `batched`,
/// then asserts store equality.
template <typename Ring>
void CheckEquivalence(IvmEngine<Ring>& reference, IvmEngine<Ring>& batched,
                      const Query& query, const std::vector<Update>& stream,
                      size_t batch_size, size_t threads) {
  for (const Update& u : stream) {
    Relation<Ring> delta(query.relation(u.relation).schema);
    delta.Add(u.key, u.multiplicity > 0 ? Ring::One()
                                        : Ring::Neg(Ring::One()));
    reference.ApplyDelta(u.relation, std::move(delta));
  }

  ThreadPool pool(threads);
  // Pin the shard count so multi-shard execution is exercised regardless
  // of the machine's core count.
  ParallelExecutor<Ring> exec(&batched, &pool,
                              {.shards = threads});
  DeltaBatcher<Ring> batcher(&batched.plans(), batch_size);
  for (const Update& u : stream) {
    if (u.multiplicity > 0) {
      batcher.PushInsert(u.relation, u.key);
    } else {
      batcher.PushDelete(u.relation, u.key);
    }
    if (batcher.Full()) exec.Drain(batcher);
  }
  exec.Drain(batcher);

  EXPECT_TRUE(StoresContentEqual(reference, batched))
      << "batch_size=" << batch_size << " threads=" << threads;
}

// The paper's non-trivial 3-relation query R(A,B), S(A,C,E), T(C,D) under
// the A-(B, C-(D,E)) order: propagation paths with sibling joins at two
// levels. Exact I64 counting ring, so equality is bitwise.
class AcyclicFixture {
 public:
  AcyclicFixture() {
    A = catalog.Intern("A");
    B = catalog.Intern("B");
    C = catalog.Intern("C");
    D = catalog.Intern("D");
    E = catalog.Intern("E");
    query.AddRelation("R", Schema{A, B});
    query.AddRelation("S", Schema{A, C, E});
    query.AddRelation("T", Schema{C, D});
    int a = vo.AddNode(A, -1);
    vo.AddNode(B, a);
    int c = vo.AddNode(C, a);
    vo.AddNode(D, c);
    vo.AddNode(E, c);
    std::string error;
    bool ok = vo.Finalize(query, &error);
    assert(ok);
    (void)ok;
  }

  Catalog catalog;
  Query query{&catalog};
  VarId A, B, C, D, E;
  VariableOrder vo;
};

TEST(ExecParallelTest, AcyclicCountEquivalenceAcrossBatchAndThreadSweep) {
  AcyclicFixture f;
  ViewTree tree(&f.query, &f.vo);
  tree.MaterializeAll();
  auto stream = RandomStream(f.query, 4000, 12, /*seed=*/17);

  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}, size_t{512}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      IvmEngine<I64Ring> reference(&tree, {});
      IvmEngine<I64Ring> batched(&tree, {});
      Database<I64Ring> empty = MakeDatabase<I64Ring>(f.query);
      reference.Initialize(empty);
      batched.Initialize(empty);
      CheckEquivalence(reference, batched, f.query, stream, batch_size,
                       threads);
    }
  }
}

TEST(ExecParallelTest, TriangleRegressionRingEquivalence) {
  // Cyclic triangle query with the degree-3 regression ring — the fig13
  // configuration. Integer-valued keys keep every aggregate exactly
  // representable, so parallel and sequential stores match bitwise.
  workloads::TwitterConfig cfg;
  cfg.nodes = 60;
  cfg.edges = 600;
  auto ds = workloads::TwitterDataset::Generate(cfg);
  Query& query = *ds->query;
  auto stream = RandomStream(query, 3000, 40, /*seed=*/23);

  for (size_t batch_size : {size_t{1}, size_t{100}, size_t{1000}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ViewTree tree(&query, &ds->vorder);
      tree.ComputeMaterialization({0, 1, 2});
      auto slots = tree.AssignAggregateSlots();
      IvmEngine<RegressionRing> reference(
          &tree, ml::RegressionLiftings(query, slots));
      IvmEngine<RegressionRing> batched(
          &tree, ml::RegressionLiftings(query, slots));
      Database<RegressionRing> empty = MakeDatabase<RegressionRing>(query);
      reference.Initialize(empty);
      batched.Initialize(empty);
      CheckEquivalence(reference, batched, query, stream, batch_size,
                       threads);
    }
  }
}

TEST(ExecParallelTest, HousingStarFusedJoinEquivalence) {
  // The fig7 housing star: every route joins its delta with the five
  // sibling views in one fused multi-way step. Two shards run that step
  // concurrently over key-disjoint halves of each batch; integer-valued
  // keys keep the 27-attribute aggregates exact, so the merged stores must
  // equal sequential per-tuple application bit for bit.
  workloads::HousingConfig cfg;
  cfg.postcodes = 40;
  auto ds = workloads::HousingDataset::Generate(cfg);
  Query& query = *ds->query;
  auto stream = RandomStream(query, 3000, 20, /*seed=*/37);

  // Batches wide enough that each relation's share takes the parallel path
  // (>= kMinParallelKeys coalesced keys).
  for (size_t batch_size : {size_t{600}, size_t{3000}}) {
    ViewTree tree(&query, &ds->vorder);
    tree.ComputeMaterialization({0, 1, 2, 3, 4, 5});
    auto slots = tree.AssignAggregateSlots();
    IvmEngine<RegressionRing> reference(&tree,
                                        ml::RegressionLiftings(query, slots));
    IvmEngine<RegressionRing> batched(&tree,
                                      ml::RegressionLiftings(query, slots));
    for (const plan::PropagationStep& s :
         batched.plans().ForRelation(0).steps()) {
      if (s.kind != plan::PropagationStep::Kind::kJoin) continue;
      ASSERT_EQ(s.links.size(), 5u) << batched.plans().DebugString();
    }
    Database<RegressionRing> empty = MakeDatabase<RegressionRing>(query);
    reference.Initialize(empty);
    batched.Initialize(empty);
    const obs::Counter* parallel =
        obs::MetricRegistry::Default().GetCounter("exec.parallel_batches");
    const uint64_t parallel0 = parallel->Value();
    CheckEquivalence(reference, batched, query, stream, batch_size,
                     /*threads=*/2);
    EXPECT_GT(parallel->Value(), parallel0) << "no batch ran sharded";
  }
}

TEST(ExecParallelTest, IndicatorTreesFallBackToSequential) {
  // With indicator projections, updates fire stateful support-count
  // maintenance; the executor must take the sequential path and still match
  // the reference.
  workloads::TwitterConfig cfg;
  cfg.nodes = 40;
  cfg.edges = 300;
  auto ds = workloads::TwitterDataset::Generate(cfg);
  Query& query = *ds->query;
  auto stream = RandomStream(query, 1500, 25, /*seed=*/5);

  ViewTree ref_tree(&query, &ds->vorder);
  ref_tree.AddIndicatorProjections();
  ref_tree.ComputeMaterialization({0, 1, 2});
  ViewTree par_tree(&query, &ds->vorder);
  par_tree.AddIndicatorProjections();
  par_tree.ComputeMaterialization({0, 1, 2});

  auto ref_slots = ref_tree.AssignAggregateSlots();
  IvmEngine<RegressionRing> reference(
      &ref_tree, ml::RegressionLiftings(query, ref_slots));
  auto par_slots = par_tree.AssignAggregateSlots();
  IvmEngine<RegressionRing> batched(
      &par_tree, ml::RegressionLiftings(query, par_slots));
  Database<RegressionRing> empty = MakeDatabase<RegressionRing>(query);
  reference.Initialize(empty);
  batched.Initialize(empty);

  for (const Update& u : stream) {
    Relation<RegressionRing> delta(query.relation(u.relation).schema);
    delta.Add(u.key, u.multiplicity > 0
                         ? RegressionRing::One()
                         : RegressionRing::Neg(RegressionRing::One()));
    reference.ApplyDelta(u.relation, std::move(delta));
  }

  ThreadPool pool(4);
  ParallelExecutor<RegressionRing> exec(&batched, &pool, {.shards = 4});
  DeltaBatcher<RegressionRing> batcher(&batched.plans(), 200);
  for (const Update& u : stream) {
    if (u.multiplicity > 0) {
      batcher.PushInsert(u.relation, u.key);
    } else {
      batcher.PushDelete(u.relation, u.key);
    }
    if (batcher.Full()) exec.Drain(batcher);
  }
  exec.Drain(batcher);

  // Store sets differ per tree instance but the trees are isomorphic;
  // compare the query results and per-node stores via the shared layout.
  EXPECT_TRUE(ContentEquals(reference.result(), batched.result()));
  for (size_t i = 0; i < ref_tree.nodes().size(); ++i) {
    int node = static_cast<int>(i);
    if (!ref_tree.node(node).materialized) continue;
    ASSERT_TRUE(par_tree.node(node).materialized);
    EXPECT_TRUE(ContentEquals(reference.store(node), batched.store(node)))
        << "store " << node;
  }
}

TEST(ExecParallelTest, DisconnectedQueryCartesianJoinEquivalence) {
  // Q = R(A,B) ⊗ S(C,D) with disjoint variables: the virtual root joins
  // the components as a Cartesian product, so the first sibling join of
  // every propagation path has an empty key and PropagationJoinKey must
  // fall back to the leaf's own schema (and never emit positions outside
  // it).
  Catalog catalog;
  Query query(&catalog);
  VarId A = catalog.Intern("A"), B = catalog.Intern("B");
  VarId C = catalog.Intern("C"), D = catalog.Intern("D");
  query.AddRelation("R", Schema{A, B});
  query.AddRelation("S", Schema{C, D});
  VariableOrder vo;
  int a = vo.AddNode(A, -1);
  vo.AddNode(B, a);
  int c = vo.AddNode(C, -1);
  vo.AddNode(D, c);
  std::string error;
  ASSERT_TRUE(vo.Finalize(query, &error)) << error;

  ViewTree tree(&query, &vo);
  tree.MaterializeAll();
  IvmEngine<I64Ring> probe(&tree, {});
  for (int r = 0; r < query.relation_count(); ++r) {
    Schema key = probe.PropagationJoinKey(r);
    EXPECT_TRUE(
        tree.node(tree.LeafOfRelation(r)).out_schema.ContainsAll(key));
  }

  auto stream = RandomStream(query, 2000, 8, /*seed=*/41);
  IvmEngine<I64Ring> reference(&tree, {});
  IvmEngine<I64Ring> batched(&tree, {});
  Database<I64Ring> empty = MakeDatabase<I64Ring>(query);
  reference.Initialize(empty);
  batched.Initialize(empty);
  CheckEquivalence(reference, batched, query, stream, /*batch_size=*/256,
                   /*threads=*/4);
}

TEST(ExecParallelTest, PropagationJoinKeyAndPrewarmCoverTrianglePath) {
  workloads::TwitterConfig cfg;
  cfg.nodes = 30;
  cfg.edges = 200;
  auto ds = workloads::TwitterDataset::Generate(cfg);
  Query& query = *ds->query;
  ViewTree tree(&query, &ds->vorder);
  tree.ComputeMaterialization({0, 1, 2});
  auto slots = tree.AssignAggregateSlots();
  IvmEngine<RegressionRing> engine(&tree,
                                   ml::RegressionLiftings(query, slots));
  Database<RegressionRing> db = MakeDatabase<RegressionRing>(query);
  for (int r = 0; r < query.relation_count(); ++r) {
    for (const Tuple& t : ds->tuples[r]) {
      db[r].Add(t, RegressionRing::One());
    }
  }
  engine.Initialize(db);

  for (int r = 0; r < query.relation_count(); ++r) {
    Schema key = engine.PropagationJoinKey(r);
    EXPECT_FALSE(key.empty());
    // The partition key must be computable from the leaf's out-schema.
    const Schema& leaf =
        tree.node(tree.LeafOfRelation(r)).out_schema;
    EXPECT_TRUE(leaf.ContainsAll(key));
    engine.PrewarmPropagationIndexes(r);
  }
}

TEST(ExecParallelTest, ShardTaskExceptionLeavesStoresUntouched) {
  // Exception propagation mid-batch: one worker task of a parallel
  // ApplyBatch throws (injected at the "exec.task" boundary). ThreadPool
  // rethrows only after the round's barrier, and every store delta — the
  // leaf's included — is staged until all tasks succeed, so the batch must
  // be all-or-nothing: engine stores bit-identical to before the failed
  // apply, and a retry of the same batch must land exactly the sequential
  // result (no partial merge, no double apply).
  AcyclicFixture f;
  ViewTree tree(&f.query, &f.vo);
  tree.MaterializeAll();
  IvmEngine<I64Ring> reference(&tree, {});
  IvmEngine<I64Ring> engine(&tree, {});
  Database<I64Ring> empty = MakeDatabase<I64Ring>(f.query);
  reference.Initialize(empty);
  engine.Initialize(empty);

  // Base fill through both engines (no faults armed).
  auto base = RandomStream(f.query, 1000, 12, /*seed=*/91);
  ThreadPool pool(4);
  ParallelExecutor<I64Ring> exec(&engine, &pool, {.shards = 4});
  DeltaBatcher<I64Ring> batcher(&engine.plans(), 256);
  for (const Update& u : base) {
    Relation<I64Ring> delta(f.query.relation(u.relation).schema);
    delta.Add(u.key,
              u.multiplicity > 0 ? I64Ring::One() : I64Ring::Neg(I64Ring::One()));
    reference.ApplyDelta(u.relation, delta);
    batcher.Push(u.relation, u.key, u.multiplicity);
    if (batcher.Full()) exec.Drain(batcher);
  }
  exec.Drain(batcher);
  ASSERT_TRUE(StoresContentEqual(reference, engine));

  // A batch wide enough for the parallel path (>= kMinParallelKeys
  // distinct keys across all 4 shards).
  Relation<I64Ring> batch(f.query.relation(0).schema);
  for (int64_t i = 0; i < 200; ++i) {
    Tuple t;
    t.Append(Value::Int(i % 15));
    t.Append(Value::Int(i));
    batch.Add(t, 1);
  }
  ASSERT_GE(batch.size(), ParallelExecutor<I64Ring>::kMinParallelKeys);

  // Pre-fault snapshot of every materialized store.
  std::vector<std::pair<int, Relation<I64Ring>>> before;
  for (size_t i = 0; i < tree.nodes().size(); ++i) {
    int node = static_cast<int>(i);
    if (!tree.node(node).materialized) continue;
    before.emplace_back(node, Relation<I64Ring>(engine.store(node)));
  }

  auto& fp = util::FailPointRegistry::Default();
  fp.ArmNth("exec.task", 1);  // first worker task of the next batch throws
  EXPECT_THROW(exec.ApplyBatch(0, Relation<I64Ring>(batch)),
               util::InjectedFault);
  fp.DisarmAll();
  EXPECT_EQ(fp.Stats("exec.task").fires, 1u);

  for (const auto& [node, rel] : before) {
    EXPECT_TRUE(ContentEquals(engine.store(node), rel))
        << "store " << node << " modified by a failed batch";
  }

  // Retrying the batch applies it exactly once, matching sequential.
  exec.ApplyBatch(0, Relation<I64Ring>(batch));
  reference.ApplyDelta(0, batch);
  EXPECT_TRUE(StoresContentEqual(reference, engine));
}

}  // namespace
}  // namespace fivm::exec
