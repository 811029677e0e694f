// Tests for the vectorized columnar backend (plan::lower_columnar +
// dataflow/vectorized.hpp) and the skew-salted dist lowering: kernel-level
// unit tests against scalar references, key_upper_bounds propagation, a
// generated-plan differential sweep proving the columnar backend
// bit-identical to the row engine for raw / rule-optimized / cost-optimized
// plans, BigBench star queries across all orders, and a full simulated-
// cluster run of a skew-annotated join matching the shared-memory result.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "chaos/plan_gen.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dataflow/context.hpp"
#include "dataflow/vectorized.hpp"
#include "dist/runtime.hpp"
#include "exec/thread_pool.hpp"
#include "plan/bigbench.hpp"
#include "plan/cost.hpp"
#include "plan/lower.hpp"
#include "plan/optimizer.hpp"
#include "plan/plan.hpp"

namespace hpbdc::plan {
namespace {

namespace col = dataflow::columnar;

Executor& pool() {
  static ThreadPool p(4);
  return p;
}

/// Single-thread Executor: tasks queue on submit and run on the thread
/// that waits for them.
class InlineExecutor final : public Executor {
 public:
  void submit(std::function<void()> fn) override { queue_.push_back(std::move(fn)); }
  bool try_run_one() override {
    if (queue_.empty()) return false;
    std::function<void()> fn = std::move(queue_.front());
    queue_.pop_front();
    fn();
    return true;
  }
  std::size_t num_threads() const noexcept override { return 1; }

 private:
  std::deque<std::function<void()>> queue_;
};

Bytes local_bytes(const LogicalPlan& p) {
  dataflow::Context ctx(pool());
  return canonical_bytes(lower_local(p, ctx));
}

Bytes columnar_bytes(const LogicalPlan& p) {
  return canonical_bytes(lower_columnar(p, pool()));
}

PlanNode node(OpKind op, std::size_t left = PlanNode::kNoParent,
              std::size_t right = PlanNode::kNoParent) {
  PlanNode nd;
  nd.op = op;
  nd.left = left;
  nd.right = right;
  nd.salt = 0x5eedULL * (left + 3) + static_cast<std::uint64_t>(op);
  return nd;
}

LogicalPlan chain(std::vector<PlanNode> nodes, std::vector<std::size_t> sinks) {
  LogicalPlan p;
  p.seed = 1;
  p.rows_per_source = 64;
  for (PlanNode& nd : nodes) {
    if (nd.op == OpKind::kSource) nd.rows = 64;
  }
  p.nodes = std::move(nodes);
  p.sinks = std::move(sinks);
  return p;
}

col::RowBlock random_block(std::uint64_t seed, std::size_t n,
                           std::uint64_t key_domain) {
  Rng rng(seed);
  col::RowBlock b;
  b.reserve(n);
  for (std::size_t i = 0; i < n; ++i) b.push(rng.next_below(key_domain), rng());
  return b;
}

// ---- kernel unit tests -----------------------------------------------------------

TEST(VectorizedKernels, RowBlockRoundTripAndAppendPreserveOrder) {
  const auto rows = source_rows(0xabc, 257);
  const col::RowBlock b = col::from_rows(rows);
  EXPECT_EQ(col::to_rows(b), rows);
  col::RowBlock two;
  col::append(two, b);
  col::append(two, b);
  auto doubled = rows;
  doubled.insert(doubled.end(), rows.begin(), rows.end());
  EXPECT_EQ(col::to_rows(two), doubled);
}

TEST(VectorizedKernels, FilterBlockMatchesSequentialFilterOrder) {
  // Sizes straddle several grain boundaries so the chunked compaction's
  // left-pack actually moves surviving ranges.
  for (const std::size_t n : {0ul, 1ul, 7ul, 1000ul, 4096ul, 10001ul}) {
    col::RowBlock b = random_block(n + 1, n, 1 << 20);
    const auto rows = col::to_rows(b);
    col::filter_block(pool(), b,
                      [](std::uint64_t k, std::uint64_t v) { return (k ^ v) % 3 == 0; });
    std::vector<Row> want;
    for (const Row& r : rows) {
      if ((r.first ^ r.second) % 3 == 0) want.push_back(r);
    }
    EXPECT_EQ(col::to_rows(b), want) << "n=" << n;
  }
}

TEST(VectorizedKernels, DenseAndSortedReduceMatchScalarReference) {
  const std::uint64_t bound = 256;
  const col::RowBlock b = random_block(42, 20000, bound);
  std::map<std::uint64_t, std::uint64_t> want;
  for (std::size_t i = 0; i < b.size(); ++i) {
    auto [it, fresh] = want.try_emplace(b.key[i], b.val[i]);
    if (!fresh) it->second += b.val[i];
  }
  auto plus = [](std::uint64_t a, std::uint64_t c) { return a + c; };
  for (const col::RowBlock& got : {col::dense_reduce_by_key(pool(), b, bound, plus),
                                   col::sorted_reduce_by_key(pool(), b, plus)}) {
    ASSERT_EQ(got.size(), want.size());
    std::size_t i = 0;
    for (const auto& [k, v] : want) {
      EXPECT_EQ(got.key[i], k);  // both kernels emit ascending keys
      EXPECT_EQ(got.val[i], v);
      ++i;
    }
  }
}

TEST(VectorizedKernels, DenseReduceHandlesEmptyAndSingleKeyBlocks) {
  auto plus = [](std::uint64_t a, std::uint64_t c) { return a + c; };
  const col::RowBlock empty;
  EXPECT_EQ(col::dense_reduce_by_key(pool(), empty, 16, plus).size(), 0u);
  col::RowBlock one;
  for (int i = 0; i < 5000; ++i) one.push(3, 1);
  const auto got = col::dense_reduce_by_key(pool(), one, 16, plus);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.key[0], 3u);
  EXPECT_EQ(got.val[0], 5000u);
}

std::vector<Row> nested_loop_join(const col::RowBlock& build,
                                  const col::RowBlock& probe) {
  std::vector<Row> out;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    for (std::size_t j = 0; j < build.size(); ++j) {
      if (build.key[j] == probe.key[i]) {
        out.push_back(join_rows(probe.key[i], build.val[j], probe.val[i]));
      }
    }
  }
  return out;
}

TEST(VectorizedKernels, RadixJoinMatchesNestedLoopReference) {
  // Duplicate keys on both sides so chains longer than one are probed.
  const col::RowBlock build = random_block(7, 1500, 400);
  const col::RowBlock probe = random_block(8, 2500, 400);
  const Bytes want = canonical_bytes(nested_loop_join(build, probe));
  // Key-indexed (the domain bound) and hashed (no bound) tables.
  for (const std::uint64_t dense_bound : {std::uint64_t{400}, std::uint64_t{0}}) {
    const auto got = col::hash_join(pool(), build, probe, dense_bound, join_rows);
    EXPECT_GT(got.size(), 0u);
    EXPECT_EQ(canonical_bytes(col::to_rows(got)), want) << "dense_bound " << dense_bound;
  }
}

TEST(VectorizedKernels, RadixJoinSkewFanoutSplitsWithoutChangingResult) {
  // ~60% of probe rows share one hot key: row chunks of the probe block
  // stay even however skewed its keys are.
  col::RowBlock build = random_block(9, 300, 64);
  build.push(7, 0xb0b);
  col::RowBlock probe;
  Rng rng(10);
  for (std::size_t i = 0; i < 5000; ++i) {
    probe.push(rng.next_below(10) < 6 ? 7 : rng.next_below(64), rng());
  }
  for (const std::uint64_t dense_bound : {std::uint64_t{64}, std::uint64_t{0}}) {
    const auto got = col::hash_join(pool(), build, probe, dense_bound, join_rows);
    EXPECT_EQ(canonical_bytes(col::to_rows(got)),
              canonical_bytes(nested_loop_join(build, probe)))
        << "dense_bound " << dense_bound;
  }
}

TEST(VectorizedKernels, KeyIndexedJoinSkipsKeysAtOrAboveTheBound) {
  // A join's bound is the tighter parent's: the narrow side's keys are all
  // below it, the wide side's mostly not. Each orientation puts the
  // out-of-bound keys on one side of the table, build or probe.
  const std::uint64_t bound = 256;
  const col::RowBlock narrow = random_block(11, 3000, bound);
  const col::RowBlock wide = random_block(12, 3000, std::uint64_t{1} << 20);
  col::RowBlock wide_hits = wide;  // plus rows that do match
  for (std::size_t i = 0; i < 500; ++i) wide_hits.push(i % bound, i);
  for (const bool build_narrow : {true, false}) {
    const col::RowBlock& build = build_narrow ? narrow : wide_hits;
    const col::RowBlock& probe = build_narrow ? wide_hits : narrow;
    const auto got = col::hash_join(pool(), build, probe, bound, join_rows);
    EXPECT_EQ(col::to_rows(got), nested_loop_join(build, probe))
        << "build_narrow " << build_narrow;
  }
}

TEST(VectorizedKernels, HashedJoinComparesKeysOverAWideDomain) {
  // 200 keys drawn from 2^40, repeated on both sides: distinct keys share
  // head slots, so only the key compare keeps them apart.
  Rng rng(13);
  std::vector<std::uint64_t> keys(200);
  for (std::uint64_t& k : keys) k = rng.next_below(std::uint64_t{1} << 40);
  col::RowBlock build, probe;
  for (std::size_t i = 0; i < 1000; ++i) build.push(keys[rng.next_below(150)], rng());
  for (std::size_t i = 0; i < 3000; ++i) probe.push(keys[50 + rng.next_below(150)], rng());
  const auto got = col::hash_join(pool(), build, probe, 0, join_rows);
  EXPECT_GT(got.size(), 0u);
  EXPECT_EQ(col::to_rows(got), nested_loop_join(build, probe));
}

TEST(VectorizedKernels, HashJoinOfAnEmptySideIsEmpty) {
  const col::RowBlock rows = random_block(14, 100, 16);
  const col::RowBlock empty;
  for (const std::uint64_t dense_bound : {std::uint64_t{16}, std::uint64_t{0}}) {
    EXPECT_TRUE(col::hash_join(pool(), empty, rows, dense_bound, join_rows).empty());
    EXPECT_TRUE(col::hash_join(pool(), rows, empty, dense_bound, join_rows).empty());
    EXPECT_TRUE(col::hash_join(pool(), empty, empty, dense_bound, join_rows).empty());
  }
}

TEST(VectorizedKernels, HashJoinRowSequenceIndependentOfThreadCount) {
  // Probe order, then build order within one probe row: the nested loop's
  // exact sequence, on one inline thread and on four pool threads alike.
  const col::RowBlock build = random_block(15, 2000, 512);
  const col::RowBlock probe = random_block(16, 20000, 512);
  const std::vector<Row> want = nested_loop_join(build, probe);
  InlineExecutor inline_ex;
  for (const std::uint64_t dense_bound : {std::uint64_t{512}, std::uint64_t{0}}) {
    for (Executor* ex : {static_cast<Executor*>(&inline_ex), &pool()}) {
      const auto got = col::hash_join(*ex, build, probe, dense_bound, join_rows);
      EXPECT_EQ(col::to_rows(got), want)
          << "dense_bound " << dense_bound << ", threads " << ex->num_threads();
    }
  }
}

// ---- key_upper_bounds ------------------------------------------------------------

TEST(PlanBounds, KeyUpperBoundsPropagateThroughOps) {
  LogicalPlan p = chain({node(OpKind::kSource),       // 0: domain 100
                         node(OpKind::kSource),       // 1: default domain
                         node(OpKind::kFilterKey, 0), // 2: preserves 100
                         node(OpKind::kMap, 2),       // 3: remix -> kKeyDomain
                         node(OpKind::kJoin, 2, 1),   // 4: min(100, 64)
                         node(OpKind::kReduceByKey, 4)},
                        {3, 5});
  p.nodes[0].key_domain = 100;
  const auto bounds = key_upper_bounds(p);
  EXPECT_EQ(bounds[0], 100u);
  EXPECT_EQ(bounds[1], kKeyDomain);
  EXPECT_EQ(bounds[2], 100u);
  EXPECT_EQ(bounds[3], kKeyDomain);
  EXPECT_EQ(bounds[4], std::min<std::uint64_t>(100, kKeyDomain));
  EXPECT_EQ(bounds[5], bounds[4]);
}

TEST(PlanBounds, SourceShapePrefixesAreStableAndDefaultMatchesLegacy) {
  PlanNode nd = node(OpKind::kSource);
  nd.rows = 500;
  EXPECT_EQ(node_source_rows(nd), source_rows(nd.salt, 500));

  // Fixed RNG draws per row make every shaped prefix exact — the stats
  // layer's sampling depends on this.
  const auto full = source_rows_ex(3, 1000, 128, 250, false);
  const auto half = source_rows_ex(3, 500, 128, 250, false);
  EXPECT_TRUE(std::equal(half.begin(), half.end(), full.begin()));
  const auto dk = source_rows_ex(4, 300, 64, 0, true);
  std::set<std::uint64_t> keys;
  for (const Row& r : dk) keys.insert(r.first);
  EXPECT_EQ(keys.size(), 64u) << "distinct-key source must cover the domain";
}

// ---- columnar vs row engine, generated plans -------------------------------------

TEST(ColumnarBackend, MatchesRowEngineOnGeneratedPlans) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const LogicalPlan raw = chaos::make_plan(seed, 8, 256);
    const Bytes want = local_bytes(raw);
    EXPECT_EQ(columnar_bytes(raw), want) << "raw, seed " << seed;
    EXPECT_EQ(columnar_bytes(optimize(raw)), want) << "optimized, seed " << seed;
    EXPECT_EQ(columnar_bytes(cost_optimize(raw)), want)
        << "cost-optimized, seed " << seed;
  }
}

TEST(ColumnarBackend, MatchesRowEngineOnStarQueriesInEveryDimOrder) {
  StarSpec spec;
  spec.fact_salt = 0x7ac7;
  spec.fact_rows = 4000;
  spec.fact_domain = 512;
  spec.fact_skew = 300;
  spec.dims = {{0xd1, 512, 512, false}, {0xd2, 128, 128, true}};
  const std::vector<std::vector<std::size_t>> orders = {{0, 1}, {1, 0}};
  Bytes want;
  for (const auto& order : orders) {
    const LogicalPlan q = star_query(spec, order);
    const Bytes ref = local_bytes(q);
    EXPECT_EQ(columnar_bytes(q), ref) << "order " << order[0] << order[1];
    EXPECT_EQ(columnar_bytes(cost_optimize(q)), ref);
    // join_rows is order-sensitive, so different orders need not agree —
    // but the row/columnar pair must, per order.
  }
  const auto picked = order_star_dims(spec);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(columnar_bytes(star_query(spec, picked)),
            local_bytes(star_query(spec, picked)));
}

TEST(ColumnarBackend, DenseReducePathCoversSmallDomains) {
  // domain 256 <= kDenseReduceMaxDomain: the reduce takes the dense path;
  // the sorted fallback covers the default 64-key domain after a map remix.
  LogicalPlan small = chain({node(OpKind::kSource), node(OpKind::kReduceByKey, 0)},
                            {1});
  small.nodes[0].key_domain = 256;
  small.nodes[0].rows = 2000;
  EXPECT_LE(small.nodes[0].key_domain, kDenseReduceMaxDomain);
  EXPECT_EQ(columnar_bytes(small), local_bytes(small));

  LogicalPlan wide = chain({node(OpKind::kSource), node(OpKind::kMap, 0),
                            node(OpKind::kReduceByKey, 1)},
                           {2});
  wide.nodes[0].key_domain = (kDenseReduceMaxDomain + 1) * 2;
  wide.nodes[0].rows = 2000;
  EXPECT_EQ(columnar_bytes(wide), local_bytes(wide));
}

// ---- skew-salted dist lowering on the simulated cluster --------------------------

sim::NetworkConfig star_net(std::size_t nodes) {
  sim::NetworkConfig nc;
  nc.nodes = nodes;
  nc.topology = sim::Topology::kStar;
  return nc;
}

struct Cluster {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  dist::DistRuntime rt;

  explicit Cluster(sim::NetworkConfig nc)
      : net(sim, nc), comm(sim, net), dfs(comm, {}), rt(comm, {}, &dfs) {}

  dist::JobResult run(dist::JobSpec job) {
    dist::JobResult out;
    rt.submit(std::move(job), [&out](const dist::JobResult& r) { out = r; });
    sim.run();
    return out;
  }
};

/// Skewed fact joined against a distinct-key dim, manually annotated the
/// way cost_optimize would: hot key + fanout on the join, build side = dim.
LogicalPlan salted_join_plan() {
  LogicalPlan p = chain({node(OpKind::kSource),      // 0: dim (build)
                         node(OpKind::kSource),      // 1: skewed fact
                         node(OpKind::kJoin, 0, 1),  // 2
                         node(OpKind::kReduceByKey, 2)},
                        {3});
  p.nodes[0].rows = 128;
  p.nodes[0].key_domain = 128;
  p.nodes[0].distinct_keys = true;
  p.nodes[1].rows = 3000;
  p.nodes[1].key_domain = 128;
  p.nodes[1].skew = 400;
  p.nodes[2].build_left = true;
  p.nodes[2].salt_fanout = 4;
  p.nodes[2].hot_keys = {mix64(p.nodes[1].salt ^ 0x5ca1ab1eULL) % 128};
  return p;
}

TEST(DistSkewSalting, SaltedJoinMatchesRowEngineOnSimulatedCluster) {
  const LogicalPlan p = salted_join_plan();
  Cluster cl(star_net(8));
  const auto res = cl.run(lower_dist(p, 4));
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(canonical_bytes(rows_from_result(res)), local_bytes(p));
}

TEST(DistSkewSalting, AnnotatedSelfJoinStaysCorrect) {
  // pick_skew_roles must refuse to salt a self-join (one stage cannot be
  // both the replicated build and the spread probe); the run still matches.
  LogicalPlan p = chain({node(OpKind::kSource), node(OpKind::kJoin, 0, 0),
                         node(OpKind::kReduceByKey, 1)},
                        {2});
  p.nodes[0].rows = 500;
  p.nodes[0].key_domain = 64;
  p.nodes[0].skew = 300;
  p.nodes[1].salt_fanout = 4;
  p.nodes[1].hot_keys = {mix64(p.nodes[0].salt ^ 0x5ca1ab1eULL) % 64};
  Cluster cl(star_net(8));
  const auto res = cl.run(lower_dist(p, 4));
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(canonical_bytes(rows_from_result(res)), local_bytes(p));
}

TEST(DistSkewSalting, SharedBuildParentIsNotSalted) {
  // The build parent feeds a second consumer: replicating its hot rows to
  // every task would corrupt the sibling's input, so the guard must skip
  // salting. Correctness is the oracle.
  LogicalPlan p = chain({node(OpKind::kSource),      // 0: dim, shared
                         node(OpKind::kSource),      // 1: skewed fact
                         node(OpKind::kJoin, 0, 1),  // 2: wants salting
                         node(OpKind::kMap, 0),      // 3: sibling consumer
                         node(OpKind::kReduceByKey, 2)},
                        {3, 4});
  p.nodes[0].rows = 128;
  p.nodes[0].key_domain = 128;
  p.nodes[0].distinct_keys = true;
  p.nodes[1].rows = 2000;
  p.nodes[1].key_domain = 128;
  p.nodes[1].skew = 400;
  p.nodes[2].salt_fanout = 4;
  p.nodes[2].hot_keys = {mix64(p.nodes[1].salt ^ 0x5ca1ab1eULL) % 128};
  Cluster cl(star_net(8));
  const auto res = cl.run(lower_dist(p, 4));
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(canonical_bytes(rows_from_result(res)), local_bytes(p));
}

}  // namespace
}  // namespace hpbdc::plan
