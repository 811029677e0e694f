// Optimizer-rule suite: hand-built plans assert each rule's before/after
// shape via describe(), generated plans pin idempotence and multiset
// equivalence (raw vs optimized on the shared-memory engine), and the
// named-job builders show the stage/shuffle wins bench_t11 measures.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "chaos/plan_gen.hpp"
#include "common/hash.hpp"
#include "dataflow/context.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "plan/jobs.hpp"
#include "plan/lower.hpp"
#include "plan/optimizer.hpp"
#include "plan/plan.hpp"

namespace hpbdc::plan {
namespace {

Executor& pool() {
  static ThreadPool p(4);
  return p;
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

Bytes local_bytes(const LogicalPlan& p) {
  dataflow::Context ctx(pool());
  return canonical_bytes(lower_local(p, ctx));
}

TEST(PlanIr, OpNamesAreExhaustiveAndDistinct) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const std::string name = op_name(static_cast<OpKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "invalid") << "kind " << k << " missing from op_name";
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kOpKindCount) << "two kinds share a name";
}

TEST(PlanIr, DescribeRendersFusionCombineAndCheckpoint) {
  LogicalPlan p = chain({node(OpKind::kSource), node(OpKind::kReduceByKey, 0)},
                        {1});
  p.nodes[0].combine_output = true;
  p.nodes[1].checkpoint = true;
  EXPECT_EQ(p.describe(), "0:source+combine 1:reduce_by_key(0)*");
}

// ---- rule shapes, one hand-built plan each --------------------------------

TEST(PlanOptimizer, FusesNarrowChainsIntoOneStage) {
  const LogicalPlan raw =
      chain({node(OpKind::kSource), node(OpKind::kMap, 0),
             node(OpKind::kFilter, 1), node(OpKind::kFlatMap, 2)},
            {3});
  OptimizerStats st;
  const LogicalPlan opt = optimize(raw, &st);
  EXPECT_EQ(opt.describe(), "0:fused[source+map+filter+flat_map]");
  EXPECT_EQ(st.fuse_narrow, 3u);
  EXPECT_EQ(st.stages_eliminated, 3u);
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

TEST(PlanOptimizer, FusionStopsAtSharedConsumers) {
  // Node 1 feeds both 2 and 3: it must stay a materialization point.
  const LogicalPlan raw =
      chain({node(OpKind::kSource), node(OpKind::kMap, 0),
             node(OpKind::kFilter, 1), node(OpKind::kJoin, 1, 2)},
            {3});
  const LogicalPlan opt = optimize(raw);
  EXPECT_EQ(opt.describe(),
            "0:fused[source+map] 1:filter(0) 2:join(0,1)");
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

TEST(PlanOptimizer, PushesFilterBelowSortAndFuses) {
  const LogicalPlan raw = chain(
      {node(OpKind::kSource), node(OpKind::kSortBy, 0), node(OpKind::kFilter, 1)},
      {2});
  OptimizerStats st;
  const LogicalPlan opt = optimize(raw, &st);
  EXPECT_EQ(opt.describe(), "0:fused[source+filter] 1:sort_by(0)");
  EXPECT_EQ(st.push_filter, 1u);
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

TEST(PlanOptimizer, PushesKeyFilterBelowKeyPreservingMap) {
  const LogicalPlan raw = chain({node(OpKind::kSource),
                                 node(OpKind::kMapValues, 0),
                                 node(OpKind::kFilterKey, 1)},
                                {2});
  OptimizerStats st;
  const LogicalPlan opt = optimize(raw, &st);
  EXPECT_EQ(opt.describe(), "0:fused[source+filter_key+map_values]");
  EXPECT_EQ(st.push_filter, 1u);
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

TEST(PlanOptimizer, DoesNotPushValueFilterBelowMapValues) {
  // A full-row predicate reads the value map_values rewrites: must not move.
  // Parking a second consumer on the map blocks fusion so the shape is
  // visible in describe().
  const LogicalPlan raw = chain({node(OpKind::kSource),
                                 node(OpKind::kMapValues, 0),
                                 node(OpKind::kFilter, 1),
                                 node(OpKind::kDistinct, 1)},
                                {2, 3});
  OptimizerStats st;
  const LogicalPlan opt = optimize(raw, &st);
  EXPECT_EQ(st.push_filter, 0u);
  EXPECT_EQ(opt.describe(),
            "0:fused[source+map_values] 1:filter(0) 2:distinct(0)");
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

TEST(PlanOptimizer, InsertsMapSideCombineBeforeReduce) {
  const LogicalPlan raw =
      chain({node(OpKind::kSource), node(OpKind::kReduceByKey, 0)}, {1});
  OptimizerStats st;
  const LogicalPlan opt = optimize(raw, &st);
  EXPECT_EQ(opt.describe(), "0:source+combine 1:reduce_by_key(0)");
  EXPECT_EQ(st.combine, 1u);
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

TEST(PlanOptimizer, EliminatesRedundantWideOps) {
  const LogicalPlan raw =
      chain({node(OpKind::kSource), node(OpKind::kReduceByKey, 0),
             node(OpKind::kReduceByKey, 1), node(OpKind::kDistinct, 2)},
            {3});
  OptimizerStats st;
  const LogicalPlan opt = optimize(raw, &st);
  EXPECT_EQ(opt.describe(), "0:source+combine 1:reduce_by_key(0)");
  EXPECT_EQ(opt.sinks, (std::vector<std::size_t>{1}));
  EXPECT_EQ(st.shuffle_elim, 2u);
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

TEST(PlanOptimizer, PrunesDeadNodes) {
  // Nodes 2 and 3 reach no sink (only node 1 is one).
  const LogicalPlan raw =
      chain({node(OpKind::kSource), node(OpKind::kMap, 0),
             node(OpKind::kSource), node(OpKind::kSortBy, 2)},
            {1});
  OptimizerStats st;
  const LogicalPlan opt = optimize(raw, &st);
  EXPECT_EQ(opt.describe(), "0:fused[source+map]");
  EXPECT_EQ(st.prune_dead, 2u);
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

// ---- properties over generated plans --------------------------------------

TEST(PlanOptimizer, IsIdempotentOver200SeededPlans) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const LogicalPlan raw =
        chaos::make_plan(seed, 3 + seed % 7, 32 + (seed % 4) * 32);
    const LogicalPlan once = optimize(raw);
    OptimizerStats again;
    const LogicalPlan twice = optimize(once, &again);
    ASSERT_EQ(once, twice) << "seed " << seed << "\nonce:  " << once.describe()
                           << "\ntwice: " << twice.describe();
    ASSERT_EQ(again.rules_applied(), 0u)
        << "seed " << seed << ": second pass still rewrote "
        << twice.describe();
  }
}

TEST(PlanOptimizer, PreservesRowMultisetsOver60SeededPlans) {
  std::uint64_t total_rules = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const LogicalPlan raw = chaos::make_plan(seed, 3 + seed % 7, 96);
    OptimizerStats st;
    const LogicalPlan opt = optimize(raw, &st);
    total_rules += st.rules_applied();
    ASSERT_EQ(local_bytes(raw), local_bytes(opt))
        << "seed " << seed << "\nraw: " << raw.describe()
        << "\nopt: " << opt.describe();
  }
  EXPECT_GT(total_rules, 60u) << "rules should fire often on generated plans";
}

TEST(PlanOptimizer, RegistersObsCounters) {
  obs::MetricsRegistry reg;
  OptimizerStats st;
  const LogicalPlan raw =
      chain({node(OpKind::kSource), node(OpKind::kMap, 0),
             node(OpKind::kReduceByKey, 1), node(OpKind::kReduceByKey, 2)},
            {3});
  optimize(raw, &st, &reg);
  EXPECT_EQ(reg.counter("plan.rules_applied.fuse_narrow").value(), st.fuse_narrow);
  EXPECT_EQ(reg.counter("plan.rules_applied.combine").value(), st.combine);
  EXPECT_EQ(reg.counter("plan.rules_applied.shuffle_elim").value(),
            st.shuffle_elim);
  EXPECT_EQ(reg.counter("plan.stages_eliminated").value(), st.stages_eliminated);
  EXPECT_GT(st.rules_applied(), 0u);
}

// ---- named jobs ------------------------------------------------------------

TEST(PlanJobs, WordcountLosesAStageAndGainsACombine) {
  const LogicalPlan raw = wordcount_plan(512);
  const LogicalPlan opt = optimize(raw);
  EXPECT_EQ(raw.nodes.size(), 3u);
  EXPECT_EQ(opt.describe(),
            "0:fused[source+flat_map]+combine 1:reduce_by_key(0)");
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

TEST(PlanJobs, TerasortLosesAStage) {
  const LogicalPlan raw = terasort_plan(512);
  const LogicalPlan opt = optimize(raw);
  EXPECT_EQ(opt.describe(), "0:fused[source+map] 1:sort_by(0)");
  EXPECT_EQ(local_bytes(raw), local_bytes(opt));
}

TEST(PlanLower, DistJobHasOneStagePerNodePlusCollect) {
  const LogicalPlan raw = wordcount_plan(256);
  const LogicalPlan opt = optimize(raw);
  EXPECT_EQ(lower_dist(raw, 4).stages.size(), raw.nodes.size() + 1);
  EXPECT_EQ(lower_dist(opt, 4).stages.size(), opt.nodes.size() + 1);
  EXPECT_LT(opt.nodes.size(), raw.nodes.size());
}

/// Domains, skews and flags of every source shape the plans use: the
/// default domain, star dimension and fact domains, and a 2^40 domain.
const std::vector<std::uint64_t> kShapeDomains = {
    0, 64, 4096, 16384, std::uint64_t{1} << 40};

TEST(PlanLower, ColumnarSourceBlocksMatchLocalPerShape) {
  // lower_columnar writes source rows straight from the generator into its
  // blocks; lower_local materializes them through source_rows_ex. One plan
  // per shape with a plain source and a fused source head must agree.
  for (const std::uint64_t domain : kShapeDomains) {
    for (const std::uint64_t skew : {0ull, 300ull}) {
      for (const bool distinct : {false, true}) {
        LogicalPlan p = chain({node(OpKind::kSource), node(OpKind::kFused)}, {0, 1});
        PlanNode& src = p.nodes[0];
        src.rows = 3000;
        src.key_domain = domain;
        src.skew = skew;
        src.distinct_keys = distinct;
        p.nodes[1].steps = {
            NarrowStep{OpKind::kSource, src.salt ^ 0xf00dULL, 2000, domain, skew,
                       distinct},
            NarrowStep{OpKind::kFilterKey, 0x77ULL}};
        SCOPED_TRACE(::testing::Message() << "domain " << domain << " skew " << skew
                                          << " distinct " << distinct);
        EXPECT_EQ(canonical_bytes(lower_columnar(p, pool())), local_bytes(p));
      }
    }
  }
}

// ---- source generator --------------------------------------------------------

TEST(PlanSource, ShapedRowsPinnedToParent) {
  // Digests of source_rows_ex captured before the rows came from the one
  // for_each_source_row generator: every shape, at 0, 1, 17 and 60000 rows.
  // A change to any key, value or RNG draw fails here.
  const std::vector<std::uint64_t> want = {
      0x53f08ed709944e2eULL, 0x87f08bbd9e183560ULL, 0xe702527e805c8ba1ULL,
      0x87f08bbd9e183560ULL, 0x6d96643e88580b4eULL, 0x903907d572d3cca0ULL,
      0x56c67d84ebd76b4cULL, 0x903907d572d3cca0ULL, 0x772f20c252557836ULL,
      0x40fce64ffa81824fULL, 0x0df72cfd4f1713cfULL, 0x40fce64ffa81824fULL,
      0x4a49430923f8b863ULL, 0xb1632ee180114533ULL, 0x3ef5201040dcce11ULL,
      0xb1632ee180114533ULL, 0x3700a5828531d0ccULL, 0xb3747648c23a4d8eULL,
      0x69864024fcb566f3ULL, 0xb3747648c23a4d8eULL};
  std::size_t shape = 0;
  for (const std::uint64_t domain : kShapeDomains) {
    for (const std::uint64_t skew : {0ull, 300ull}) {
      for (const bool distinct : {false, true}) {
        std::uint64_t h = 0;
        for (const std::uint64_t n : {0ull, 1ull, 17ull, 60000ull}) {
          const auto rows = source_rows_ex(0xd15c0ULL + domain, n, domain, skew, distinct);
          h = hash_combine(h, rows.size());
          for (const Row& r : rows) h = hash_combine(hash_combine(h, r.first), r.second);
        }
        ASSERT_LT(shape, want.size());
        EXPECT_EQ(h, want[shape]) << "domain " << domain << " skew " << skew
                                  << " distinct " << distinct << " digest 0x"
                                  << std::hex << h;
        ++shape;
      }
    }
  }
  EXPECT_EQ(shape, want.size());
}

// ---- fingerprinting (the serve-layer cache key) ---------------------------

TEST(PlanFingerprint, IndependentOfNodeNumbering) {
  // Same DAG, different construction orders: two sources into a join. In
  // plan B the sources are numbered in the opposite order, so the node ids
  // differ everywhere but the structure (including join sidedness) matches.
  LogicalPlan a = chain({node(OpKind::kSource), node(OpKind::kSource),
                         node(OpKind::kJoin, 0, 1)},
                        {2});
  a.nodes[0].salt = 11;
  a.nodes[1].salt = 22;
  a.nodes[2].salt = 33;
  LogicalPlan b = chain({node(OpKind::kSource), node(OpKind::kSource),
                         node(OpKind::kJoin, 1, 0)},
                        {2});
  b.nodes[1].salt = 11;  // b's node 1 is a's node 0
  b.nodes[0].salt = 22;
  b.nodes[2].salt = 33;
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(fingerprint(optimize(a)), fingerprint(optimize(b)));

  // Swapping the join SIDES is a different plan (join output tags sides).
  LogicalPlan c = a;
  std::swap(c.nodes[2].left, c.nodes[2].right);
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(PlanFingerprint, SinkOrderDoesNotMatter) {
  LogicalPlan a = chain({node(OpKind::kSource), node(OpKind::kMap, 0),
                         node(OpKind::kDistinct, 0)},
                        {1, 2});
  LogicalPlan b = a;
  std::swap(b.sinks[0], b.sinks[1]);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(PlanFingerprint, SensitiveToOpKindParamsAndShape) {
  const LogicalPlan base =
      chain({node(OpKind::kSource), node(OpKind::kFilter, 0)}, {1});
  LogicalPlan op_changed = base;
  op_changed.nodes[1].op = OpKind::kMap;
  LogicalPlan salt_changed = base;
  salt_changed.nodes[1].salt ^= 1;
  LogicalPlan rows_changed = base;
  rows_changed.nodes[0].rows += 1;
  LogicalPlan sink_dropped = base;
  sink_dropped.sinks = {0};
  std::set<std::uint64_t> fps{fingerprint(base), fingerprint(op_changed),
                              fingerprint(salt_changed),
                              fingerprint(rows_changed),
                              fingerprint(sink_dropped)};
  EXPECT_EQ(fps.size(), 5u);
}

TEST(PlanFingerprint, DistinctAcross200SeededOptimizedPlans) {
  std::set<std::uint64_t> fps;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const LogicalPlan p =
        optimize(chaos::make_plan(seed, 3 + seed % 5, 64 + (seed % 3) * 32));
    const std::uint64_t fp = fingerprint(p);
    EXPECT_EQ(fp, fingerprint(p)) << "unstable fingerprint, seed " << seed;
    fps.insert(fp);
  }
  EXPECT_EQ(fps.size(), 200u) << "seeded plans collided";
}

}  // namespace
}  // namespace hpbdc::plan
