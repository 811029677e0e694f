// Optimizer-rule suite: hand-built plans assert each rule's before/after
// shape via describe(), generated plans pin idempotence and multiset
// equivalence (raw vs optimized on the shared-memory engine), and the
// named-job builders show the stage/shuffle wins bench_t11 measures.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "chaos/plan_gen.hpp"
#include "common/hash.hpp"
#include "dataflow/context.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "plan/bigbench.hpp"
#include "plan/cost.hpp"
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

// ---- dist stage kernels --------------------------------------------------------

/// Output blocks of every task of every stage run so far: [stage][task][child].
using StageOutputs = std::vector<std::vector<std::vector<Bytes>>>;

/// The blocks task `t` of stage `s` receives: per parent, the block each of
/// the parent's tasks addressed to it, in parent-task order, as the runtime
/// delivers them.
std::vector<std::vector<Bytes>> task_inputs(const dist::JobSpec& job,
                                            const StageOutputs& out, std::size_t s,
                                            std::size_t t) {
  std::vector<std::vector<Bytes>> in;
  for (const std::size_t p : job.stages[s].parents) {
    std::vector<Bytes> blocks;
    for (const std::vector<Bytes>& task_out : out[p]) blocks.push_back(task_out.at(t));
    in.push_back(std::move(blocks));
  }
  return in;
}

/// Runs every stage of a lowered job in-process, task by task, and folds
/// every output block's bytes into one digest.
std::uint64_t stage_bytes_digest(const dist::JobSpec& job) {
  StageOutputs out(job.stages.size());
  std::uint64_t h = 0;
  for (std::size_t s = 0; s < job.stages.size(); ++s) {
    const dist::StageSpec& st = job.stages[s];
    out[s].resize(st.ntasks);
    for (std::size_t t = 0; t < st.ntasks; ++t) {
      out[s][t] = st.run(t, task_inputs(job, out, s, t));
      h = hash_combine(h, out[s][t].size());
      for (const Bytes& b : out[s][t]) {
        h = hash_combine(h, hash_bytes(reinterpret_cast<const char*>(b.data()), b.size()));
      }
    }
  }
  return h;
}

PlanNode shaped_source(std::uint64_t salt, std::uint64_t rows, std::uint64_t domain,
                       std::uint64_t skew, bool distinct) {
  PlanNode nd = node(OpKind::kSource);
  nd.salt = salt;
  nd.rows = rows;
  nd.key_domain = domain;
  nd.skew = skew;
  nd.distinct_keys = distinct;
  return nd;
}

/// The key every skewed row of a source lands on (SourceGen).
std::uint64_t hot_key_of(const PlanNode& src) {
  return mix64(src.salt ^ 0x5ca1ab1eULL) % (src.key_domain == 0 ? kKeyDomain : src.key_domain);
}

LogicalPlan plan_of(std::vector<PlanNode> nodes, std::vector<std::size_t> sinks) {
  LogicalPlan p;
  p.seed = 1;
  p.nodes = std::move(nodes);
  p.sinks = std::move(sinks);
  return p;
}

TEST(PlanLower, DistStageBytesPinnedToParent) {
  // Every stage's output blocks, for every task, hashed and pinned to digests
  // that the std::multimap join, materialize-then-stride sources and
  // std::map combine these kernels replaced agreed with, re-captured when
  // the source generator became indexed (every source row changed).
  // Simulated sizes are byte counts of these blocks, so a kernel that
  // reorders, drops or re-encodes a row changes simulated outcomes and fails
  // here.
  struct Case {
    std::string name;
    LogicalPlan plan;
    LowerDistOptions opts;
  };
  std::vector<Case> cases;
  for (const std::uint64_t n : {0ull, 1ull, 17ull, 30000ull}) {
    PlanNode fused = node(OpKind::kFused);
    fused.steps = {NarrowStep{OpKind::kSource, 0xf05eULL, n, 4096, 250, false},
                   NarrowStep{OpKind::kFilterKey, 0x71ULL},
                   NarrowStep{OpKind::kMapValues, 0x72ULL},
                   NarrowStep{OpKind::kFlatMap, 0x73ULL}};
    cases.push_back({"sources n=" + std::to_string(n),
                     plan_of({shaped_source(0x501ULL, n, 0, 0, false),
                              shaped_source(0x502ULL, n, 4096, 300, false),
                              shaped_source(0x503ULL, n, 4096, 0, true),
                              std::move(fused)},
                             {0, 1, 2, 3}),
                     {}});
  }
  {
    // Every narrow and wide op, a non-head fused pipeline and a map-side
    // combine feeding a reduce.
    std::vector<PlanNode> nd = {shaped_source(0x601ULL, 3000, 0, 0, false),
                                node(OpKind::kMap, 0),       node(OpKind::kMapValues, 1),
                                node(OpKind::kFilter, 2),    node(OpKind::kFilterKey, 3),
                                node(OpKind::kFlatMap, 4),   node(OpKind::kSortBy, 5),
                                node(OpKind::kDistinct, 6),  node(OpKind::kMapValues, 0),
                                node(OpKind::kReduceByKey, 8), node(OpKind::kFused, 0)};
    nd[8].combine_output = true;
    nd[10].steps = {NarrowStep{OpKind::kMap, 0x81ULL}, NarrowStep{OpKind::kFilter, 0x82ULL}};
    cases.push_back({"ops", plan_of(std::move(nd), {7, 9, 10}), {}});
  }
  // Duplicate keys on both sides; probe keys 64..95 miss the build side.
  cases.push_back({"join",
                   plan_of({shaped_source(0x701ULL, 2000, 64, 0, false),
                            shaped_source(0x702ULL, 3000, 96, 0, false),
                            node(OpKind::kJoin, 0, 1)},
                           {2}),
                   {}});
  {
    // Skew-salted build/probe pairs, building from either side.
    std::vector<PlanNode> nd = {shaped_source(0x801ULL, 2000, 64, 0, false),
                                shaped_source(0x802ULL, 3000, 64, 400, false),
                                node(OpKind::kJoin, 0, 1),
                                shaped_source(0x803ULL, 3000, 64, 400, false),
                                shaped_source(0x804ULL, 2000, 64, 0, false),
                                node(OpKind::kJoin, 3, 4)};
    nd[2].salt_fanout = 4;
    nd[2].hot_keys = {hot_key_of(nd[1]), 5};
    nd[5].build_left = false;
    nd[5].salt_fanout = 4;
    nd[5].hot_keys = {hot_key_of(nd[3])};
    cases.push_back({"skew join", plan_of(std::move(nd), {2, 5}), {}});
  }
  {
    // A broadcast dimension build probed by a skewed fact side.
    LowerDistOptions bc;
    bc.broadcast_join_rows = 8192;
    cases.push_back({"broadcast join",
                     plan_of({shaped_source(0x901ULL, 4096, 4096, 0, true),
                              shaped_source(0x902ULL, 20000, 4096, 100, false),
                              node(OpKind::kJoin, 0, 1)},
                             {2}),
                     bc});
  }
  const std::vector<std::uint64_t> want = {
      0x41042e2a5f8f62f4ULL, 0xfbaae15f34d2ce40ULL, 0xff67a4719b174d8bULL,
      0xcfe5f300886787d3ULL, 0xf365dd589ed8c202ULL, 0x65d813c4206d12e5ULL,
      0x3307678bebf1baa8ULL, 0xf3c63d1a41d50f1dULL, 0xb53f4ce967dfc9f7ULL,
      0xc85a64ea08872fabULL, 0x9304483104005550ULL, 0xe9ae8690c603faf8ULL,
      0x3d9ce969fc5ec07aULL, 0xabe60590753cee0cULL, 0x4497f8b38b0c9279ULL,
      0x147ecbd81057444eULL};
  std::size_t i = 0;
  for (const Case& c : cases) {
    for (const std::size_t ntasks : {3u, 4u}) {
      const dist::JobSpec job = lower_dist(c.plan, ntasks, c.opts);
      if (c.name == "broadcast join") {
        EXPECT_TRUE(job.stages[0].broadcast);
      }
      const std::uint64_t h = stage_bytes_digest(job);
      ASSERT_LT(i, want.size());
      EXPECT_EQ(h, want[i]) << c.name << " ntasks " << ntasks << " digest 0x" << std::hex << h;
      ++i;
    }
  }
  EXPECT_EQ(i, want.size());
}

TEST(PlanLower, DistStarStageBytesPinnedToParent) {
  // The two cost-optimized star queries, lowered as star_etl lowers them:
  // every dimension a broadcast build, and joins the cost model flips to
  // build right over a broadcast dimension, which lower_dist still builds
  // from its left parent. Digests captured before the dist join indexed its
  // build side by key and partition_rows encoded blocks in place.
  LowerDistOptions bc;
  bc.broadcast_join_rows = 16384;
  const std::vector<std::uint64_t> want = {0x9ed2f4810b56846eULL, 0x23291880d59c8e6fULL,
                                           0x2845525844df07a6ULL, 0x9eef3be8933dea09ULL};
  std::size_t i = 0;
  for (StarSpec s : {sales_star(1), clickstream_star(1)}) {
    s.fact_rows = 3000;
    const LogicalPlan costed = cost_optimize(star_query(s, order_star_dims(s)));
    for (const std::size_t ntasks : {3u, 4u}) {
      const dist::JobSpec job = lower_dist(costed, ntasks, bc);
      std::size_t flipped_over_broadcast = 0;
      for (const PlanNode& nd : costed.nodes) {
        flipped_over_broadcast +=
            nd.op == OpKind::kJoin && !nd.build_left && job.stages[nd.left].broadcast;
      }
      EXPECT_GT(flipped_over_broadcast, 0u) << s.fact_salt;
      const std::uint64_t h = stage_bytes_digest(job);
      ASSERT_LT(i, want.size());
      EXPECT_EQ(h, want[i]) << s.fact_salt << " ntasks " << ntasks << " digest 0x"
                            << std::hex << h;
      ++i;
    }
  }
  EXPECT_EQ(i, want.size());
}

std::vector<Row> decode_blocks(const std::vector<Bytes>& blocks) {
  std::vector<Row> rows;
  for (const Bytes& b : blocks) {
    const auto part = from_bytes<std::vector<Row>>(b);
    rows.insert(rows.end(), part.begin(), part.end());
  }
  return rows;
}

/// The join a dist join task must compute, as a nested loop: rhs-major, and
/// build (lhs) order within one probe row.
std::vector<Row> nested_loop_join(const std::vector<Row>& lhs,
                                  const std::vector<Row>& rhs) {
  std::vector<Row> out;
  for (const Row& r : rhs) {
    for (const Row& l : lhs) {
      if (l.first == r.first) out.push_back(join_rows(r.first, l.second, r.second));
    }
  }
  return out;
}

TEST(PlanLower, DistJoinEqualsNestedLoopAcrossTheDenseBound) {
  // lower_dist's join indexes its build side by key when the join's key
  // bound is at most kDenseReduceMaxDomain and hashes it above. Either way
  // every join task must emit, byte for byte, the nested-loop join of its
  // inputs hash-partitioned in that order. No workload or chaos plan has a
  // key domain above 2^16, so this is the hashed path's only exact check.
  constexpr std::uint64_t kAt = kDenseReduceMaxDomain;
  // A skewed salt whose hot key lies below `below`, so the hot build rows
  // meet probe rows under a narrower bound.
  auto salt_hot_below = [](std::uint64_t salt, std::uint64_t domain,
                           std::uint64_t below) {
    while (hot_key_of(shaped_source(salt, 1, domain, 1, false)) >= below) ++salt;
    return salt;
  };
  struct Case {
    std::string name;
    PlanNode lhs, rhs;
    bool dense;
  };
  const std::vector<Case> cases = {
      // One salt on both sides: the 3000 build rows are the probe side's
      // first 3000, and both hot keys coincide.
      {"dense at the bound", shaped_source(0xa01ULL, 3000, kAt, 20, false),
       shaped_source(0xa01ULL, 4000, kAt, 20, false), true},
      {"hashed one above", shaped_source(0xa02ULL, 3000, kAt + 1, 20, false),
       shaped_source(0xa02ULL, 4000, kAt + 1, 20, false), false},
      // Most build keys lie at or above the join's bound of 4096.
      {"build keys above the bound",
       shaped_source(salt_hot_below(0xa03ULL, kAt, 4096), 3000, kAt, 200, false),
       shaped_source(0xa04ULL, 8192, 4096, 0, true), true},
      // Most probe keys lie at or above the join's bound of 4096.
      {"probe keys above the bound", shaped_source(0xa05ULL, 3 * 4096, 4096, 0, true),
       shaped_source(0xa06ULL, 3000, kAt, 0, false), true},
  };
  for (const Case& c : cases) {
    const LogicalPlan p = plan_of({c.lhs, c.rhs, node(OpKind::kJoin, 0, 1)}, {2});
    EXPECT_EQ(key_upper_bounds(p)[2] <= kDenseReduceMaxDomain, c.dense) << c.name;
    for (const std::size_t ntasks : {3u, 4u}) {
      const dist::JobSpec job = lower_dist(p, ntasks);
      StageOutputs out(job.stages.size());
      for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t t = 0; t < ntasks; ++t) {
          out[s].push_back(job.stages[s].run(t, task_inputs(job, out, s, t)));
        }
      }
      std::size_t pairs = 0, probes_matched = 0;
      for (std::size_t t = 0; t < ntasks; ++t) {
        const auto in = task_inputs(job, out, 2, t);
        const std::vector<Row> lhs = decode_blocks(in[0]), rhs = decode_blocks(in[1]);
        const std::vector<Row> ref = nested_loop_join(lhs, rhs);
        std::vector<std::vector<Row>> parts(ntasks);
        for (const Row& r : ref) parts[hash_u64(r.first) % ntasks].push_back(r);
        std::vector<Bytes> want;
        for (const auto& part : parts) want.push_back(to_bytes(part));
        EXPECT_EQ(job.stages[2].run(t, in), want) << c.name << " ntasks " << ntasks
                                                  << " task " << t;
        pairs += ref.size();
        for (const Row& r : rhs) {
          probes_matched += std::any_of(lhs.begin(), lhs.end(),
                                        [&r](const Row& l) { return l.first == r.first; });
        }
      }
      // Some probe row meets several build rows, so build order shows.
      EXPECT_GT(pairs, probes_matched) << c.name;
      EXPECT_GT(probes_matched, 0u) << c.name;
    }
  }
}

// ---- map-side combine -------------------------------------------------------

TEST(PlanRows, CombineRowsEqualsMapReference) {
  auto reference = [](const std::vector<Row>& rows) {
    std::map<std::uint64_t, std::uint64_t> acc;
    for (const Row& r : rows) {
      auto [it, fresh] = acc.emplace(r.first, r.second);
      if (!fresh) it->second = reduce_combine(it->second, r.second);
    }
    return std::vector<Row>(acc.begin(), acc.end());
  };
  Rng rng(0xc0b1ULL);
  std::vector<std::vector<Row>> inputs = {{}, {{7, 9}}};
  for (const std::uint64_t keys : {1ull, 8ull, 64ull, 1ull << 40}) {
    std::vector<Row> rows(5000);
    // Values near 2^64 make every multi-row sum wrap.
    for (Row& r : rows) r = {rng.next_below(keys) * 977, ~0ULL - rng.next_below(1000)};
    inputs.push_back(std::move(rows));
  }
  for (const std::vector<Row>& rows : inputs) {
    EXPECT_EQ(combine_rows(rows), reference(rows)) << rows.size() << " rows";
  }
}

// ---- source generator --------------------------------------------------------

TEST(PlanSource, ShapedRowsPinnedToParent) {
  // Digests of source_rows_ex from the indexed SourceGen, where row i is a
  // pure function of (salt, i, shape): every shape, at 0, 1, 17 and 60000
  // rows. A change to any key, value or draw fails here.
  const std::vector<std::uint64_t> want = {
      0x7e7d8e9c93481b23ULL, 0x7c796ce0650e5546ULL, 0x4be67167100cbceaULL,
      0x7c796ce0650e5546ULL, 0x6361f05c7a05a51cULL, 0x6ff7450de9c0f224ULL,
      0x34ac54754849a4eaULL, 0x6ff7450de9c0f224ULL, 0xdf0ffb01966ab58dULL,
      0x120f5adbf646f24aULL, 0x93bfec2a8ebf806bULL, 0x120f5adbf646f24aULL,
      0x3285e4ab361333d5ULL, 0xd51b1ebec8820defULL, 0x02e0b3e351ea42e9ULL,
      0xd51b1ebec8820defULL, 0xfb5bd82d59163cc6ULL, 0x40dd515ee5326251ULL,
      0x5bc0f186a6cd4c62ULL, 0x40dd515ee5326251ULL};
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

TEST(PlanSource, SlicesInterleaveToTheSourceAndPrefixesAreExact) {
  // Row i is a pure function of (salt, i, shape): a dist task's strided
  // slice, a random read and a shorter source all see the same rows.
  constexpr std::uint64_t kRows = 1000;
  for (const std::uint64_t domain : kShapeDomains) {
    for (const std::uint64_t skew : {0ull, 300ull}) {
      for (const bool distinct : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "domain " << domain << " skew " << skew
                                          << " distinct " << distinct);
        const std::uint64_t salt = 0x511ceULL + domain;
        const SourceGen gen(salt, domain, skew, distinct);
        const std::vector<Row> all = source_rows_ex(salt, kRows, domain, skew, distinct);
        ASSERT_EQ(all.size(), kRows);
        for (const std::uint64_t ntasks : {1ull, 3ull, 4ull, 7ull}) {
          std::vector<std::vector<Row>> slices;
          for (std::uint64_t t = 0; t < ntasks; ++t) {
            slices.push_back(source_slice(gen, kRows, t, ntasks));
            EXPECT_EQ(slices.back().size(), (kRows - t + ntasks - 1) / ntasks);
          }
          std::vector<Row> woven;
          for (std::uint64_t i = 0; i < kRows; ++i) {
            woven.push_back(slices[i % ntasks].at(i / ntasks));
          }
          EXPECT_EQ(woven, all) << ntasks << " tasks";
        }
        for (const std::uint64_t m : std::initializer_list<std::uint64_t>{0, 1, 17, kRows - 1}) {
          EXPECT_EQ(source_rows_ex(salt, m, domain, skew, distinct),
                    std::vector<Row>(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(m)))
              << m << " rows";
        }
        for (const std::uint64_t i : std::initializer_list<std::uint64_t>{0, 1, 499, kRows - 1}) {
          EXPECT_EQ(gen.row(i), all[i]) << "row " << i;
          EXPECT_EQ(gen.key(i), all[i].first) << "row " << i;
        }
      }
    }
  }
}

TEST(PlanSource, FillBodiesMatchRowByRow) {
  // Every fill body, and the one fill picks, against row(i) and key(i), keys
  // only and keys with values: domains on both sides of 2^32 (where the
  // vector bodies' 32x32 products stop being exact), skews on both sides of
  // 1000 (where they clamp), dimension keys, a far first row and one whose
  // slice wraps past 2^64 (where a dimension's lanes would step wrong),
  // strides, and lengths around the vector bodies' 4- and 8-row steps and
  // the 256-row batches.
  // Entries past n stay untouched. The bodies checked go into the test's
  // properties, so a log shows whether this host ran the AVX-512 body.
  constexpr std::uint64_t kGuard = 0xfeedfacecafebeefULL;
  constexpr std::size_t kMaxN = 1000, kPad = 5;
  auto bodies = detail::fill_bodies();
  ASSERT_FALSE(bodies.empty());
  EXPECT_STREQ(bodies[0].name, "scalar");
  std::string checked;
  for (const auto& b : bodies) checked += (checked.empty() ? "" : ",") + std::string(b.name);
  RecordProperty("fill_bodies", checked);
  bodies.push_back({"fill", [](const SourceGen& g, std::uint64_t first, std::uint64_t stride,
                               std::size_t n, std::uint64_t* keys,
                               std::uint64_t* vals) noexcept {
                      g.fill(first, stride, n, keys, vals);
                    }});
  const std::uint64_t two32 = std::uint64_t{1} << 32;
  const std::vector<std::size_t> lengths = {0,  1,  2,  3,  4,  5,  6,  7,  8,
                                            9, 15, 16, 17, 255, 256, 257, kMaxN};
  std::vector<std::uint64_t> keys(kMaxN + kPad), vals(kMaxN + kPad);
  std::vector<std::uint64_t> want_keys, want_vals;
  for (const std::uint64_t domain : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{7},
                                     std::uint64_t{64}, std::uint64_t{4096},
                                     std::uint64_t{1} << 16, (two32 >> 1) + 1, two32 - 1, two32,
                                     std::uint64_t{1} << 40}) {
    for (const std::uint64_t skew : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{300},
                                     std::uint64_t{999}, std::uint64_t{1000}, std::uint64_t{1001},
                                     (std::uint64_t{1} << 63) + 5}) {
      for (const bool distinct : {false, true}) {
        const SourceGen gen(0xf111ULL + domain + skew, domain, skew, distinct);
        for (const std::uint64_t first :
             {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 40) + 5,
              ~std::uint64_t{0} - 600}) {
          for (const std::uint64_t stride : {1ull, 3ull, 4ull, 7ull}) {
            std::vector<Row> want(kMaxN);
            for (std::size_t j = 0; j < kMaxN; ++j) {
              want[j] = gen.row(first + j * stride);
              ASSERT_EQ(gen.key(first + j * stride), want[j].first);
            }
            for (const auto& [name, body] : bodies) {
              for (const std::size_t n : lengths) {
                for (const bool with_vals : {false, true}) {
                  std::fill(keys.begin(), keys.end(), kGuard);
                  std::fill(vals.begin(), vals.end(), kGuard);
                  body(gen, first, stride, n, keys.data(), with_vals ? vals.data() : nullptr);
                  want_keys.assign(kMaxN + kPad, kGuard);
                  want_vals.assign(kMaxN + kPad, kGuard);
                  for (std::size_t j = 0; j < n; ++j) {
                    want_keys[j] = want[j].first;
                    if (with_vals) want_vals[j] = want[j].second;
                  }
                  ASSERT_EQ(keys, want_keys)
                      << name << " domain " << domain << " skew " << skew << " distinct "
                      << distinct << " first " << first << " stride " << stride << " n " << n
                      << " vals " << with_vals;
                  ASSERT_EQ(vals, want_vals)
                      << name << " domain " << domain << " skew " << skew << " distinct "
                      << distinct << " first " << first << " stride " << stride << " n " << n
                      << " vals " << with_vals;
                }
              }
            }
          }
        }
      }
    }
  }
}

/// Pearson's chi-square statistic of per-key counts against equal shares,
/// leaving out `skip` (a hot key) when it is in range.
double chi_square_uniform(const std::vector<std::uint64_t>& counts,
                          std::uint64_t skip = ~0ULL) {
  double total = 0, cells = 0;
  for (std::uint64_t k = 0; k < counts.size(); ++k) {
    if (k == skip) continue;
    total += static_cast<double>(counts[k]);
    ++cells;
  }
  const double expect = total / cells;
  double chi = 0;
  for (std::uint64_t k = 0; k < counts.size(); ++k) {
    if (k == skip) continue;
    const double d = static_cast<double>(counts[k]) - expect;
    chi += d * d / expect;
  }
  return chi;
}

/// A bound a chi-square statistic with `df` degrees of freedom stays under
/// unless the keys are far from uniform: its mean plus six standard
/// deviations.
double chi_square_bound(double df) { return df + 6 * std::sqrt(2 * df); }

TEST(PlanSource, KeysAreUniformOverTheDomain) {
  // Multiply-high without rejection: every key within domain/2^64 of an
  // equal share. 50 expected rows per key.
  for (const std::uint64_t domain : {2ull, 64ull, 96ull, 1000ull, 4096ull}) {
    std::vector<std::uint64_t> counts(domain);
    const SourceGen gen(0x0ddba11ULL + domain, domain, 0, false);
    for (std::uint64_t i = 0; i < 50 * domain; ++i) ++counts.at(gen.key(i));
    EXPECT_LT(chi_square_uniform(counts), chi_square_bound(static_cast<double>(domain - 1)))
        << "domain " << domain;
  }
}

TEST(PlanSource, HotKeyShareMatchesSkew) {
  // A skewed row goes to the hot key with probability skew/1000; the rest
  // land uniformly, the hot key included. The skew roll is drawn from the
  // part of the row hash the key does not use, so the other keys stay
  // uniform among themselves.
  constexpr std::uint64_t kRows = 200000;
  for (const std::uint64_t domain : {64ull, 4096ull}) {
    for (const std::uint64_t skew : {1ull, 100ull, 300ull, 999ull}) {
      const PlanNode src = shaped_source(0x5eedULL + skew, kRows, domain, skew, false);
      const std::uint64_t hot = hot_key_of(src);
      const SourceGen gen(src);
      std::vector<std::uint64_t> counts(domain);
      for (std::uint64_t i = 0; i < kRows; ++i) ++counts.at(gen.key(i));
      const double s = static_cast<double>(skew) / 1000.0;
      const double p = s + (1 - s) / static_cast<double>(domain);
      const double share = static_cast<double>(counts[hot]) / kRows;
      EXPECT_NEAR(share, p, 5 * std::sqrt(p * (1 - p) / kRows))
          << "domain " << domain << " skew " << skew;
      EXPECT_LT(chi_square_uniform(counts, hot),
                chi_square_bound(static_cast<double>(domain - 2)))
          << "domain " << domain << " skew " << skew;
    }
  }
}

TEST(PlanSource, DistinctKeysCycleExactly) {
  // A dimension's key i is i mod domain, partial last cycle included, and
  // skew never moves it.
  for (const std::uint64_t domain : {1ull, 7ull, 64ull, 4096ull}) {
    for (const std::uint64_t n :
         std::initializer_list<std::uint64_t>{0, 1, domain - 1, domain, domain + 1, 3 * domain + 5}) {
      const auto rows = source_rows_ex(0xd1aULL, n, domain, 300, true);
      ASSERT_EQ(rows.size(), n);
      for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(rows[i].first, i % domain) << "domain " << domain << " n " << n << " row " << i;
      }
    }
    const SourceGen gen(0xd1aULL, domain, 0, true);
    const std::uint64_t far = (std::uint64_t{1} << 40) + 5;
    EXPECT_EQ(gen.key(far), far % domain);
  }
}

TEST(PlanSource, DimensionsWithOneSaltButDifferentDomainsDiffer) {
  // Same salt, same values; the key cycles differ once the smaller domain
  // wraps, so the two tables are different sources.
  const auto narrow = source_rows_ex(0xd1aULL, 200, 64, 0, true);
  const auto wide = source_rows_ex(0xd1aULL, 200, 96, 0, true);
  EXPECT_NE(narrow, wide);
  EXPECT_EQ(narrow[64].first, 0u);
  EXPECT_EQ(wide[64].first, 64u);
  // Different salts draw different values for every row.
  const auto other = source_rows_ex(0xd1bULL, 200, 64, 0, true);
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    EXPECT_NE(narrow[i].second, other[i].second) << "row " << i;
  }
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
