// Tests for the statistics layer (plan/stats.hpp) and the cost pass
// (plan/cost.hpp): sketch-driven source estimates, hot-key detection and
// exact kFilterKey evaluation, build-side flips, skew-salt annotation,
// measured filter reordering inside fused chains, cost-based star-join
// ordering, and the fingerprint guarantees the serve result cache leans on
// (cost parameters fold in; defaulted plans keep their historical value).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/sketch.hpp"
#include "dataflow/context.hpp"
#include "exec/thread_pool.hpp"
#include "plan/bigbench.hpp"
#include "plan/cost.hpp"
#include "plan/lower.hpp"
#include "plan/optimizer.hpp"
#include "plan/plan.hpp"
#include "plan/stats.hpp"

namespace hpbdc::plan {
namespace {

Executor& pool() {
  static ThreadPool p(4);
  return p;
}

Bytes local_bytes(const LogicalPlan& p) {
  dataflow::Context ctx(pool());
  return canonical_bytes(lower_local(p, ctx));
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

LogicalPlan source_only(std::uint64_t rows, std::uint64_t domain,
                        std::uint64_t skew = 0, bool distinct = false) {
  LogicalPlan p = chain({node(OpKind::kSource)}, {0});
  p.nodes[0].rows = rows;
  p.nodes[0].key_domain = domain;
  p.nodes[0].skew = skew;
  p.nodes[0].distinct_keys = distinct;
  return p;
}

std::uint64_t hot_key_of(const PlanNode& src) {
  return mix64(src.salt ^ 0x5ca1ab1eULL) % src.key_domain;
}

// ---- collect_stats ---------------------------------------------------------------

TEST(PlanStats, SourceNdvEstimateTracksTrueDistinctCount) {
  const LogicalPlan p = source_only(50000, 4096);
  const auto stats = collect_stats(p);
  std::set<std::uint64_t> keys;
  for (const Row& r : node_source_rows(p.nodes[0])) keys.insert(r.first);
  EXPECT_NEAR(stats[0].rows, 50000.0, 1.0);
  EXPECT_NEAR(stats[0].ndv, static_cast<double>(keys.size()),
              0.15 * static_cast<double>(keys.size()));
  EXPECT_LE(stats[0].ndv, 4096.0) << "NDV must respect the static key bound";
  EXPECT_TRUE(stats[0].hot.empty()) << "uniform source has no 5% heavy hitter";
}

TEST(PlanStats, SkewedSourceHotKeyIsDetectedWithOverestimateOnlyCount) {
  const LogicalPlan p = source_only(40000, 4096, /*skew=*/300);
  const auto stats = collect_stats(p);
  ASSERT_FALSE(stats[0].hot.empty());
  const auto& h = stats[0].hot.front();
  EXPECT_EQ(h.key, hot_key_of(p.nodes[0]));
  // ~30% of rows divert to the hot key; the CMS never undercounts, and the
  // sketch-scale slack stays well under 2x.
  EXPECT_GE(h.count, 40000ull * 3 / 20);
  EXPECT_LE(h.count, 40000ull * 3 / 5);
}

TEST(PlanStats, FilterKeyEvaluatesHotKeysExactly) {
  LogicalPlan p = chain({node(OpKind::kSource), node(OpKind::kFilterKey, 0)},
                        {1});
  p.nodes[0].rows = 40000;
  p.nodes[0].key_domain = 4096;
  p.nodes[0].skew = 300;
  const auto stats = collect_stats(p);
  ASSERT_FALSE(stats[0].hot.empty());
  const bool keeps =
      filter_key_keep({stats[0].hot.front().key, 0}, p.nodes[1].salt);
  EXPECT_EQ(!stats[1].hot.empty(), keeps)
      << "the key-only predicate must be applied exactly to hot keys";
  for (const HotKey& h : stats[1].hot) {
    EXPECT_TRUE(filter_key_keep({h.key, 0}, p.nodes[1].salt));
  }
}

TEST(PlanStats, PropagationFollowsTextbookShapes) {
  LogicalPlan p = chain({node(OpKind::kSource),          // 0
                         node(OpKind::kFilter, 0),      // 1: x0.5 rows
                         node(OpKind::kMap, 1),         // 2: remix, hot cleared
                         node(OpKind::kReduceByKey, 2)},  // 3: rows = ndv
                        {3});
  p.nodes[0].rows = 10000;
  p.nodes[0].key_domain = 256;
  p.nodes[0].skew = 400;
  const auto stats = collect_stats(p);
  EXPECT_NEAR(stats[1].rows, stats[0].rows * 0.5, 1e-9);
  EXPECT_TRUE(stats[2].hot.empty()) << "kMap remixes keys; hot list must clear";
  EXPECT_LE(stats[2].ndv, static_cast<double>(kKeyDomain));
  EXPECT_NEAR(stats[3].rows, stats[2].ndv, 1e-9);
}

/// The per-row source sketch collect_stats used to run, kept as the
/// reference its one-pass-over-distinct-keys version must equal: every
/// sampled row into the HLL and the CMS, then sort/unique the sampled keys
/// and scan their CMS estimates for heavy hitters.
NodeStats per_row_reference(const PlanNode& src, const StatsOptions& opts) {
  const std::uint64_t bound = src.key_domain == 0 ? kKeyDomain : src.key_domain;
  NodeStats st;
  st.rows = static_cast<double>(src.rows);
  st.key_bound = bound;
  const std::uint64_t sample_n = std::min<std::uint64_t>(src.rows, opts.sample_rows);
  if (sample_n != 0) {
    const auto sample = source_rows_ex(src.salt, sample_n, src.key_domain,
                                       src.skew, src.distinct_keys);
    HyperLogLog hll(kHllPrecision);
    CountMinSketch cms(kCmsEpsilon, kCmsDelta);
    for (const Row& r : sample) {
      hll.add(hash_u64(r.first));
      cms.add(hash_u64(r.first));
    }
    const double scale =
        static_cast<double>(src.rows) / static_cast<double>(sample_n);
    st.ndv = std::min(static_cast<double>(bound), hll.estimate() * scale);
    const auto threshold = static_cast<std::uint64_t>(
        opts.hot_fraction * static_cast<double>(sample_n));
    std::vector<std::uint64_t> keys;
    for (const Row& r : sample) keys.push_back(r.first);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (std::uint64_t k : keys) {
      const std::uint64_t est = cms.estimate(hash_u64(k));
      if (est >= threshold && threshold > 0) {
        st.hot.push_back(
            {k, static_cast<std::uint64_t>(static_cast<double>(est) * scale)});
      }
    }
    std::sort(st.hot.begin(), st.hot.end(), [](const HotKey& a, const HotKey& b) {
      return a.count != b.count ? a.count > b.count : a.key < b.key;
    });
    if (st.hot.size() > kMaxHotKeys) st.hot.resize(kMaxHotKeys);
  }
  st.ndv = std::min(st.ndv, static_cast<double>(bound));
  return st;
}

TEST(PlanStats, SketchEqualsPerRowReference) {
  std::vector<StatsOptions> option_grid;
  for (const std::uint64_t sample_rows : {StatsOptions{}.sample_rows,
                                          std::uint64_t{1}, std::uint64_t{5000}}) {
    // 0 is the NDV-only sketch order_star_dims runs: no count-min half.
    for (const double hot_fraction : {0.05, 0.001, 0.0}) {
      StatsOptions o;
      o.sample_rows = sample_rows;
      o.hot_fraction = hot_fraction;
      option_grid.push_back(o);
    }
  }
  std::size_t cases = 0, hot_cases = 0, with_hot = 0;
  for (const std::uint64_t domain :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{64}, std::uint64_t{4096},
        std::uint64_t{16384}, std::uint64_t{1} << 40}) {
    for (const std::uint64_t rows : {0ull, 1ull, 19ull, 20ull, 4000ull, 65536ull,
                                     100000ull}) {
      for (const std::uint64_t skew : {0ull, 300ull, 999ull}) {
        for (const bool distinct : {false, true}) {
          const LogicalPlan p = source_only(rows, domain, skew, distinct);
          for (const StatsOptions& o : option_grid) {
            const NodeStats got = collect_stats(p, o)[0];
            const NodeStats want = per_row_reference(p.nodes[0], o);
            SCOPED_TRACE(::testing::Message()
                         << "domain " << domain << " rows " << rows << " skew "
                         << skew << " distinct " << distinct << " sample_rows "
                         << o.sample_rows << " hot_fraction " << o.hot_fraction);
            EXPECT_EQ(got.rows, want.rows);
            EXPECT_EQ(got.ndv, want.ndv);
            EXPECT_EQ(got.key_bound, want.key_bound);
            EXPECT_EQ(got.hot, want.hot);
            ++cases;
            hot_cases += o.hot_fraction != 0;
            with_hot += !want.hot.empty();
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 6u * 7u * 3u * 2u * 9u);
  EXPECT_GT(with_hot, hot_cases / 4) << "the grid must exercise hot-key detection";
}

TEST(PlanStats, SketchEqualsPerRowReferenceAtDirectSlotBoundary) {
  // A source's count table has bit_ceil(2 * min(sample, key_bound)) slots.
  // Keys index it directly while key_bound fits (key_bound == size), and
  // hash into it from one key past that (size + 1). Both sides of the
  // boundary must equal the per-row reference, at several table sizes.
  struct Case {
    std::uint64_t rows, sample_rows, table_size;
  };
  std::size_t cases = 0, with_hot = 0;
  for (const Case c : {Case{1, StatsOptions{}.sample_rows, 2},
                       Case{17, StatsOptions{}.sample_rows, 64},
                       Case{20000, 5000, 16384},
                       Case{100000, StatsOptions{}.sample_rows, 131072}}) {
    for (const std::uint64_t domain : {c.table_size, c.table_size + 1}) {
      for (const std::uint64_t skew : {0ull, 300ull}) {
        for (const bool distinct : {false, true}) {
          const LogicalPlan p = source_only(c.rows, domain, skew, distinct);
          StatsOptions o;
          o.sample_rows = c.sample_rows;
          const NodeStats got = collect_stats(p, o)[0];
          const NodeStats want = per_row_reference(p.nodes[0], o);
          SCOPED_TRACE(::testing::Message() << "domain " << domain << " rows " << c.rows
                                            << " skew " << skew << " distinct "
                                            << distinct);
          EXPECT_EQ(got.rows, want.rows);
          EXPECT_EQ(got.ndv, want.ndv);
          EXPECT_EQ(got.key_bound, want.key_bound);
          EXPECT_EQ(got.hot, want.hot);
          ++cases;
          with_hot += !want.hot.empty();
        }
      }
    }
  }
  EXPECT_EQ(cases, 4u * 2u * 2u * 2u);
  EXPECT_GT(with_hot, 0u);
}

void expect_sketch_equals_reference(const LogicalPlan& p, const StatsOptions& o) {
  const NodeStats got = collect_stats(p, o)[0];
  const NodeStats want = per_row_reference(p.nodes[0], o);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.ndv, want.ndv);
  EXPECT_EQ(got.key_bound, want.key_bound);
  EXPECT_EQ(got.hot, want.hot);
}

TEST(PlanStats, SketchPrunesHotKeysRowZeroNeighbourAtALaterRow) {
  // A skewed source's hot key fills its row-0 CMS cell, so every key that
  // shares that cell clears the threshold in row 0. Only later rows show
  // that such a neighbour is not hot; the sketch must build them.
  LogicalPlan p = source_only(20000, 4096, 300);
  const PlanNode& src = p.nodes[0];
  const std::uint64_t hot = hot_key_of(src);
  const CountMinSketch cms(kCmsEpsilon, kCmsDelta);
  const std::size_t hot_cell = cms.slot(hash_u64(hot), 0);
  std::set<std::uint64_t> sampled;
  for (const Row& r : source_rows_ex(src.salt, src.rows, src.key_domain, src.skew,
                                     src.distinct_keys)) {
    sampled.insert(r.first);
  }
  std::size_t neighbours = 0;
  for (const std::uint64_t k : sampled) {
    neighbours += k != hot && cms.slot(hash_u64(k), 0) == hot_cell;
  }
  ASSERT_GT(neighbours, 0u) << "no sampled key shares the hot key's row-0 cell";
  const StatsOptions o;
  const NodeStats want = per_row_reference(src, o);
  ASSERT_EQ(want.hot.size(), 1u);
  EXPECT_EQ(want.hot[0].key, hot);
  expect_sketch_equals_reference(p, o);
}

TEST(PlanStats, SketchKeepsFalsePositivesThatClearEveryCmsRow) {
  // At a low hot fraction every cell of an unskewed source clears the
  // threshold, so keys whose true count is far below it survive every CMS
  // row. They are hot by the sketch's definition and must be listed, with
  // the minimum of their cells as the estimate.
  const LogicalPlan p = source_only(65536, 4096);
  const PlanNode& src = p.nodes[0];
  StatsOptions o;
  o.hot_fraction = 0.001;
  const auto threshold = static_cast<std::uint64_t>(
      o.hot_fraction * static_cast<double>(std::min(src.rows, o.sample_rows)));
  std::vector<std::uint64_t> freq(src.key_domain);
  for (const Row& r : source_rows_ex(src.salt, src.rows, src.key_domain, src.skew,
                                     src.distinct_keys)) {
    ++freq[r.first];
  }
  const NodeStats want = per_row_reference(src, o);
  ASSERT_EQ(want.hot.size(), kMaxHotKeys);
  for (const HotKey& h : want.hot) {
    EXPECT_LT(freq[h.key], threshold) << "key " << h.key << " is truly hot";
  }
  expect_sketch_equals_reference(p, o);
}

TEST(PlanStats, DistinctKeySketchCountsPartialCycles) {
  // A distinct-key source cycles its keys, so a sample of m*domain + r rows
  // holds the first r keys once more than the rest. Whole, partial and
  // nearly whole last cycles, and a sample cap that cuts a cycle, must all
  // equal the per-row reference, hot-key counts included.
  std::size_t cases = 0, with_hot = 0;
  for (const std::uint64_t domain : {std::uint64_t{7}, std::uint64_t{100},
                                     std::uint64_t{4096}}) {
    for (const std::uint64_t m : {std::uint64_t{1}, std::uint64_t{3}}) {
      for (const std::uint64_t r : {std::uint64_t{0}, std::uint64_t{1}, domain - 1}) {
        for (const std::uint64_t sample_rows :
             {StatsOptions{}.sample_rows, 2 * domain + domain / 2}) {
          for (const double hot_fraction : {0.05, 0.001}) {
            const LogicalPlan p = source_only(m * domain + r, domain, 0, true);
            StatsOptions o;
            o.sample_rows = sample_rows;
            o.hot_fraction = hot_fraction;
            SCOPED_TRACE(::testing::Message()
                         << "domain " << domain << " m " << m << " r " << r
                         << " sample_rows " << sample_rows << " hot_fraction "
                         << hot_fraction);
            expect_sketch_equals_reference(p, o);
            ++cases;
            with_hot += !per_row_reference(p.nodes[0], o).hot.empty();
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 3u * 2u * 3u * 2u * 2u);
  EXPECT_GT(with_hot, cases / 8) << "counts must reach the hot list";
}

// ---- cost_optimize annotations ---------------------------------------------------

TEST(PlanCost, BuildSideFlipsToSmallerInput) {
  LogicalPlan p = chain({node(OpKind::kSource),      // 0: big
                         node(OpKind::kSource),      // 1: small
                         node(OpKind::kJoin, 0, 1),  // 2
                         node(OpKind::kReduceByKey, 2)},
                        {3});
  p.nodes[0].rows = 20000;
  p.nodes[0].key_domain = 256;
  p.nodes[1].rows = 256;
  p.nodes[1].key_domain = 256;
  p.nodes[1].distinct_keys = true;
  CostReport rep;
  const LogicalPlan out = cost_optimize(p, {}, &rep);
  EXPECT_EQ(rep.joins_flipped, 1u);
  bool saw_join = false;
  for (const PlanNode& nd : out.nodes) {
    if (nd.op == OpKind::kJoin) {
      saw_join = true;
      EXPECT_FALSE(nd.build_left) << "build side must move to the small right";
    }
  }
  ASSERT_TRUE(saw_join);
  EXPECT_EQ(local_bytes(out), local_bytes(p)) << "hints must be physical-only";
}

TEST(PlanCost, SkewedProbeGetsSaltedWithItsHotKey) {
  LogicalPlan p = chain({node(OpKind::kSource),      // 0: dim (build)
                         node(OpKind::kSource),      // 1: skewed fact (probe)
                         node(OpKind::kJoin, 0, 1),  // 2
                         node(OpKind::kReduceByKey, 2)},
                        {3});
  p.nodes[0].rows = 512;
  p.nodes[0].key_domain = 512;
  p.nodes[0].distinct_keys = true;
  p.nodes[1].rows = 30000;
  p.nodes[1].key_domain = 512;
  p.nodes[1].skew = 300;
  CostReport rep;
  const LogicalPlan out = cost_optimize(p, {}, &rep);
  EXPECT_EQ(rep.joins_salted, 1u);
  for (const PlanNode& nd : out.nodes) {
    if (nd.op != OpKind::kJoin) continue;
    EXPECT_GE(nd.salt_fanout, 2u);
    EXPECT_LE(nd.salt_fanout, 8u);
    ASSERT_FALSE(nd.hot_keys.empty());
    EXPECT_TRUE(std::count(nd.hot_keys.begin(), nd.hot_keys.end(),
                           hot_key_of(p.nodes[1])) > 0);
  }
  EXPECT_EQ(local_bytes(out), local_bytes(p));
}

TEST(PlanCost, UniformJoinIsNotSalted) {
  LogicalPlan p = chain({node(OpKind::kSource), node(OpKind::kSource),
                         node(OpKind::kJoin, 0, 1)},
                        {2});
  p.nodes[0].rows = 4000;
  p.nodes[0].key_domain = 256;
  p.nodes[1].rows = 4000;
  p.nodes[1].key_domain = 256;
  CostReport rep;
  cost_optimize(p, {}, &rep);
  EXPECT_EQ(rep.joins_salted, 0u);
}

TEST(PlanCost, FusedFiltersReorderMostSelectiveFirst) {
  // Two commuting key-filters with measurably different pass rates (over a
  // 16-key domain the per-salt rate is a multiple of 1/16, so salts with a
  // wide selectivity gap exist); after the rule passes fuse them, the cost
  // pass must put the stingier one first.
  LogicalPlan p = chain({node(OpKind::kSource), node(OpKind::kFilterKey, 0),
                         node(OpKind::kFilterKey, 1)},
                        {2});
  p.nodes[0].rows = 4096;
  p.nodes[0].key_domain = 16;
  const auto pass_rate = [](std::uint64_t salt) {
    std::size_t kept = 0;
    for (std::uint64_t k = 0; k < 16; ++k) kept += filter_key_keep({k, 0}, salt);
    return static_cast<double>(kept) / 16.0;
  };
  std::uint64_t loose = 0, tight = 0;
  for (std::uint64_t s = 1; s < 256 && (loose == 0 || tight == 0); ++s) {
    const double rate = pass_rate(s);
    if (rate > 0.65 && loose == 0) loose = s;
    if (rate < 0.4 && rate > 0.05 && tight == 0) tight = s;
  }
  ASSERT_NE(loose, 0u);
  ASSERT_NE(tight, 0u);
  p.nodes[1].salt = loose;  // as written: loose filter first
  p.nodes[2].salt = tight;
  CostReport rep;
  const LogicalPlan out = cost_optimize(p, {}, &rep);
  EXPECT_GE(rep.filters_reordered, 1u);
  bool saw_fused = false;
  for (const PlanNode& nd : out.nodes) {
    if (nd.op != OpKind::kFused) continue;
    saw_fused = true;
    std::vector<std::uint64_t> filter_salts;
    for (const NarrowStep& s : nd.steps) {
      if (s.op == OpKind::kFilterKey) filter_salts.push_back(s.salt);
    }
    ASSERT_EQ(filter_salts.size(), 2u);
    EXPECT_EQ(filter_salts[0], tight) << "most selective filter must run first";
    EXPECT_EQ(filter_salts[1], loose);
  }
  ASSERT_TRUE(saw_fused);
  EXPECT_EQ(local_bytes(out), local_bytes(p));
}

TEST(PlanCost, CostOptimizedPlansCarryTheStatsSalt) {
  const LogicalPlan raw = source_only(1000, 128);
  EXPECT_EQ(optimize(raw).stats_salt, 0u);
  EXPECT_EQ(cost_optimize(raw).stats_salt, StatsOptions{}.stats_salt);
}

// ---- BigBench join ordering ------------------------------------------------------

TEST(BigBench, OrderStarDimsPicksSmallestIntermediatesFirst) {
  const StarSpec spec = sales_star(1);
  const auto order = order_star_dims(spec);
  ASSERT_EQ(order.size(), spec.dims.size());
  std::set<std::size_t> uniq(order.begin(), order.end());
  EXPECT_EQ(uniq.size(), spec.dims.size()) << "must be a permutation";
  // sales_star declares its dims widest-first, and its filtered narrow dim
  // shrinks the fact pipeline the most — a cost-based order must not keep
  // the naive widest-first sequence.
  EXPECT_NE(order, naive_order(spec));
  EXPECT_EQ(order.front(), spec.dims.size() - 1)
      << "the filtered narrowest dim joins first";
}

/// order_star_dims' greedy smallest-intermediate order, recomputed from full
/// collect_stats (count-min half included) over the star plan itself: node 0
/// is the fact, and the left input of the i-th join in the declared order is
/// dimension i's source, key-filtered when the dimension is.
std::vector<std::size_t> greedy_order_from_full_stats(const StarSpec& spec,
                                                      const StatsOptions& o) {
  const LogicalPlan q = star_query(spec, naive_order(spec));
  const std::vector<NodeStats> stats = collect_stats(q, o);
  std::vector<NodeStats> dims;
  for (const PlanNode& nd : q.nodes) {
    if (nd.op == OpKind::kJoin) dims.push_back(stats[nd.left]);
  }
  NodeStats cur = stats[0];
  std::vector<std::size_t> remaining = naive_order(spec), order;
  while (!remaining.empty()) {
    std::size_t best = 0;
    double best_rows = -1;
    for (std::size_t c = 0; c < remaining.size(); ++c) {
      const NodeStats& d = dims[remaining[c]];
      const double est = cur.rows * d.rows / std::max({cur.ndv, d.ndv, 1.0});
      if (best_rows < 0 || est < best_rows) {
        best_rows = est;
        best = c;
      }
    }
    const NodeStats& d = dims[remaining[best]];
    order.push_back(remaining[best]);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));
    cur.rows = best_rows;
    cur.ndv = std::min({cur.ndv, d.ndv, cur.rows});
  }
  return order;
}

TEST(BigBench, OrderStarDimsEqualsFullSketchOrder) {
  // order_star_dims sketches the fact and the unfiltered dimensions without
  // the count-min half. Its order must equal the greedy order over full
  // sketches on seeded random stars: dimensions with rows below, at and
  // above their domain (a small domain cycled several times has hot keys,
  // which a key filter evaluates exactly), skewed facts, a 2^40 fact domain
  // (the hashed front end) and sample caps below the row counts.
  Rng rng(0x0bde5eedULL);
  const std::uint64_t fact_domains[] = {64, 512, 4096, 16384, std::uint64_t{1} << 40};
  const std::uint64_t fact_skews[] = {0, 0, 300, 800};
  const std::uint64_t fact_rows[] = {500, 6000, 20000, 70000};
  const std::uint64_t dim_domains[] = {4, 8, 16, 64, 256, 2048};
  const std::uint64_t sample_caps[] = {StatsOptions{}.sample_rows, 5000, 777};
  constexpr std::size_t kSpecs = 240;
  std::size_t hashed = 0, skewed = 0, capped = 0, filtered_hot = 0, hot_decides = 0;
  for (std::size_t n = 0; n < kSpecs; ++n) {
    StarSpec spec;
    spec.fact_salt = rng();
    spec.fact_rows = fact_rows[rng.next_below(std::size(fact_rows))];
    spec.fact_domain = fact_domains[rng.next_below(std::size(fact_domains))];
    spec.fact_skew = fact_skews[rng.next_below(std::size(fact_skews))];
    const std::size_t ndims = 1 + rng.next_below(4);
    for (std::size_t d = 0; d < ndims; ++d) {
      DimSpec dim;
      dim.salt = rng();
      dim.domain = dim_domains[rng.next_below(std::size(dim_domains))];
      dim.rows = dim.domain / 2 + rng.next_below(8 * dim.domain);
      dim.filter = rng.next_below(2) == 0;
      spec.dims.push_back(dim);
    }
    StatsOptions o;
    o.sample_rows = sample_caps[rng.next_below(std::size(sample_caps))];
    SCOPED_TRACE(::testing::Message() << "spec " << n);
    const std::vector<std::size_t> want = greedy_order_from_full_stats(spec, o);
    EXPECT_EQ(order_star_dims(spec, o), want);

    hashed += spec.fact_domain > (std::uint64_t{1} << 20);
    skewed += spec.fact_skew != 0;
    bool capped_any = spec.fact_rows > o.sample_rows;
    bool hot_any = false;
    for (const DimSpec& d : spec.dims) {
      capped_any |= d.rows > o.sample_rows;
      LogicalPlan dp = source_only(d.rows, d.domain, 0, true);
      hot_any |= d.filter && !collect_stats(dp, o)[0].hot.empty();
    }
    capped += capped_any;
    filtered_hot += hot_any;
    // Specs whose order changes when no dimension's filter sees hot keys:
    // these are the ones an NDV-only sketch of a filtered dimension breaks.
    StatsOptions no_hot = o;
    no_hot.hot_fraction = 0;
    hot_decides += greedy_order_from_full_stats(spec, no_hot) != want;
  }
  EXPECT_GT(hashed, kSpecs / 10);
  EXPECT_GT(skewed, kSpecs / 4);
  EXPECT_GT(capped, kSpecs / 4);
  EXPECT_GT(filtered_hot, kSpecs / 4);
  EXPECT_GT(hot_decides, 0u) << "no spec's order depends on a filtered dimension's hot keys";
}

// Star specs shaped like the repository benchmark's: the canonical sales and
// clickstream stars, plus fact-salted 60k-row variants (every other one
// without the final group-by).
std::vector<StarSpec> pinned_star_specs() {
  StarSpec sales = sales_star(1);
  sales.fact_rows = 60000;
  sales.fact_salt ^= 0x9e3779b97f4a7c15ULL;
  sales.final_reduce = false;
  StarSpec clicks = clickstream_star(1);
  clicks.fact_rows = 60000;
  clicks.fact_salt ^= 0xc2b2ae3d27d4eb4fULL;
  return {sales_star(1), clickstream_star(1), sales, clicks};
}

TEST(CostOptimize, StarPlansPinnedToParent) {
  // Join order, build sides, salt fanouts and hot keys of the cost-optimized
  // star plans, captured before sources were sketched once per distinct key.
  // describe() renders order, build sides and fanouts; fingerprint() also
  // folds in the hot keys and the stats salt. A sketch change that moves any
  // of them fails here.
  const std::vector<std::string> want_describe = {
      "0:source{d16384} 1:fused[source+filter_key]{d512,dk} 2:join(1,0) "
      "3:source{d8192,dk} 4:join(3,2)+br 5:source{d2048,dk} 6:join(5,4)+br "
      "7:fused[map_values+map_values](6)+combine 8:reduce_by_key(7)",
      "0:source{d4096,sk300} 1:source{d256,dk} 2:join(1,0)+salt5 "
      "3:source{d4096,dk} 4:join(3,2)+salt8 5:map_values(4)+combine "
      "6:reduce_by_key(5)",
      "0:source{d16384} 1:fused[source+filter_key]{d512,dk} 2:join(1,0) "
      "3:source{d8192,dk} 4:join(3,2)+br 5:source{d2048,dk} 6:join(5,4)+br "
      "7:fused[map_values+map_values](6)",
      "0:source{d4096,sk300} 1:source{d256,dk} 2:join(1,0)+salt5 "
      "3:source{d4096,dk} 4:join(3,2)+br 5:map_values(4)+combine "
      "6:reduce_by_key(5)",
  };
  const std::vector<std::uint64_t> want_fingerprint = {
      0x187ba16a07510150ULL, 0xc43cdc9aec2177e5ULL, 0x55c4143197d67739ULL,
      0x5d11fd93d2b36ecULL};
  const std::vector<StarSpec> specs = pinned_star_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const LogicalPlan costed =
        cost_optimize(star_query(specs[i], order_star_dims(specs[i])));
    EXPECT_EQ(costed.describe(), want_describe[i]) << "spec " << i;
    EXPECT_EQ(fingerprint(costed), want_fingerprint[i])
        << "spec " << i << " fingerprint 0x" << std::hex << fingerprint(costed);
  }
}

/// The actual row count of every node of `p`: node i is the one sink of p's
/// first i + 1 nodes (parents precede children), run through the reference
/// engine. A sink's map-side combine is dropped: it is a physical hint for
/// the reduce downstream, and the estimate is of the rows before it.
std::vector<std::uint64_t> actual_rows(const LogicalPlan& p) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    LogicalPlan prefix = p;
    prefix.nodes.resize(i + 1);
    prefix.nodes[i].combine_output = false;
    prefix.sinks = {i};
    dataflow::Context ctx(pool());
    out.push_back(lower_local(prefix, ctx).size());
  }
  return out;
}

TEST(CostOptimize, StarRowEstimatesWithinQErrorTwoOfActual) {
  // The cost pass's row estimate of every node of a costed star plan
  // against the rows that node actually produces, at benchmark-like fact
  // sizes and several fact salts. The q-error max(est/act, act/est) stays
  // at most 2 at every node, and every join builds on the side that is
  // actually smaller (either side on a tie).
  //
  // One gap is known, and pinned here rather than bounded: the join
  // estimate l.rows * r.rows / max(ndv) spreads a skewed fact's hot key
  // like any other key. When every dimension holds the hot key, its rows
  // (skew permille of the fact) survive every join, so from the first join
  // on the estimate is ~5.5x low, and a later join may build on its larger
  // side. For such a query the test asserts that the first join's q-error
  // is above 2, and bounds only the nodes before it; a fix of the estimate
  // fails here, and this branch goes with it.
  double worst = 1;
  std::size_t queries = 0, gaps = 0;
  for (const StarSpec& base : {sales_star(1), clickstream_star(1)}) {
    for (const std::uint64_t rows : {60000ull, 100000ull}) {
      for (const std::uint64_t salt : {0ull, 0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL}) {
        StarSpec spec = base;
        spec.fact_rows = rows;
        spec.fact_salt ^= salt;
        const std::uint64_t hot = mix64(spec.fact_salt ^ 0x5ca1ab1eULL) % spec.fact_domain;
        const bool gap = spec.fact_skew != 0 &&
                         std::all_of(spec.dims.begin(), spec.dims.end(), [&](const DimSpec& d) {
                           return !d.filter && hot < d.domain;
                         });
        CostReport report;
        const LogicalPlan costed =
            cost_optimize(star_query(spec, order_star_dims(spec)), {}, &report);
        const std::vector<std::uint64_t> actual = actual_rows(costed);
        ASSERT_EQ(report.stats.size(), costed.nodes.size());
        ++queries;
        gaps += gap;
        bool joined = false;
        for (std::size_t i = 0; i < costed.nodes.size(); ++i) {
          const PlanNode& nd = costed.nodes[i];
          const double est = std::max(report.stats[i].rows, 1.0);
          const double act = std::max(static_cast<double>(actual[i]), 1.0);
          const double q = std::max(est / act, act / est);
          const std::string where = "fact " + std::to_string(spec.fact_salt) + " rows " +
                                    std::to_string(rows) + " node " + std::to_string(i) +
                                    " of " + costed.describe() + ": estimated " +
                                    std::to_string(report.stats[i].rows) + ", actual " +
                                    std::to_string(actual[i]);
          if (gap && joined) continue;
          if (gap && nd.op == OpKind::kJoin) {
            EXPECT_GT(q, 2.0) << where;
            joined = true;
            continue;
          }
          worst = std::max(worst, q);
          EXPECT_LE(q, 2.0) << where;
          if (nd.op == OpKind::kJoin && actual[nd.left] != actual[nd.right]) {
            EXPECT_EQ(nd.build_left, actual[nd.left] < actual[nd.right])
                << where << "; left " << actual[nd.left] << ", right " << actual[nd.right];
          }
        }
      }
    }
  }
  EXPECT_EQ(queries, 12u);
  EXPECT_EQ(gaps, 2u);  // the clickstream stars at the second salt
  RecordProperty("qerror_max", std::to_string(worst));
}

TEST(BigBench, StarQueryOrdersAgreePerOrderAcrossBackends) {
  StarSpec spec = clickstream_star(1);
  spec.fact_rows = 6000;  // keep the test-sized query quick
  for (const auto& order : {naive_order(spec), order_star_dims(spec)}) {
    const LogicalPlan q = star_query(spec, order);
    const Bytes ref = local_bytes(q);
    EXPECT_EQ(canonical_bytes(lower_columnar(q, pool())), ref);
    EXPECT_EQ(canonical_bytes(lower_columnar(cost_optimize(q), pool())), ref);
  }
}

// ---- fingerprint: the serve-cache non-aliasing guarantees (satellite) ------------

TEST(PlanFingerprint, DefaultedShapeAndCostFieldsKeepHistoricalValue) {
  // Two structurally identical plans built independently, all new fields at
  // their defaults: the fingerprint must not see the new machinery at all.
  const LogicalPlan a = chain({node(OpKind::kSource), node(OpKind::kMap, 0)}, {1});
  const LogicalPlan b = chain({node(OpKind::kSource), node(OpKind::kMap, 0)}, {1});
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(PlanFingerprint, EveryCostParameterChangesTheFingerprint) {
  const LogicalPlan base = chain({node(OpKind::kSource), node(OpKind::kSource),
                                  node(OpKind::kJoin, 0, 1)},
                                 {2});
  const std::uint64_t fp = fingerprint(base);
  std::set<std::uint64_t> fps{fp};

  LogicalPlan m = base;
  m.stats_salt = 0x57a75;
  fps.insert(fingerprint(m));

  m = base;
  m.nodes[2].build_left = false;
  fps.insert(fingerprint(m));

  m = base;
  m.nodes[2].salt_fanout = 4;
  fps.insert(fingerprint(m));

  m = base;
  m.nodes[2].salt_fanout = 4;
  m.nodes[2].hot_keys = {17};
  fps.insert(fingerprint(m));

  m = base;
  m.nodes[0].key_domain = 128;
  fps.insert(fingerprint(m));

  m = base;
  m.nodes[0].key_domain = 128;
  m.nodes[0].skew = 300;
  fps.insert(fingerprint(m));

  m = base;
  m.nodes[0].key_domain = 128;
  m.nodes[0].distinct_keys = true;
  fps.insert(fingerprint(m));

  EXPECT_EQ(fps.size(), 8u)
      << "each cost/shape parameter must produce a distinct fingerprint";
}

TEST(PlanFingerprint, CostOptimizedNeverAliasesRuleOptimized) {
  // The exact regression the serve result cache needs: one submitted plan,
  // optimized two ways, must occupy two cache entries.
  const StarSpec spec = clickstream_star(1);
  const LogicalPlan q = star_query(spec, naive_order(spec));
  EXPECT_NE(fingerprint(optimize(q)), fingerprint(cost_optimize(q)));
}

}  // namespace
}  // namespace hpbdc::plan
