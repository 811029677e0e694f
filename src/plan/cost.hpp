#pragma once
// Statistics-driven cost pass on top of the rule optimizer. cost_optimize
// runs the rule passes, reorders commuting filter runs inside fused chains
// by measured selectivity (most-selective-first), runs the rules again, and
// then annotates every join with physical hints from collect_stats():
//
//   build_left   — hash-join build side = the smaller estimated input
//   salt_fanout  — skew-salting fanout when the probe side's CMS-detected
//                  hot keys carry a meaningful fraction of its rows
//   hot_keys     — the hot keys themselves, for the salted partitioners
//
// Every hint is PHYSICAL: row multisets are identical with or without it,
// which is what lets the chaos differential oracle check cost-optimized
// plans against the raw reference for free. Logical join REORDERING is
// deliberately absent: join_rows() value composition is order-sensitive, so
// join order is chosen at plan construction time (see plan/bigbench.hpp's
// order_star_dims) where all backends still execute the identical plan.

#include <cstdint>
#include <vector>

#include "plan/plan.hpp"
#include "plan/stats.hpp"

namespace hpbdc::plan {

struct CostReport {
  std::size_t joins_flipped = 0;      ///< joins switched to build-right
  std::size_t joins_salted = 0;       ///< joins given a skew-salt fanout
  std::size_t filters_reordered = 0;  ///< fused filter runs permuted
  std::vector<NodeStats> stats;       ///< final per-node estimates
};

/// Rule passes → selectivity-ordered filters → rule passes → join
/// annotation. The result carries opts.stats_salt as its
/// LogicalPlan::stats_salt, so its fingerprint never aliases the merely
/// rule-optimized plan in the serve result cache.
LogicalPlan cost_optimize(const LogicalPlan& in, const StatsOptions& opts = {},
                          CostReport* report = nullptr);

}  // namespace hpbdc::plan
