#include "chaos/plan_gen.hpp"

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace hpbdc::chaos {

LogicalPlan make_plan(std::uint64_t seed, std::size_t nnodes,
                      std::uint64_t rows_per_source) {
  LogicalPlan plan;
  plan.seed = seed;
  plan.rows_per_source = rows_per_source;
  if (nnodes == 0) nnodes = 1;
  for (std::size_t i = 0; i < nnodes; ++i) {
    // Fixed draw order (salt, op, parents, checkpoint, variant) from a
    // per-node rng: node i never depends on nnodes, which is what makes
    // plans prefix-stable.
    Rng rng(mix_seed(seed, i + 1));
    PlanNode nd;
    nd.salt = rng();
    if (i == 0) {
      nd.op = OpKind::kSource;
      nd.rows = rows_per_source;
    } else {
      const auto roll = rng.next_below(100);
      if (roll < 12) {
        nd.op = OpKind::kSource;
        nd.rows = rows_per_source;
      } else if (roll < 28) {
        nd.op = OpKind::kMap;
      } else if (roll < 40) {
        nd.op = OpKind::kFilter;
      } else if (roll < 52) {
        nd.op = OpKind::kFlatMap;
      } else if (roll < 68) {
        nd.op = OpKind::kReduceByKey;
      } else if (roll < 82) {
        nd.op = i >= 2 ? OpKind::kJoin : OpKind::kMap;
      } else if (roll < 91) {
        nd.op = OpKind::kSortBy;
      } else {
        nd.op = OpKind::kDistinct;
      }
      if (nd.op != OpKind::kSource) {
        nd.left = rng.next_below(i);
        if (nd.op == OpKind::kJoin) nd.right = rng.next_below(i);
      }
    }
    nd.checkpoint = rng.next_bool(0.25);
    // Trailing variant draw (added with the optimizer): half the maps become
    // key-preserving and half the filters key-only, so the pushdown rule has
    // commuting pairs to find. A trailing draw keeps every earlier draw —
    // and thus the DAG shape — bit-identical, preserving prefix stability.
    const bool variant = rng.next_bool(0.5);
    if (variant && nd.op == OpKind::kMap) nd.op = OpKind::kMapValues;
    if (variant && nd.op == OpKind::kFilter) nd.op = OpKind::kFilterKey;
    plan.nodes.push_back(nd);
  }
  std::vector<bool> consumed(plan.nodes.size(), false);
  for (const PlanNode& nd : plan.nodes) {
    if (nd.left != PlanNode::kNoParent) consumed[nd.left] = true;
    if (nd.right != PlanNode::kNoParent) consumed[nd.right] = true;
  }
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    if (!consumed[i]) plan.sinks.push_back(i);
  }
  return plan;
}

}  // namespace hpbdc::chaos
