#include <algorithm>

#include "common/hash.hpp"
#include "dataflow/vectorized.hpp"
#include "plan/lower.hpp"

namespace hpbdc::plan {

namespace {

using dataflow::columnar::RowBlock;

/// One narrow step as a tight columnar loop over the whole block. Each step
/// is per-row, so running steps as successive block passes equals the
/// row-at-a-time pipeline on the same multiset.
RowBlock apply_step_block(Executor& ex, RowBlock b, const NarrowStep& st) {
  const std::uint64_t salt = st.salt;
  switch (st.op) {
    case OpKind::kMap:
      dataflow::columnar::transform_block(
          ex, b, [salt](std::uint64_t& k, std::uint64_t& v) {
            const Row r = map_row({k, v}, salt);
            k = r.first;
            v = r.second;
          });
      return b;
    case OpKind::kMapValues:
      dataflow::columnar::transform_block(
          ex, b, [salt](std::uint64_t& k, std::uint64_t& v) {
            v = map_value_row({k, v}, salt).second;
          });
      return b;
    case OpKind::kFilter:
      dataflow::columnar::filter_block(
          ex, b, [salt](std::uint64_t k, std::uint64_t v) {
            return filter_keep({k, v}, salt);
          });
      return b;
    case OpKind::kFilterKey:
      dataflow::columnar::filter_block(
          ex, b, [salt](std::uint64_t k, std::uint64_t) {
            return filter_key_keep({k, 0}, salt);
          });
      return b;
    case OpKind::kFlatMap:
      return dataflow::columnar::expand_block(
          ex, b,
          [salt, rows = std::vector<Row>{}](std::uint64_t k, std::uint64_t v,
                                            RowBlock& out) mutable {
            rows.clear();
            flat_map_row({k, v}, salt, rows);
            for (const Row& r : rows) out.push(r.first, r.second);
          });
    default:
      return b;  // source heads are materialized by the caller
  }
}

/// A source's rows appended batch by batch from the generator to a block.
template <typename Shape>
RowBlock source_block(const Shape& src) {
  RowBlock b;
  b.reserve(src.rows);
  SourceGen(src).for_each_batch(
      0, 1, src.rows, true,
      [&b](const std::uint64_t* keys, const std::uint64_t* vals, std::size_t m) {
        b.key.insert(b.key.end(), keys, keys + m);
        b.val.insert(b.val.end(), vals, vals + m);
      });
  return b;
}

RowBlock reduce_block(Executor& ex, const RowBlock& b, std::uint64_t bound) {
  auto combine = [](std::uint64_t a, std::uint64_t c) {
    return reduce_combine(a, c);
  };
  if (bound <= kDenseReduceMaxDomain) {
    return dataflow::columnar::dense_reduce_by_key(ex, b, bound, combine);
  }
  return dataflow::columnar::sorted_reduce_by_key(ex, b, combine);
}

}  // namespace

std::vector<Row> lower_columnar(const LogicalPlan& plan, Executor& ex) {
  const std::vector<std::uint64_t> bounds = key_upper_bounds(plan);
  std::vector<RowBlock> built(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& nd = plan.nodes[i];
    switch (nd.op) {
      case OpKind::kSource:
        built[i] = source_block(nd);
        break;
      case OpKind::kMap:
      case OpKind::kMapValues:
      case OpKind::kFilter:
      case OpKind::kFilterKey:
      case OpKind::kFlatMap:
        built[i] = apply_step_block(ex, built[nd.left],
                                    NarrowStep{nd.op, nd.salt, 0});
        break;
      case OpKind::kFused: {
        RowBlock b;
        std::size_t first = 0;
        if (nd.steps.front().op == OpKind::kSource) {
          b = source_block(nd.steps.front());
          first = 1;
        } else {
          b = built[nd.left];
        }
        for (std::size_t s = first; s < nd.steps.size(); ++s) {
          b = apply_step_block(ex, std::move(b), nd.steps[s]);
        }
        built[i] = std::move(b);
        break;
      }
      case OpKind::kReduceByKey:
        built[i] = reduce_block(ex, built[nd.left], bounds[nd.left]);
        break;
      case OpKind::kJoin: {
        // build_left is the cost model's hint; output values are oriented
        // (left, right) regardless, so both build sides emit the same
        // multiset. The join's key bound keys the table by key itself when
        // it is small enough for the dense reduce. salt_fanout is a dist
        // hint: probe row chunks are never skewed by hot keys.
        const RowBlock& l = built[nd.left];
        const RowBlock& r = built[nd.right];
        const std::uint64_t dense_bound =
            bounds[i] <= kDenseReduceMaxDomain ? bounds[i] : 0;
        if (nd.build_left) {
          built[i] = dataflow::columnar::hash_join(
              ex, l, r, dense_bound,
              [](std::uint64_t k, std::uint64_t bv, std::uint64_t pv) {
                return join_rows(k, bv, pv);
              });
        } else {
          built[i] = dataflow::columnar::hash_join(
              ex, r, l, dense_bound,
              [](std::uint64_t k, std::uint64_t bv, std::uint64_t pv) {
                return join_rows(k, pv, bv);
              });
        }
        break;
      }
      case OpKind::kSortBy: {
        const std::uint64_t salt = nd.salt;
        auto rows = dataflow::columnar::to_rows(built[nd.left]);
        parallel_sort(ex, rows.begin(), rows.end(),
                      [salt](const Row& a, const Row& b) {
                        const auto ka = sort_key(a, salt), kb = sort_key(b, salt);
                        return ka != kb ? ka < kb : a < b;
                      });
        built[i] = dataflow::columnar::from_rows(rows);
        break;
      }
      case OpKind::kDistinct: {
        auto rows = dataflow::columnar::to_rows(built[nd.left]);
        parallel_sort(ex, rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        built[i] = dataflow::columnar::from_rows(rows);
        break;
      }
    }
    // combine_output is deliberately a no-op here: the optimizer only sets
    // it when the node's sole consumer is a kReduceByKey (and the node is
    // not a sink), and the downstream reduce collapses each key completely
    // — pre-combining changes per-key row counts mid-plan but never the
    // sink multiset. The columnar reduce is already one pass, so the
    // map-side combine would be pure overhead.
  }
  RowBlock out;
  for (std::size_t s : plan.sinks) {
    dataflow::columnar::append(out, built[s]);
  }
  return dataflow::columnar::to_rows(out);
}

}  // namespace hpbdc::plan
