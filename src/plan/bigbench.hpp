#pragma once
// BigBench-flavored analytic workload family over the plan IR: generated
// sales/clickstream fact tables with skew, star-schema joins against
// distinct-key dimension tables, UDF-ish map stages, and a final grouped
// aggregate. The join ORDER is decided here, at plan construction — the
// IR's join value composition (join_rows) is order-sensitive, so reordering
// is not a legal plan rewrite; instead order_star_dims() runs the stats
// layer over the candidate inputs and greedily picks the
// smallest-intermediate order, and every backend then executes that one
// plan identically (which keeps the cross-backend differential oracle
// exact). bench_f16_columnar drives these queries raw, rule-optimized, and
// columnar + cost-based.

#include <cstdint>
#include <vector>

#include "plan/plan.hpp"
#include "plan/stats.hpp"

namespace hpbdc::plan {

/// One dimension table of a star schema: distinct keys 0..domain-1.
struct DimSpec {
  std::uint64_t salt = 0;
  std::uint64_t rows = 0;
  std::uint64_t domain = 0;
  /// Apply a kFilterKey (salt ^ 0xf117) to the dimension before the join —
  /// halves its keys, which halves the join output.
  bool filter = false;
};

struct StarSpec {
  std::uint64_t fact_salt = 1;
  std::uint64_t fact_rows = 0;
  std::uint64_t fact_domain = 0;
  std::uint64_t fact_skew = 0;  ///< permille of fact rows on one hot key
  std::vector<DimSpec> dims;
  std::size_t udf_stages = 2;      ///< kMapValues chain after the joins
  std::uint64_t udf_salt = 0xbbu;  ///< first UDF stage salt (then +1 each)
  bool final_reduce = true;        ///< group-by-key aggregate at the end
};

/// Build the star query joining dimensions in `dim_order` (indices into
/// spec.dims). Dimensions sit on the LEFT (hash-join build) side of each
/// join, the fact pipeline on the RIGHT (probe) side.
LogicalPlan star_query(const StarSpec& spec,
                       const std::vector<std::size_t>& dim_order);

/// Dimensions in declaration order — the "as written" baseline.
std::vector<std::size_t> naive_order(const StarSpec& spec);

/// Cost-based join order: sketch the fact and each (filtered) dimension
/// with collect_stats' source estimators, then greedily append the
/// dimension minimizing the estimated next-join output. Most-selective
/// joins run first, so every later join probes fewer rows. The order equals
/// the one full sketches give, but only filtered dimensions, whose row
/// estimate reads hot keys, run the count-min half.
std::vector<std::size_t> order_star_dims(const StarSpec& spec,
                                         const StatsOptions& opts = {});

/// Canonical specs used by bench_f16_columnar and tests. `scale` multiplies
/// the fact row count (scale 1 ≈ 100k fact rows).
StarSpec sales_star(std::uint64_t scale);
/// Clickstream: skewed fact (a hot page carries ~30% of clicks) joined
/// against a pages dimension — the shape whose salted join the cost model
/// exists for.
StarSpec clickstream_star(std::uint64_t scale);

}  // namespace hpbdc::plan
