#include "plan/bigbench.hpp"

#include <algorithm>
#include <numeric>

namespace hpbdc::plan {

namespace {

/// The kFilterKey salt a filtered dimension runs with.
std::uint64_t dim_filter_salt(const DimSpec& d) { return d.salt ^ 0xf117ULL; }

/// Stats for one dimension's join input (source, optionally key-filtered),
/// computed on a two-node throwaway plan through the real stats layer.
NodeStats dim_stats(const DimSpec& d, const StatsOptions& opts) {
  LogicalPlan p;
  PlanNode src;
  src.op = OpKind::kSource;
  src.salt = d.salt;
  src.rows = d.rows;
  src.key_domain = d.domain;
  src.distinct_keys = true;
  p.nodes.push_back(src);
  if (d.filter) {
    PlanNode f;
    f.op = OpKind::kFilterKey;
    f.left = 0;
    f.salt = dim_filter_salt(d);
    p.nodes.push_back(f);
  }
  p.sinks = {p.nodes.size() - 1};
  return collect_stats(p, opts).back();
}

}  // namespace

LogicalPlan star_query(const StarSpec& spec,
                       const std::vector<std::size_t>& dim_order) {
  LogicalPlan plan;
  plan.seed = spec.fact_salt;
  plan.rows_per_source = spec.fact_rows;
  PlanNode fact;
  fact.op = OpKind::kSource;
  fact.salt = spec.fact_salt;
  fact.rows = spec.fact_rows;
  fact.key_domain = spec.fact_domain;
  fact.skew = spec.fact_skew;
  plan.nodes.push_back(fact);
  std::size_t cur = 0;
  for (std::size_t di : dim_order) {
    const DimSpec& d = spec.dims[di];
    PlanNode src;
    src.op = OpKind::kSource;
    src.salt = d.salt;
    src.rows = d.rows;
    src.key_domain = d.domain;
    src.distinct_keys = true;
    plan.nodes.push_back(src);
    std::size_t dim_node = plan.nodes.size() - 1;
    if (d.filter) {
      PlanNode f;
      f.op = OpKind::kFilterKey;
      f.left = dim_node;
      f.salt = dim_filter_salt(d);
      plan.nodes.push_back(f);
      dim_node = plan.nodes.size() - 1;
    }
    PlanNode j;
    j.op = OpKind::kJoin;
    j.left = dim_node;  // dim = build side
    j.right = cur;      // fact pipeline = probe side
    plan.nodes.push_back(j);
    cur = plan.nodes.size() - 1;
  }
  for (std::size_t u = 0; u < spec.udf_stages; ++u) {
    PlanNode m;
    m.op = OpKind::kMapValues;
    m.left = cur;
    m.salt = spec.udf_salt + u;
    plan.nodes.push_back(m);
    cur = plan.nodes.size() - 1;
  }
  if (spec.final_reduce) {
    PlanNode r;
    r.op = OpKind::kReduceByKey;
    r.left = cur;
    plan.nodes.push_back(r);
    cur = plan.nodes.size() - 1;
  }
  plan.sinks = {cur};
  return plan;
}

std::vector<std::size_t> naive_order(const StarSpec& spec) {
  std::vector<std::size_t> order(spec.dims.size());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

std::vector<std::size_t> order_star_dims(const StarSpec& spec,
                                         const StatsOptions& opts) {
  // Sketch the fact source once, each dimension chain once. The greedy
  // order reads only rows and NDV, and a source's rows and NDV do not
  // depend on its hot keys, so the fact and every unfiltered dimension skip
  // the count-min half. A kFilterKey row estimate does depend on them, so a
  // filtered dimension keeps the full sketch.
  StatsOptions ndv_only = opts;
  ndv_only.hot_fraction = 0;
  LogicalPlan fp;
  PlanNode fact;
  fact.op = OpKind::kSource;
  fact.salt = spec.fact_salt;
  fact.rows = spec.fact_rows;
  fact.key_domain = spec.fact_domain;
  fact.skew = spec.fact_skew;
  fp.nodes.push_back(fact);
  fp.sinks = {0};
  NodeStats cur = collect_stats(fp, ndv_only).back();

  std::vector<NodeStats> ds;
  ds.reserve(spec.dims.size());
  for (const DimSpec& d : spec.dims) {
    ds.push_back(dim_stats(d, d.filter ? opts : ndv_only));
  }

  std::vector<std::size_t> remaining(spec.dims.size());
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<std::size_t> order;
  order.reserve(spec.dims.size());
  while (!remaining.empty()) {
    std::size_t best = 0;
    double best_rows = -1;
    for (std::size_t c = 0; c < remaining.size(); ++c) {
      const NodeStats& d = ds[remaining[c]];
      const double est =
          cur.rows * d.rows / std::max({cur.ndv, d.ndv, 1.0});
      if (best_rows < 0 || est < best_rows) {
        best_rows = est;
        best = c;
      }
    }
    const NodeStats& d = ds[remaining[best]];
    order.push_back(remaining[best]);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));
    cur.rows = best_rows;
    cur.ndv = std::min({cur.ndv, d.ndv, cur.rows});
  }
  return order;
}

StarSpec sales_star(std::uint64_t scale) {
  StarSpec s;
  s.fact_salt = 0x5a1e5ULL;
  s.fact_rows = 100'000 * scale;
  s.fact_domain = 16384;
  // Declared widest-first, so the naive order joins the least selective
  // dimension into the full fact table first — the cost order reverses it.
  s.dims = {
      {/*salt=*/0xd1ULL, /*rows=*/8192, /*domain=*/8192, /*filter=*/false},
      {/*salt=*/0xd2ULL, /*rows=*/2048, /*domain=*/2048, /*filter=*/false},
      {/*salt=*/0xd3ULL, /*rows=*/512, /*domain=*/512, /*filter=*/true},
  };
  s.udf_stages = 2;
  return s;
}

StarSpec clickstream_star(std::uint64_t scale) {
  StarSpec s;
  s.fact_salt = 0xc11cULL;
  s.fact_rows = 100'000 * scale;
  s.fact_domain = 4096;
  s.fact_skew = 300;  // a hot page takes ~30% of the clicks
  s.dims = {
      {/*salt=*/0xaa55ULL, /*rows=*/4096, /*domain=*/4096, /*filter=*/false},
      {/*salt=*/0xaa56ULL, /*rows=*/256, /*domain=*/256, /*filter=*/false},
  };
  s.udf_stages = 1;
  return s;
}

}  // namespace hpbdc::plan
