#include "plan/cost.hpp"

#include <algorithm>
#include <cmath>

#include "plan/optimizer.hpp"

namespace hpbdc::plan {

namespace {

/// Annotate a join for skew salting when the probe side's hot keys carry at
/// least this fraction of its estimated rows.
constexpr double kHotWeightThreshold = 0.10;
constexpr std::uint32_t kMaxFanout = 8;
/// Sample size for measuring filter pass rates when reordering filter runs
/// inside source-rooted fused chains.
constexpr std::uint64_t kReorderSampleRows = 2048;

bool is_filter_step(OpKind k) {
  return k == OpKind::kFilter || k == OpKind::kFilterKey;
}

/// True when a run of two or more consecutive filter steps follows the
/// chain's head: the only shape a filter reorder can change.
bool has_filter_run(const std::vector<NarrowStep>& steps) {
  std::size_t run = 0;
  for (std::size_t s = 1; s < steps.size(); ++s) {
    run = is_filter_step(steps[s].op) ? run + 1 : 0;
    if (run >= 2) return true;
  }
  return false;
}

/// Reorder every maximal run of consecutive filter steps inside
/// source-rooted fused chains by measured pass rate, cheapest (most
/// selective) first. Row predicates commute as multiset operators, so any
/// permutation of a filter run computes the same output — only the work
/// per surviving row changes. Chains without a source head are left alone:
/// sampling their input would mean executing the upstream plan.
std::size_t reorder_fused_filters(LogicalPlan& plan) {
  std::size_t reordered = 0;
  for (PlanNode& nd : plan.nodes) {
    if (nd.op != OpKind::kFused) continue;
    if (nd.steps.front().op != OpKind::kSource) continue;
    if (!has_filter_run(nd.steps)) continue;  // nothing to reorder, no sample
    const NarrowStep& head = nd.steps.front();
    const std::uint64_t sample_n =
        std::min<std::uint64_t>(head.rows, kReorderSampleRows);
    if (sample_n == 0) continue;
    // Prefixes of source_rows_ex are exact: row i is a pure function of
    // (salt, i, shape).
    std::vector<Row> rows = source_rows_ex(head.salt, sample_n, head.key_domain,
                                           head.skew, head.distinct_keys);
    std::size_t s = 1;
    while (s < nd.steps.size()) {
      if (!is_filter_step(nd.steps[s].op)) {
        // Advance the sample through the non-filter stretch so the next
        // filter run is measured on its true input distribution.
        std::size_t next = s;
        while (next < nd.steps.size() && !is_filter_step(nd.steps[next].op)) {
          ++next;
        }
        std::vector<NarrowStep> mid(
            nd.steps.begin() + static_cast<std::ptrdiff_t>(s),
            nd.steps.begin() + static_cast<std::ptrdiff_t>(next));
        rows = apply_steps(mid, 0, std::move(rows));
        s = next;
        continue;
      }
      std::size_t e = s;
      while (e < nd.steps.size() && is_filter_step(nd.steps[e].op)) ++e;
      if (e - s >= 2) {
        // Measure each filter independently on the rows entering the run.
        struct Rated {
          NarrowStep step;
          double pass;
          std::size_t orig;
        };
        std::vector<Rated> run;
        for (std::size_t f = s; f < e; ++f) {
          const NarrowStep& st = nd.steps[f];
          std::size_t kept = 0;
          for (const Row& r : rows) {
            kept += st.op == OpKind::kFilter ? filter_keep(r, st.salt)
                                             : filter_key_keep(r, st.salt);
          }
          run.push_back({st,
                         rows.empty() ? 1.0
                                      : static_cast<double>(kept) /
                                            static_cast<double>(rows.size()),
                         f});
        }
        std::stable_sort(run.begin(), run.end(),
                         [](const Rated& a, const Rated& b) {
                           return a.pass < b.pass;
                         });
        bool changed = false;
        for (std::size_t f = 0; f < run.size(); ++f) {
          changed = changed || run[f].orig != s + f;
          nd.steps[s + f] = run[f].step;
        }
        if (changed) ++reordered;
      }
      // Advance the sample through the (possibly reordered) run.
      for (std::size_t f = s; f < e; ++f) {
        const NarrowStep st = nd.steps[f];
        std::erase_if(rows, [&st](const Row& r) {
          return st.op == OpKind::kFilter ? !filter_keep(r, st.salt)
                                          : !filter_key_keep(r, st.salt);
        });
      }
      s = e;
    }
  }
  return reordered;
}

void annotate_joins(LogicalPlan& plan, const std::vector<NodeStats>& stats,
                    CostReport& rep) {
  for (PlanNode& nd : plan.nodes) {
    if (nd.op != OpKind::kJoin) continue;
    const NodeStats& l = stats[nd.left];
    const NodeStats& r = stats[nd.right];
    nd.build_left = l.rows <= r.rows;
    if (!nd.build_left) ++rep.joins_flipped;
    const NodeStats& probe = nd.build_left ? r : l;
    double hot_weight = 0;
    for (const HotKey& h : probe.hot) hot_weight += static_cast<double>(h.count);
    hot_weight = probe.rows > 0 ? hot_weight / probe.rows : 0;
    if (hot_weight >= kHotWeightThreshold && !probe.hot.empty()) {
      nd.salt_fanout = std::clamp<std::uint32_t>(
          static_cast<std::uint32_t>(std::ceil(hot_weight * 16.0)), 2, kMaxFanout);
      nd.hot_keys.clear();
      nd.hot_keys.reserve(probe.hot.size());
      for (const HotKey& h : probe.hot) nd.hot_keys.push_back(h.key);
      std::sort(nd.hot_keys.begin(), nd.hot_keys.end());
      ++rep.joins_salted;
    } else {
      nd.salt_fanout = 0;
      nd.hot_keys.clear();
    }
  }
}

}  // namespace

LogicalPlan cost_optimize(const LogicalPlan& in, const StatsOptions& opts,
                          CostReport* report) {
  CostReport rep;
  // Rules first: fusion builds the chains the filter reorder works on.
  LogicalPlan p = optimize(in);
  rep.filters_reordered = reorder_fused_filters(p);
  // Rules again: reordering is structure-preserving, but the contract is
  // "rule passes before and after costing" and optimize() is idempotent,
  // so this is cheap insurance against future reorder rules that do expose
  // rewrites.
  p = optimize(p);
  rep.stats = collect_stats(p, opts);
  annotate_joins(p, rep.stats, rep);
  p.stats_salt = opts.stats_salt;
  if (report) *report = rep;
  return p;
}

}  // namespace hpbdc::plan
