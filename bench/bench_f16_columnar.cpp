// F16 — Vectorized columnar backend + cost-based optimization (DESIGN.md
// src/plan, src/dataflow/vectorized.hpp): BigBench-flavored star-schema
// queries (generated sales/clickstream fact tables, distinct-key dims, UDF
// map stages, final grouped aggregate) executed three ways on the
// shared-memory engines:
//
//   raw row       — the plan as written (naive dim order), row-at-a-time
//   rules row     — plan::optimize (fusion, combine, pushdown), row engine
//   columnar+cost — cost-based dim order + plan::cost_optimize hints,
//                   batch-at-a-time columnar kernels (key-indexed hash
//                   join, dense/sort grouped reduce, compaction filters)
//
// The plan (ms) column is the per-query planning time: order_star_dims +
// cost_optimize, best of the reps, on the calling thread.
//
// Every columnar run is checked bit-identical (canonical multiset) against
// the row engine on the SAME plan before timing — the speedup column is
// only meaningful because the answers are provably equal. Expected shape:
// columnar+cost ≥ 5x over raw row on the wide sales star (the multimap
// row join dominates). The skewed clickstream star gets salted joins from
// the cost pass; the columnar join ignores the fanout (its probe row chunks
// are never skewed), so only lower_dist acts on it.
//
// A second table times the source generator alone (source Mrows/s):
// every SourceGen::fill body this CPU runs, on each star's fact table,
// keys only (the sketch's read) and full rows (the lowerings' read), in
// SourceGen::kBatch-row buffers, best of the reps. Expected shape: the AVX2
// body ahead of the scalar body on every shape.

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/stats.hpp"
#include "dataflow/context.hpp"
#include "exec/thread_pool.hpp"
#include "plan/bigbench.hpp"
#include "plan/cost.hpp"
#include "plan/lower.hpp"
#include "plan/optimizer.hpp"
#include "plan/plan.hpp"

namespace {

using namespace hpbdc;
using plan::LogicalPlan;

double wall_best(int reps, const std::function<std::vector<plan::Row>()>& fn,
                 std::size_t& out_rows) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto rows = fn();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    out_rows = rows.size();
    best = std::min(best, s);
  }
  return best;
}

/// Rows per second, in millions, of one fill body over a fact table's rows
/// in kBatch-row buffers: best of `reps`.
double source_mrows_per_s(int reps, plan::detail::FillBody body, const plan::SourceGen& gen,
                          std::uint64_t rows, bool with_vals) {
  std::uint64_t keys[plan::SourceGen::kBatch], vals[plan::SourceGen::kBatch];
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t done = 0; done < rows; done += plan::SourceGen::kBatch) {
      const auto m =
          static_cast<std::size_t>(std::min<std::uint64_t>(rows - done, plan::SourceGen::kBatch));
      // An indirect call the compiler cannot see into, so no batch is
      // optimized away.
      body(gen, done, 1, m, keys, with_vals ? vals : nullptr);
    }
    best = std::min(best, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return static_cast<double>(rows) / best / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("f16_columnar", argc, argv);
  std::uint64_t scale = 20;  // fact rows = 100k * scale
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) scale = std::stoull(arg.substr(8));
  }
  ThreadPool pool(4);

  std::cout << "F16: vectorized columnar backend + cost-based optimization\n"
            << "BigBench star queries, fact rows = " << 100000 * scale
            << " (--scale=" << scale << "), 4 threads\n\n";

  struct Query {
    std::string name;
    plan::StarSpec spec;
  };
  const std::vector<Query> queries = {
      {"sales_star", plan::sales_star(scale)},
      {"clickstream_star", plan::clickstream_star(scale)},
  };

  Table t({"query", "plan (ms)", "raw row (s)", "rules row (s)",
           "columnar+cost (s)", "speedup vs raw", "speedup vs rules",
           "out rows", "verified"});
  bool all_verified = true;
  double best_speedup = 0;
  const int reps = 3;

  for (const Query& q : queries) {
    const LogicalPlan raw = plan::star_query(q.spec, plan::naive_order(q.spec));
    const LogicalPlan ruled = plan::optimize(raw);
    // Cost-based path: stats-driven join order at construction, then the
    // cost pass (filter reorder, build flips, skew salting, stats salt).
    LogicalPlan ordered, costed;
    plan::CostReport rep;
    double plan_s = 1e100;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<std::size_t> order = plan::order_star_dims(q.spec);
      const auto t1 = std::chrono::steady_clock::now();
      ordered = plan::star_query(q.spec, order);
      const auto t2 = std::chrono::steady_clock::now();
      costed = plan::cost_optimize(ordered, {}, &rep);
      const auto t3 = std::chrono::steady_clock::now();
      plan_s = std::min(plan_s,
                        std::chrono::duration<double>((t1 - t0) + (t3 - t2)).count());
    }
    const double plan_ms = plan_s * 1e3;

    // Correctness gate before any timing: per plan, row == columnar.
    bool verified = true;
    {
      dataflow::Context ctx(pool);
      verified &= plan::canonical_bytes(plan::lower_columnar(ruled, pool)) ==
                  plan::canonical_bytes(plan::lower_local(raw, ctx));
    }
    {
      dataflow::Context ctx(pool);
      verified &= plan::canonical_bytes(plan::lower_columnar(costed, pool)) ==
                  plan::canonical_bytes(plan::lower_local(ordered, ctx));
    }
    all_verified &= verified;

    std::size_t nrows = 0;
    const double w_raw = wall_best(reps, [&] {
      dataflow::Context ctx(pool);
      return plan::lower_local(raw, ctx);
    }, nrows);
    const double w_rules = wall_best(reps, [&] {
      dataflow::Context ctx(pool);
      return plan::lower_local(ruled, ctx);
    }, nrows);
    const double w_col = wall_best(reps, [&] {
      return plan::lower_columnar(costed, pool);
    }, nrows);

    const double speedup_raw = w_raw / w_col;
    const double speedup_rules = w_rules / w_col;
    best_speedup = std::max(best_speedup, speedup_raw);
    t.row({q.name, Table::num(plan_ms, 2), Table::num(w_raw, 3),
           Table::num(w_rules, 3), Table::num(w_col, 3), Table::num(speedup_raw, 2) + "x",
           Table::num(speedup_rules, 2) + "x", std::to_string(nrows),
           verified ? "yes" : "MISMATCH"});
    json.metric("plan_ms", plan_ms, {{"query", q.name}});
    json.metric("wall_raw_row_s", w_raw, {{"query", q.name}});
    json.metric("wall_rules_row_s", w_rules, {{"query", q.name}});
    json.metric("wall_columnar_cost_s", w_col, {{"query", q.name}});
    json.metric("speedup_vs_raw", speedup_raw, {{"query", q.name}});
    json.metric("speedup_vs_rules", speedup_rules, {{"query", q.name}});
    json.metric("verified", verified ? 1 : 0, {{"query", q.name}});
    json.metric("joins_salted", static_cast<double>(rep.joins_salted),
                {{"query", q.name}});
    json.metric("joins_flipped", static_cast<double>(rep.joins_flipped),
                {{"query", q.name}});
  }
  t.print(std::cout);
  json.metric("best_speedup_vs_raw", best_speedup);

  std::cout << "\nsource generator (fact rows, best of " << reps << "):\n\n";
  Table st({"body", "fact", "keys only (Mrows/s)", "full rows (Mrows/s)"});
  for (const auto& [body_name, body] : plan::detail::fill_bodies()) {
    for (const Query& q : queries) {
      const plan::SourceGen gen(q.spec.fact_salt, q.spec.fact_domain, q.spec.fact_skew, false);
      std::vector<std::string> cells = {body_name, q.name};
      for (const bool with_vals : {false, true}) {
        const double mrows =
            source_mrows_per_s(reps, body, gen, q.spec.fact_rows, with_vals);
        cells.push_back(Table::num(mrows, 1));
        json.metric("source_mrows_per_s", mrows,
                    {{"body", body_name},
                     {"fact", q.name},
                     {"read", with_vals ? "rows" : "keys"}});
      }
      st.row(std::move(cells));
    }
  }
  st.print(std::cout);

  std::cout << "\nAll columnar results bit-identical to the row engine: "
            << (all_verified ? "yes" : "NO — MISMATCH") << "\n"
            << "Best columnar+cost speedup over raw row-at-a-time: "
            << Table::num(best_speedup, 2) << "x (acceptance floor: 5x)\n";
  return all_verified ? 0 : 1;
}
