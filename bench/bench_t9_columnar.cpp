// T9 — Columnar vs row-oriented execution (DESIGN.md extension): the
// classic OLAP scan/aggregate query on 2M rows x 8 columns, run (a) over
// the columnar Table and (b) over a row-of-structs baseline. Expected
// shape: columnar wins on narrow queries (touches 1-2 of 8 columns, so
// ~4-8x less memory traffic); dictionary-encoded string predicates are
// integer compares; the gap narrows as more columns are touched.
// --json=FILE also writes the headline numbers (bench_json.hpp).

#include <cstring>
#include <iostream>
#include <tuple>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "dataflow/column.hpp"
#include "exec/thread_pool.hpp"

namespace {

using namespace hpbdc;
using namespace hpbdc::dataflow::columnar;

constexpr std::size_t kRows = 2'000'000;
constexpr int kRegions = 16;

struct Row {
  std::int64_t id;
  std::int64_t qty;
  double amount;
  double tax;
  double discount;
  std::int64_t region;  // pre-encoded, matching the dictionary codes
  std::int64_t year;
  std::int64_t flags;
};

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("t9_columnar", argc, argv);
  ThreadPool pool;
  Rng rng(31);

  // Build identical data in both layouts.
  std::vector<Row> rows;
  rows.reserve(kRows);
  std::vector<std::int64_t> c_id(kRows), c_qty(kRows), c_region(kRows), c_year(kRows),
      c_flags(kRows);
  std::vector<double> c_amount(kRows), c_tax(kRows), c_discount(kRows);
  std::vector<std::string> region_names(kRegions);
  for (int r = 0; r < kRegions; ++r) region_names[static_cast<std::size_t>(r)] = "region" + std::to_string(r);
  std::vector<std::string> c_region_str(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    Row r;
    r.id = static_cast<std::int64_t>(i);
    r.qty = rng.next_in(1, 20);
    r.amount = rng.next_double() * 1000;
    r.tax = r.amount * 0.2;
    r.discount = rng.next_double() * 50;
    r.region = rng.next_in(0, kRegions - 1);
    r.year = rng.next_in(2015, 2024);
    r.flags = rng.next_in(0, 255);
    rows.push_back(r);
    c_id[i] = r.id;
    c_qty[i] = r.qty;
    c_amount[i] = r.amount;
    c_tax[i] = r.tax;
    c_discount[i] = r.discount;
    c_region[i] = r.region;
    c_region_str[i] = region_names[static_cast<std::size_t>(r.region)];
    c_year[i] = r.year;
    c_flags[i] = r.flags;
  }
  dataflow::columnar::Table table;
  table.add_column("id", Column::int64(std::move(c_id)));
  table.add_column("qty", Column::int64(std::move(c_qty)));
  table.add_column("amount", Column::f64(std::move(c_amount)));
  table.add_column("tax", Column::f64(std::move(c_tax)));
  table.add_column("discount", Column::f64(std::move(c_discount)));
  table.add_column("region", Column::string(c_region_str));
  table.add_column("year", Column::int64(std::move(c_year)));
  table.add_column("flags", Column::int64(std::move(c_flags)));

  std::cout << "T9: " << kRows << " rows x 8 columns, query: SELECT "
               "SUM(amount) WHERE region = 'region3' AND year >= 2020\n\n";

  // Row-store baseline.
  double row_sum = 0;
  double row_ms = 0;
  {
    Stopwatch sw;
    for (int rep = 0; rep < 3; ++rep) {
      row_sum = 0;
      for (const auto& r : rows) {
        if (r.region == 3 && r.year >= 2020) row_sum += r.amount;
      }
    }
    row_ms = sw.elapsed_ms() / 3;
  }

  // Columnar.
  double col_sum = 0;
  double col_ms = 0;
  {
    Stopwatch sw;
    for (int rep = 0; rep < 3; ++rep) {
      auto sel = table.scan(pool, {Predicate::eq_s("region", "region3"),
                                   Predicate::cmp_i("year", CmpOp::kGe, 2020)});
      col_sum = table.aggregate_scalar(pool, "amount", AggOp::kSum, sel);
    }
    col_ms = sw.elapsed_ms() / 3;
  }
  if (std::abs(col_sum - row_sum) > 1e-6 * std::abs(row_sum)) {
    std::cerr << "BUG: results differ: " << col_sum << " vs " << row_sum << "\n";
    return 1;
  }

  // Wide aggregation (touches 4 columns) — the gap should narrow.
  double row_wide_ms = 0, col_wide_ms = 0;
  double row_wide = 0, col_wide = 0;
  {
    Stopwatch sw;
    for (const auto& r : rows) {
      if (r.qty > 10) row_wide += r.amount + r.tax - r.discount;
    }
    row_wide_ms = sw.elapsed_ms();
  }
  {
    Stopwatch sw;
    auto sel = table.scan(pool, {Predicate::cmp_i("qty", CmpOp::kGt, 10)});
    col_wide = table.aggregate_scalar(pool, "amount", AggOp::kSum, sel) +
               table.aggregate_scalar(pool, "tax", AggOp::kSum, sel) -
               table.aggregate_scalar(pool, "discount", AggOp::kSum, sel);
    col_wide_ms = sw.elapsed_ms();
  }
  if (std::abs(col_wide - row_wide) > 1e-6 * std::abs(row_wide)) {
    std::cerr << "BUG: wide results differ\n";
    return 1;
  }

  for (const auto& [query, rms, cms] :
       {std::tuple{"narrow", row_ms, col_ms}, std::tuple{"wide", row_wide_ms, col_wide_ms}}) {
    json.metric("row_ms", rms, {{"query", query}});
    json.metric("columnar_ms", cms, {{"query", query}});
    json.metric("columnar_speedup", rms / cms, {{"query", query}});
  }
  hpbdc::Table out({"query", "row store (ms)", "columnar (ms)", "columnar speedup"});
  out.row({"narrow (2 of 8 cols)", hpbdc::Table::num(row_ms), hpbdc::Table::num(col_ms),
           hpbdc::Table::num(row_ms / col_ms)});
  out.row({"wide (4 of 8 cols)", hpbdc::Table::num(row_wide_ms),
           hpbdc::Table::num(col_wide_ms), hpbdc::Table::num(row_wide_ms / col_wide_ms)});
  out.print(std::cout);
  std::cout << "\nexpected shape: columnar faster on the narrow query "
               "(touches 1/4 the bytes); advantage shrinks on the wide one.\n";
  return 0;
}
