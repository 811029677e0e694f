// T7 — Sketch accuracy vs memory (DESIGN.md extension): HyperLogLog
// cardinality error across precisions, count-min heavy-hitter error across
// widths, and raw throughput (HLL updates, CMS updates plus estimates).
// Expected shape: HLL error ~1.04/sqrt(m); CMS error bounded by eps*N on
// heavy hitters.
// --json=FILE also writes the headline numbers (bench_json.hpp).

#include <iostream>
#include <map>
#include <string>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/sketch.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace hpbdc;
  bench::JsonWriter json("t7_sketches", argc, argv);

  constexpr std::uint64_t kDistinct = 500000;
  std::cout << "T7: sketches over " << kDistinct << " distinct 64-bit keys\n\n";

  // --- HyperLogLog -----------------------------------------------------------
  Table hll_tbl({"precision", "memory", "estimate", "rel err %", "bound %", "Mops/s"});
  for (int p : {8, 10, 12, 14, 16}) {
    HyperLogLog hll(p);
    Stopwatch sw;
    for (std::uint64_t i = 0; i < kDistinct; ++i) {
      hll.add(hash_u64(i * 0x9e3779b97f4a7c15ULL + 17));
    }
    const double sec = sw.elapsed_sec();
    const double est = hll.estimate();
    const double err = 100.0 * std::abs(est - static_cast<double>(kDistinct)) /
                       static_cast<double>(kDistinct);
    const double mops = static_cast<double>(kDistinct) / sec / 1e6;
    json.metric("hll_rel_err_pct", err, {{"precision", std::to_string(p)}});
    json.metric("hll_mops_per_s", mops, {{"precision", std::to_string(p)}});
    hll_tbl.row({std::to_string(p), std::to_string(hll.memory_bytes()) + " B",
                 Table::num(est, 0), Table::num(err, 2),
                 Table::num(100.0 * hll.relative_error(), 2),
                 Table::num(mops, 1)});
  }
  hll_tbl.print(std::cout);

  // --- CountMinSketch ---------------------------------------------------------
  std::cout << "\ncount-min on zipf(1.0) stream, 2M updates:\n\n";
  Table cms_tbl({"eps", "memory KiB", "mean HH err %", "max HH err %", "Mops/s"});
  Rng rng(5);
  ZipfGenerator zipf(100000, 1.0);
  constexpr int kUpdates = 2000000;
  std::vector<std::uint64_t> stream(kUpdates);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (auto& s : stream) {
    s = zipf.next(rng);
    ++truth[s];
  }
  for (double eps : {0.01, 0.001, 0.0001}) {
    CountMinSketch cms(eps, 0.01);
    // Throughput: every update added, then every update's key estimated.
    Stopwatch sw;
    for (auto s : stream) cms.add(hash_u64(s));
    std::uint64_t est_sum = 0;
    for (auto s : stream) est_sum += cms.estimate(hash_u64(s));
    const double mops = 2.0 * kUpdates / sw.elapsed_sec() / 1e6;
    if (est_sum < static_cast<std::uint64_t>(kUpdates)) {
      std::cerr << "BUG: count-min undercounted an added key\n";
      return 1;
    }
    // Error on the 100 heaviest keys (ranks 0..99 by construction).
    RunningStat err;
    for (std::uint64_t k = 0; k < 100; ++k) {
      auto it = truth.find(k);
      if (it == truth.end()) continue;
      const double e = 100.0 *
                       static_cast<double>(cms.estimate(hash_u64(k)) - it->second) /
                       static_cast<double>(it->second);
      err.add(e);
    }
    json.metric("cms_mean_hh_err_pct", err.mean(), {{"eps", Table::num(eps, 4)}});
    json.metric("cms_max_hh_err_pct", err.max(), {{"eps", Table::num(eps, 4)}});
    json.metric("cms_mops_per_s", mops, {{"eps", Table::num(eps, 4)}});
    cms_tbl.row({Table::num(eps, 4), std::to_string(cms.memory_bytes() / 1024),
                 Table::num(err.mean(), 3), Table::num(err.max(), 3),
                 Table::num(mops, 1)});
  }
  cms_tbl.print(std::cout);

  std::cout << "\nexpected shape: HLL error tracks the 1.04/sqrt(m) bound; "
               "CMS heavy-hitter error shrinks ~linearly with 1/eps memory.\n";
  return 0;
}
