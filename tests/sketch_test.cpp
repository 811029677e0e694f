// Tests for the probabilistic sketches: HyperLogLog and count-min sketch —
// accuracy bounds and merges.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sketch.hpp"

namespace hpbdc {
namespace {

// ---- HyperLogLog -----------------------------------------------------------------

class HllCardinalities : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HllCardinalities, EstimateWithinErrorBound) {
  const std::uint64_t n = GetParam();
  HyperLogLog hll(12);  // ~1.6% standard error
  for (std::uint64_t i = 0; i < n; ++i) {
    hll.add(hash_u64(i * 0x9e3779b97f4a7c15ULL + 1));
  }
  const double est = hll.estimate();
  const double err = std::abs(est - static_cast<double>(n)) / static_cast<double>(n);
  EXPECT_LT(err, 5 * hll.relative_error()) << "estimate=" << est;
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllCardinalities,
                         ::testing::Values(100, 1000, 10000, 100000, 1000000));

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int pass = 0; pass < 10; ++pass) {
    for (std::uint64_t i = 0; i < 5000; ++i) hll.add(hash_u64(i));
  }
  EXPECT_NEAR(hll.estimate(), 5000, 5000 * 0.1);
}

TEST(HyperLogLog, MergeEqualsUnion) {
  HyperLogLog a(12), b(12), u(12);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const auto h = hash_u64(i);
    if (i % 2 == 0) a.add(h);
    else b.add(h);
    u.add(h);
  }
  a.merge(b);
  EXPECT_NEAR(a.estimate(), u.estimate(), u.estimate() * 1e-9);
}

TEST(HyperLogLog, PrecisionMismatchThrows) {
  HyperLogLog a(10), b(12);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(HyperLogLog(3), std::invalid_argument);
  EXPECT_THROW(HyperLogLog(19), std::invalid_argument);
}

TEST(HyperLogLog, HigherPrecisionMoreAccurate) {
  EXPECT_LT(HyperLogLog(14).relative_error(), HyperLogLog(8).relative_error());
}

// ---- CountMinSketch --------------------------------------------------------------

TEST(CountMinSketch, NeverUnderestimates) {
  CountMinSketch cms(0.001, 0.01);
  Rng rng(3);
  ZipfGenerator zipf(1000, 1.0);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (int i = 0; i < 100000; ++i) {
    const auto k = zipf.next(rng);
    cms.add(hash_u64(k));
    ++truth[k];
  }
  for (const auto& [k, c] : truth) {
    EXPECT_GE(cms.estimate(hash_u64(k)), c);
  }
}

TEST(CountMinSketch, ErrorWithinEpsilonBound) {
  const double eps = 0.001;
  CountMinSketch cms(eps, 0.01);
  Rng rng(4);
  ZipfGenerator zipf(1000, 1.0);
  std::map<std::uint64_t, std::uint64_t> truth;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const auto k = zipf.next(rng);
    cms.add(hash_u64(k));
    ++truth[k];
  }
  // Heavy hitters must be estimated within eps * N (holds whp; check all).
  std::size_t violations = 0;
  for (const auto& [k, c] : truth) {
    if (cms.estimate(hash_u64(k)) > c + static_cast<std::uint64_t>(2 * eps * kN)) {
      ++violations;
    }
  }
  EXPECT_LE(violations, truth.size() / 50);
}

TEST(CountMinSketch, MergeAddsCounts) {
  CountMinSketch a(0.01, 0.01), b(0.01, 0.01);
  a.add(hash_u64(7), 5);
  b.add(hash_u64(7), 3);
  a.merge(b);
  EXPECT_GE(a.estimate(hash_u64(7)), 8u);
  EXPECT_EQ(a.total(), 8u);
}

TEST(CountMinSketch, WeightedAdds) {
  CountMinSketch cms(0.01, 0.01);
  cms.add(hash_u64(1), 100);
  EXPECT_GE(cms.estimate(hash_u64(1)), 100u);
  EXPECT_LE(cms.estimate(hash_u64(2)), 100u);  // one-sided error bound only
}

// ---- accuracy-bound properties the cost model relies on --------------------------
// plan/stats.cpp sizes its estimates around these two contracts: the HLL
// tracks NDV within a few multiples of its theoretical standard error
// across decades of cardinality, and the CMS never undercounts a key.

TEST(HyperLogLog, RelativeErrorBoundHoldsFrom1e3To1e6Ndv) {
  for (const std::uint64_t ndv : {1000ull, 10000ull, 100000ull, 1000000ull}) {
    HyperLogLog hll(12);
    for (std::uint64_t i = 0; i < ndv; ++i) {
      hll.add(hash_u64(i * 0x9e3779b97f4a7c15ULL + ndv));
    }
    const double err =
        std::abs(hll.estimate() - static_cast<double>(ndv)) /
        static_cast<double>(ndv);
    // 4x the theoretical standard error (~1.6% at precision 12) gives a
    // deterministic-seed margin while still catching estimator regressions.
    EXPECT_LE(err, 4 * hll.relative_error()) << "ndv " << ndv;
  }
}

TEST(CountMinSketch, OverestimatesOnlyAndWithinEpsOfTotalOnSkewedStream) {
  CountMinSketch cms(0.005, 0.01);
  // Zipf-ish stream: key k appears ~50000/(k+1) times.
  std::map<std::uint64_t, std::uint64_t> truth;
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k < 500; ++k) {
    const std::uint64_t n = 50000 / (k + 1);
    truth[k] = n;
    total += n;
    cms.add(hash_u64(k), n);
  }
  for (const auto& [k, n] : truth) {
    const std::uint64_t est = cms.estimate(hash_u64(k));
    EXPECT_GE(est, n) << "CMS must never undercount (key " << k << ")";
    EXPECT_LE(est, n + static_cast<std::uint64_t>(2 * 0.005 * total))
        << "key " << k;
  }
  EXPECT_EQ(cms.estimate(hash_u64(0xdeadULL)), 0u)
      << "an absent key on a sparse sketch should read zero here";
}

// ---- exact identities plan/stats.cpp relies on -----------------------------------
// Sources are sketched once per distinct key, not once per row: the HLL is
// fed each key once and the CMS each key with its sample count. Both must
// then equal the per-row sketches exactly, not approximately.

TEST(CountMinSketch, WeightedAddEqualsRepeatedAdds) {
  CountMinSketch weighted(0.005, 0.01), repeated(0.005, 0.01);
  Rng rng(11);
  for (std::uint64_t k = 0; k < 300; ++k) {
    const std::uint64_t c = 1 + rng.next_below(k % 7 == 0 ? 400 : 20);
    weighted.add(hash_u64(k), c);
    for (std::uint64_t i = 0; i < c; ++i) repeated.add(hash_u64(k));
  }
  EXPECT_EQ(weighted.total(), repeated.total());
  for (std::uint64_t probe = 0; probe < 1000; ++probe) {
    EXPECT_EQ(weighted.estimate(hash_u64(probe)), repeated.estimate(hash_u64(probe)))
        << "probe " << probe;
  }
}

TEST(HyperLogLog, DuplicateAddsAreBitIdentical) {
  for (const std::uint64_t ndv : {1ull, 40ull, 3000ull, 50000ull}) {
    HyperLogLog multiset(12), distinct(12);
    Rng rng(ndv);
    for (std::uint64_t i = 0; i < 4 * ndv; ++i) {
      multiset.add(hash_u64(rng.next_below(ndv)));
    }
    for (std::uint64_t k = 0; k < ndv; ++k) distinct.add(hash_u64(k));
    // 4*ndv uniform draws miss ~2% of a large domain, so add the keys the
    // multiset may have missed to it once more, in a different order.
    for (std::uint64_t k = ndv; k-- > 0;) multiset.add(hash_u64(k));
    EXPECT_EQ(multiset.estimate(), distinct.estimate()) << "ndv " << ndv;
  }
}

// ---- division-free kernels against their reference formulas ----------------------
// The CMS reduces with a precomputed reciprocal instead of `% width`, the
// hot-key scan stops at the first row below its threshold, and the HLL reads
// 2^-r from a table instead of std::pow. Each must equal the plain formula.

TEST(CountMinSketch, SlotsMatchModuloReference) {
  // Widths from plan/stats (kCmsEpsilon 0.005), dataflow/approx (0.0005),
  // the T7 sweep (0.01, 0.001, 0.0001) and a few tiny ones.
  Rng rng(19);
  std::size_t checked = 0;
  for (const double eps : {0.005, 0.0005, 0.01, 0.001, 0.0001, 0.3, 0.5, 0.9}) {
    for (const double delta : {0.01, 0.5}) {
      const CountMinSketch cms(eps, delta);
      const std::uint64_t w = cms.width();
      for (std::size_t d = 0; d < cms.depth(); ++d) {
        const std::uint64_t seed = hash_u64(d + 1);
        std::vector<std::uint64_t> hs = {0, ~std::uint64_t{0}, w - 1, w, w + 1};
        // Also the h that make the combined value itself an edge of the
        // reduction: 0, ~0, w - 1, w and the multiples of w around 2^64.
        const std::uint64_t ones = ~std::uint64_t{0};
        const std::uint64_t top = ones - ones % w;
        for (const std::uint64_t x :
             std::vector<std::uint64_t>{0, ones, w - 1, w, 2 * w - 1, top, top - 1}) {
          hs.push_back((x ^ seed) - 0x9e3779b97f4a7c15ULL - (seed << 6) - (seed >> 2));
        }
        for (int i = 0; i < 20000; ++i) hs.push_back(rng());
        for (const std::uint64_t h : hs) {
          ASSERT_EQ(cms.slot(h, d), hash_combine(seed, h) % w)
              << "eps " << eps << " row " << d << " h 0x" << std::hex << h;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 500000u);
}

TEST(HyperLogLog, EstimateEqualsPowReference) {
  Rng rng(23);
  for (int p = 4; p <= 18; ++p) {
    const std::size_t m = std::size_t{1} << p;
    const int max_rank = 64 - p + 1;
    // The hash that puts `rank` into register idx.
    auto hash_for = [p, max_rank](std::uint64_t idx, int rank) {
      const std::uint64_t hi = idx << (64 - p);
      return rank == max_rank ? hi : hi | (std::uint64_t{1} << (max_rank - 1 - rank));
    };
    // Empty, one register, half the registers, all random, all saturated.
    for (int state = 0; state < 5; ++state) {
      HyperLogLog hll(p);
      std::vector<std::uint8_t> regs(m, 0);
      for (std::size_t i = 0; i < m; ++i) {
        int rank = 0;
        if (state == 1 && i == m / 3) rank = 7;
        if (state == 2 && rng.next_below(2) == 0) rank = 1 + static_cast<int>(rng.next_below(max_rank));
        if (state == 3) rank = 1 + static_cast<int>(rng.next_below(max_rank));
        if (state == 4) rank = max_rank;
        if (rank == 0) continue;
        hll.add(hash_for(i, rank));
        regs[i] = static_cast<std::uint8_t>(rank);
      }
      // The estimator as it read with std::pow.
      const double md = static_cast<double>(m);
      double sum = 0;
      std::size_t zeros = 0;
      for (const std::uint8_t r : regs) {
        sum += std::pow(2.0, -static_cast<double>(r));
        zeros += (r == 0);
      }
      const double alpha = md == 16 ? 0.673
                           : md == 32 ? 0.697
                           : md == 64 ? 0.709
                                      : 0.7213 / (1.0 + 1.079 / md);
      double want = alpha * md * md / sum;
      if (want <= 2.5 * md && zeros != 0) want = md * std::log(md / static_cast<double>(zeros));
      EXPECT_EQ(hll.estimate(), want) << "precision " << p << " state " << state;
    }
  }
}

}  // namespace
}  // namespace hpbdc
