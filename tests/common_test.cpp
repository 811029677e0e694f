// Unit tests for src/common: RNG, zipf, hashing, serialization and
// statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"

namespace hpbdc {
namespace {

// ---- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  RunningStat st;
  for (int i = 0; i < 50000; ++i) st.add(rng.next_gaussian());
  EXPECT_NEAR(st.mean(), 0.0, 0.03);
  EXPECT_NEAR(st.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  RunningStat st;
  for (int i = 0; i < 50000; ++i) st.add(rng.next_exponential(2.0));
  EXPECT_NEAR(st.mean(), 0.5, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Zipf, RankZeroMostPopular) {
  Rng rng(23);
  ZipfGenerator zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.next(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 100000 / 100);  // rank 0 far above uniform share
}

TEST(Zipf, InRange) {
  Rng rng(29);
  ZipfGenerator zipf(50, 0.8);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.next(rng), 50u);
}

TEST(Zipf, ThetaOneIsNotSingular) {
  // Regression: theta == 1.0 used to make alpha = 1/(1-theta) infinite,
  // dumping the hot mass onto the LAST rank instead of rank 0.
  Rng rng(101);
  ZipfGenerator zipf(500, 1.0);
  std::vector<int> counts(500, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.next(rng)];
  EXPECT_GT(counts[0], counts[499] * 5);
  EXPECT_GT(counts[0], counts[1]);
}

TEST(Zipf, SkewGrowsWithTheta) {
  Rng rng(31);
  ZipfGenerator flat(1000, 0.5), steep(1000, 1.2);
  int flat0 = 0, steep0 = 0;
  for (int i = 0; i < 50000; ++i) {
    flat0 += (flat.next(rng) == 0);
    steep0 += (steep.next(rng) == 0);
  }
  EXPECT_GT(steep0, flat0);
}

// ---- hashing ---------------------------------------------------------------

TEST(Hash, StableAcrossCalls) {
  EXPECT_EQ(hash_str("hello"), hash_str("hello"));
  EXPECT_NE(hash_str("hello"), hash_str("hellp"));
  EXPECT_NE(hash_str(""), hash_str("a"));
}

TEST(Hash, Mix64Bijective) {
  // Distinct inputs keep distinct outputs on a sample.
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 10000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 10000u);
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(hash_u64(1), hash_u64(2)),
            hash_combine(hash_u64(2), hash_u64(1)));
}

TEST(Hash, PairHasher) {
  Hasher<std::pair<int, int>> h;
  EXPECT_NE(h({1, 2}), h({2, 1}));
  EXPECT_EQ(h({3, 4}), h({3, 4}));
}

// ---- serialization -----------------------------------------------------------

TEST(Serialize, PodRoundTrip) {
  BufWriter w;
  w.write_pod<std::uint32_t>(0xdeadbeef);
  w.write_pod<double>(3.25);
  BufReader r(w.bytes());
  EXPECT_EQ(r.read_pod<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.read_pod<double>(), 3.25);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VarintRoundTrip) {
  BufWriter w;
  const std::uint64_t cases[] = {0, 1, 127, 128, 300, 1ULL << 20, 1ULL << 40,
                                 ~0ULL};
  for (auto v : cases) w.write_varint(v);
  BufReader r(w.bytes());
  for (auto v : cases) EXPECT_EQ(r.read_varint(), v);
}

TEST(Serialize, StringRoundTrip) {
  BufWriter w;
  w.write_string("");
  w.write_string("hello world");
  std::string big(10000, 'x');
  w.write_string(big);
  BufReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_string(), big);
}

TEST(Serialize, TruncatedThrows) {
  BufWriter w;
  w.write_string("hello");
  auto bytes = w.take();
  bytes.resize(bytes.size() - 2);
  BufReader r(bytes);
  EXPECT_THROW(r.read_string(), std::runtime_error);
}

TEST(Serialize, SerdeVectorOfPairs) {
  std::vector<std::pair<std::string, std::uint64_t>> v{{"a", 1}, {"bb", 2}};
  const auto bytes = to_bytes(v);
  const auto back = from_bytes<std::vector<std::pair<std::string, std::uint64_t>>>(bytes);
  EXPECT_EQ(back, v);
}

TEST(Serialize, TrailingGarbageThrows) {
  BufWriter w;
  Serde<std::uint32_t>::write(w, 5);
  w.write_pod<std::uint8_t>(0);
  EXPECT_THROW(from_bytes<std::uint32_t>(w.bytes()), std::runtime_error);
}

TEST(Serialize, HugeVectorCountThrowsTruncated) {
  // A corrupt element count must fail as truncated input before it sizes an
  // allocation: every element encodes to at least one byte.
  using Row = std::pair<std::uint64_t, std::uint64_t>;
  auto expect_truncated = [](auto decode, std::uint64_t n) {
    try {
      decode();
      ADD_FAILURE() << "count " << n << " decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "count " << n << " threw " << e.what();
    }
  };
  for (const std::uint64_t n : {1ULL << 28, 1ULL << 40, 1ULL << 62}) {
    BufWriter w;
    w.write_varint(n);
    const Bytes b = w.take();
    expect_truncated([&b] { return from_bytes<std::vector<Row>>(b); }, n);
    expect_truncated([&b] { return from_bytes<std::vector<std::string>>(b); }, n);
  }
  // Fewer bytes left than the count's fixed-width rows need.
  BufWriter w;
  w.write_varint(2);
  w.write_pod<std::uint64_t>(1);
  w.write_pod<std::uint64_t>(2);
  const Bytes b = w.take();
  expect_truncated([&b] { return from_bytes<std::vector<Row>>(b); }, 2);
}

// Per-element reference encoder for the fixed-width block path.
template <typename T>
  requires std::is_arithmetic_v<T>
void put_each(BufWriter& w, const T& v) {
  w.write_pod(v);
}
template <typename A, typename B>
void put_each(BufWriter& w, const std::pair<A, B>& v) {
  put_each(w, v.first);
  put_each(w, v.second);
}

template <typename T>
T random_value(Rng& rng) {
  if constexpr (std::is_same_v<T, double>) {
    return rng.next_double() * 1e6 - 5e5;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<T>(rng());
  } else {
    return {random_value<typename T::first_type>(rng),
            random_value<typename T::second_type>(rng)};
  }
}

template <typename T>
void check_fixed_width_vector(std::size_t width) {
  EXPECT_EQ(FixedWidth<T>::width, width);
  Rng rng(width * 131 + sizeof(T));
  for (const std::size_t n : {0, 1, 127, 128, 16384}) {
    std::vector<T> v(n);
    for (T& e : v) e = random_value<T>(rng);
    BufWriter ref;
    ref.write_varint(n);
    for (const T& e : v) put_each(ref, e);
    Bytes bytes = to_bytes(v);
    ASSERT_EQ(bytes, ref.bytes()) << "n=" << n;
    EXPECT_EQ(bytes.size(), ref.size());
    EXPECT_EQ(from_bytes<std::vector<T>>(bytes), v) << "n=" << n;
    Bytes cut(bytes.begin(), bytes.end() - 1);
    EXPECT_THROW(from_bytes<std::vector<T>>(cut), std::runtime_error) << "n=" << n;
    bytes.push_back(std::byte{0});
    EXPECT_THROW(from_bytes<std::vector<T>>(bytes), std::runtime_error) << "n=" << n;
  }
}

TEST(Serialize, FixedWidthVectorBytesMatchPerElement) {
  check_fixed_width_vector<std::uint8_t>(1);
  check_fixed_width_vector<std::uint32_t>(4);
  check_fixed_width_vector<double>(8);
  check_fixed_width_vector<std::pair<std::uint64_t, std::uint64_t>>(16);
  // 12 encoded bytes, 16 in memory: the padding never reaches the encoding.
  static_assert(sizeof(std::pair<std::uint32_t, std::uint64_t>) == 16);
  check_fixed_width_vector<std::pair<std::uint32_t, std::uint64_t>>(12);
}

// ---- stats -------------------------------------------------------------------

TEST(RunningStat, Basics) {
  RunningStat st;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(v);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), 2.138, 0.001);
  EXPECT_EQ(st.min(), 2.0);
  EXPECT_EQ(st.max(), 9.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  Rng rng(37);
  RunningStat whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_gaussian() * 3 + 1;
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
}

TEST(Histogram, QuantilesOfUniform) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.add(i);
  EXPECT_NEAR(h.p50(), 5000, 5000 * 0.08);
  EXPECT_NEAR(h.p99(), 9900, 9900 * 0.08);
  EXPECT_EQ(h.count(), 10000u);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.add(10);
  for (int i = 0; i < 100; ++i) b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_GT(a.quantile(0.9), 900);
  EXPECT_LT(a.quantile(0.4), 20);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace hpbdc
