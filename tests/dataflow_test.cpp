// Unit tests for the dataflow engine: Dataset transformations/actions,
// shuffle correctness, and key-value operations.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "dataflow/dataset.hpp"
#include "dataflow/pair_ops.hpp"
#include "dataflow/shuffle.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hpbdc::dataflow {
namespace {

struct DataflowTest : ::testing::Test {
  ThreadPool pool{4};
  Context ctx{pool};
};

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// ---- Dataset basics --------------------------------------------------------------

TEST_F(DataflowTest, ParallelizeCollectPreservesOrder) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(1000), 7);
  EXPECT_EQ(ds.collect(), iota_vec(1000));
  EXPECT_EQ(ds.num_partitions(), 7u);
  EXPECT_EQ(ds.count(), 1000u);
}

TEST_F(DataflowTest, ParallelizeMorePartitionsThanElements) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(3), 10);
  EXPECT_EQ(ds.count(), 3u);
  EXPECT_EQ(ds.collect(), iota_vec(3));
}

TEST_F(DataflowTest, EmptyDataset) {
  auto ds = Dataset<int>::parallelize(ctx, {}, 4);
  EXPECT_EQ(ds.count(), 0u);
  EXPECT_TRUE(ds.collect().empty());
  EXPECT_EQ(ds.map([](int x) { return x * 2; }).count(), 0u);
}

TEST_F(DataflowTest, MapTransforms) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(100));
  auto doubled = ds.map([](int x) { return x * 2; }).collect();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(doubled[static_cast<std::size_t>(i)], 2 * i);
}

TEST_F(DataflowTest, MapChangesType) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(10));
  auto strs = ds.map([](int x) { return std::to_string(x); }).collect();
  EXPECT_EQ(strs[7], "7");
}

TEST_F(DataflowTest, FilterKeepsMatching) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(100));
  auto evens = ds.filter([](int x) { return x % 2 == 0; }).collect();
  EXPECT_EQ(evens.size(), 50u);
  for (int v : evens) EXPECT_EQ(v % 2, 0);
}

TEST_F(DataflowTest, FlatMapExpands) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(10));
  auto out = ds.flat_map([](int x) { return std::vector<int>{x, x, x}; }).collect();
  EXPECT_EQ(out.size(), 30u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[4], 1);
}

TEST_F(DataflowTest, MapPartitions) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(100), 4);
  auto sums = ds.map_partitions([](const std::vector<int>& part) {
    return std::vector<long long>{
        std::accumulate(part.begin(), part.end(), 0LL)};
  });
  long long total = 0;
  for (auto v : sums.collect()) total += v;
  EXPECT_EQ(total, 99LL * 100 / 2);
}

TEST_F(DataflowTest, UnionConcatenates) {
  auto a = Dataset<int>::parallelize(ctx, {1, 2, 3}, 2);
  auto b = Dataset<int>::parallelize(ctx, {4, 5}, 2);
  auto u = a.union_with(b);
  EXPECT_EQ(u.count(), 5u);
  EXPECT_EQ(u.num_partitions(), 4u);
  EXPECT_EQ(u.collect(), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_F(DataflowTest, RepartitionPreservesMultiset) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(100), 3);
  auto rp = ds.repartition(8);
  EXPECT_EQ(rp.num_partitions(), 8u);
  auto v = rp.collect();
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, iota_vec(100));
}

TEST_F(DataflowTest, SampleFractionApproximate) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(20000), 8);
  const auto n = ds.sample(0.25, 7).count();
  EXPECT_GT(n, 20000u / 4 - 700);
  EXPECT_LT(n, 20000u / 4 + 700);
}

TEST_F(DataflowTest, SampleDeterministicPerSeed) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(5000), 8);
  EXPECT_EQ(ds.sample(0.5, 1).collect(), ds.sample(0.5, 1).collect());
  EXPECT_NE(ds.sample(0.5, 1).collect(), ds.sample(0.5, 2).collect());
}

TEST_F(DataflowTest, DistinctRemovesDuplicates) {
  std::vector<int> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 37);
  auto ds = Dataset<int>::parallelize(ctx, v, 5);
  auto d = ds.distinct().collect();
  std::sort(d.begin(), d.end());
  EXPECT_EQ(d, iota_vec(37));
}

TEST_F(DataflowTest, SortByGlobalOrder) {
  Rng rng(3);
  std::vector<std::uint64_t> v(20000);
  for (auto& x : v) x = rng();
  auto ds = Dataset<std::uint64_t>::parallelize(ctx, v, 9);
  auto sorted = ds.sort_by([](std::uint64_t x) { return x; }).collect();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);
}

TEST_F(DataflowTest, SortByCustomKeyDescending) {
  auto ds = Dataset<int>::parallelize(ctx, {3, 1, 4, 1, 5, 9, 2, 6}, 3);
  auto sorted = ds.sort_by([](int x) { return -x; }).collect();
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end(), std::greater<>{}));
}

TEST_F(DataflowTest, ZipWithIndexGlobal) {
  auto ds = Dataset<std::string>::parallelize(ctx, {"a", "b", "c", "d", "e"}, 3);
  auto zipped = ds.zip_with_index().collect();
  ASSERT_EQ(zipped.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(zipped[i].second, i);
    EXPECT_EQ(zipped[i].first, std::string(1, static_cast<char>('a' + i)));
  }
}

TEST_F(DataflowTest, ReduceSum) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(1001), 7);
  const auto sum = ds.map([](int x) { return static_cast<long long>(x); })
                       .reduce(0LL, [](long long a, long long b) { return a + b; });
  EXPECT_EQ(sum, 1000LL * 1001 / 2);
}

TEST_F(DataflowTest, TakeReturnsPrefix) {
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(100), 5);
  EXPECT_EQ(ds.take(3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ds.take(1000).size(), 100u);
}

TEST_F(DataflowTest, LazinessNoComputeUntilAction) {
  std::atomic<int> calls{0};
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(10), 2);
  auto mapped = ds.map([&calls](int x) {
    calls.fetch_add(1);
    return x;
  });
  EXPECT_EQ(calls.load(), 0);  // still lazy
  mapped.count();
  EXPECT_EQ(calls.load(), 10);
}

TEST_F(DataflowTest, CachingComputesOnce) {
  std::atomic<int> calls{0};
  auto ds = Dataset<int>::parallelize(ctx, iota_vec(10), 2);
  auto mapped = ds.map([&calls](int x) {
    calls.fetch_add(1);
    return x * 2;
  });
  mapped.count();
  mapped.collect();
  mapped.reduce(0, [](int a, int b) { return a + b; });
  EXPECT_EQ(calls.load(), 10);  // single materialization
}

TEST_F(DataflowTest, SharedLineageComputedOnce) {
  std::atomic<int> calls{0};
  auto base = Dataset<int>::parallelize(ctx, iota_vec(10), 2).map([&calls](int x) {
    calls.fetch_add(1);
    return x;
  });
  auto a = base.filter([](int x) { return x % 2 == 0; });
  auto b = base.filter([](int x) { return x % 2 == 1; });
  EXPECT_EQ(a.count() + b.count(), 10u);
  EXPECT_EQ(calls.load(), 10);
}

TEST_F(DataflowTest, GenerateBuildsPartitionsLazily) {
  auto ds = Dataset<int>::generate(ctx, 4, [](std::size_t p) {
    return std::vector<int>{static_cast<int>(p), static_cast<int>(p * 10)};
  });
  EXPECT_EQ(ds.count(), 8u);
  EXPECT_EQ(ds.partitions()[2], (std::vector<int>{2, 20}));
}

// ---- shuffle ---------------------------------------------------------------------

TEST_F(DataflowTest, HashShufflePartitionsByKey) {
  Partitions<std::pair<int, int>> in(3);
  Rng rng(4);
  std::map<int, int> expect_counts;
  for (int i = 0; i < 3000; ++i) {
    const int k = static_cast<int>(rng.next_below(100));
    in[static_cast<std::size_t>(i % 3)].emplace_back(k, i);
    ++expect_counts[k];
  }
  auto out = hash_shuffle(ctx, in, 8);
  ASSERT_EQ(out.size(), 8u);
  std::map<int, int> got_counts;
  for (std::size_t p = 0; p < out.size(); ++p) {
    for (const auto& [k, v] : out[p]) {
      ++got_counts[k];
      // co-location: key's partition must match hash % nparts
      EXPECT_EQ(Hasher<int>{}(k) % 8, p);
    }
  }
  EXPECT_EQ(got_counts, expect_counts);
}

TEST_F(DataflowTest, CombiningShuffleMatchesPlainAggregation) {
  Partitions<std::pair<int, long long>> in(4);
  Rng rng(5);
  std::map<int, long long> expect;
  for (int i = 0; i < 5000; ++i) {
    const int k = static_cast<int>(rng.next_below(50));
    const long long v = static_cast<long long>(rng.next_below(100));
    in[static_cast<std::size_t>(i % 4)].emplace_back(k, v);
    expect[k] += v;
  }
  for (bool map_side : {true, false}) {
    auto out = combining_shuffle(
        ctx, in, 6, [](long long a, long long b) { return a + b; }, map_side);
    std::map<int, long long> got;
    for (const auto& part : out) {
      for (const auto& [k, v] : part) {
        EXPECT_FALSE(got.contains(k));  // exactly one record per key
        got[k] = v;
      }
    }
    EXPECT_EQ(got, expect) << "map_side=" << map_side;
  }
}

TEST_F(DataflowTest, CombineReducesShuffledVolumeOnSkew) {
  // Heavily skewed keys: map-side combine collapses most records.
  Partitions<std::pair<int, int>> in(4);
  Rng rng(6);
  ZipfGenerator zipf(100, 1.1);
  for (int i = 0; i < 20000; ++i) {
    in[static_cast<std::size_t>(i % 4)].emplace_back(
        static_cast<int>(zipf.next(rng)), 1);
  }
  // Movement counters now flow through the Context's registry: delta the
  // shuffle.records_moved counter around each variant.
  obs::MetricsRegistry reg;
  Context mctx{pool, {.metrics = &reg}};
  combining_shuffle(mctx, in, 8, [](int a, int b) { return a + b; }, true);
  const std::uint64_t with = reg.counter("shuffle.records_moved").value();
  combining_shuffle(mctx, in, 8, [](int a, int b) { return a + b; }, false);
  const std::uint64_t without = reg.counter("shuffle.records_moved").value() - with;
  EXPECT_EQ(without, 20000u);
  EXPECT_EQ(reg.counter("shuffle.records_in").value(), 40000u);
  EXPECT_LT(with, without / 10);
}

TEST_F(DataflowTest, ShuffleSkewMetricsReportLargestPartition) {
  // Single hot key: every record lands in one output partition, so the skew
  // gauge must equal the full record count.
  Partitions<std::pair<int, int>> in(4);
  for (int i = 0; i < 400; ++i) {
    in[static_cast<std::size_t>(i % 4)].emplace_back(7, i);
  }
  obs::MetricsRegistry reg;
  Context mctx{pool, {.metrics = &reg}};
  hash_shuffle(mctx, in, 8);
  EXPECT_EQ(reg.counter("shuffle.count").value(), 1u);
  EXPECT_EQ(reg.gauge("shuffle.max_partition").value(), 400);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].first, "shuffle.partition_records");
  EXPECT_EQ(snap.histograms[0].second.count(), 8u);  // one sample per partition
}

// ---- pair ops --------------------------------------------------------------------

TEST_F(DataflowTest, ReduceByKeyMatchesSerial) {
  Rng rng(7);
  std::vector<std::pair<std::string, long long>> data;
  std::map<std::string, long long> expect;
  for (int i = 0; i < 5000; ++i) {
    const std::string k = "k" + std::to_string(rng.next_below(64));
    const long long v = static_cast<long long>(rng.next_below(10));
    data.emplace_back(k, v);
    expect[k] += v;
  }
  auto ds = Dataset<std::pair<std::string, long long>>::parallelize(ctx, data, 6);
  auto reduced = reduce_by_key(ds, [](long long a, long long b) { return a + b; });
  std::map<std::string, long long> got;
  for (const auto& [k, v] : reduced.collect()) got[k] = v;
  EXPECT_EQ(got, expect);
}

TEST_F(DataflowTest, GroupByKeyCollectsAllValues) {
  std::vector<std::pair<int, int>> data{{1, 10}, {2, 20}, {1, 11}, {3, 30}, {1, 12}};
  auto ds = Dataset<std::pair<int, int>>::parallelize(ctx, data, 3);
  auto grouped = group_by_key(ds).collect();
  std::map<int, std::multiset<int>> got;
  for (auto& [k, vs] : grouped) got[k] = std::multiset<int>(vs.begin(), vs.end());
  EXPECT_EQ(got[1], (std::multiset<int>{10, 11, 12}));
  EXPECT_EQ(got[2], (std::multiset<int>{20}));
  EXPECT_EQ(got.size(), 3u);
}

TEST_F(DataflowTest, JoinInner) {
  auto left = Dataset<std::pair<int, std::string>>::parallelize(
      ctx, {{1, "a"}, {2, "b"}, {3, "c"}, {1, "a2"}}, 2);
  auto right = Dataset<std::pair<int, double>>::parallelize(
      ctx, {{1, 1.5}, {3, 3.5}, {4, 4.5}}, 2);
  auto joined = join(left, right).collect();
  std::multiset<std::string> got;
  for (const auto& [k, vw] : joined) {
    got.insert(std::to_string(k) + ":" + vw.first + ":" + std::to_string(vw.second));
  }
  EXPECT_EQ(joined.size(), 3u);  // keys 1 (x2) and 3
  EXPECT_TRUE(got.contains("1:a:1.500000"));
  EXPECT_TRUE(got.contains("1:a2:1.500000"));
  EXPECT_TRUE(got.contains("3:c:3.500000"));
}

TEST_F(DataflowTest, LeftOuterJoinKeepsUnmatched) {
  auto left = Dataset<std::pair<int, int>>::parallelize(ctx, {{1, 10}, {2, 20}}, 2);
  auto right = Dataset<std::pair<int, int>>::parallelize(ctx, {{1, 100}}, 2);
  auto joined = left_outer_join(left, right).collect();
  ASSERT_EQ(joined.size(), 2u);
  for (const auto& [k, vw] : joined) {
    if (k == 1) {
      ASSERT_TRUE(vw.second.has_value());
      EXPECT_EQ(*vw.second, 100);
    } else {
      EXPECT_FALSE(vw.second.has_value());
    }
  }
}

TEST_F(DataflowTest, CogroupBothSides) {
  auto left = Dataset<std::pair<int, int>>::parallelize(ctx, {{1, 1}, {1, 2}, {2, 3}}, 2);
  auto right = Dataset<std::pair<int, int>>::parallelize(ctx, {{1, 9}, {3, 8}}, 2);
  auto cg = cogroup(left, right).collect();
  std::map<int, std::pair<std::size_t, std::size_t>> sizes;
  for (const auto& [k, lr] : cg) sizes[k] = {lr.first.size(), lr.second.size()};
  const std::pair<std::size_t, std::size_t> e1{2, 1}, e2{1, 0}, e3{0, 1};
  EXPECT_EQ(sizes[1], e1);
  EXPECT_EQ(sizes[2], e2);
  EXPECT_EQ(sizes[3], e3);
}

TEST_F(DataflowTest, CountByKey) {
  auto ds = Dataset<std::pair<std::string, int>>::parallelize(
      ctx, {{"x", 0}, {"y", 0}, {"x", 0}}, 2);
  auto counts = count_by_key(ds);
  std::map<std::string, std::size_t> got(counts.begin(), counts.end());
  EXPECT_EQ(got["x"], 2u);
  EXPECT_EQ(got["y"], 1u);
}

TEST_F(DataflowTest, TopKByValue) {
  std::vector<std::pair<std::string, int>> data;
  for (int i = 0; i < 100; ++i) data.emplace_back("k" + std::to_string(i), i);
  auto ds = Dataset<std::pair<std::string, int>>::parallelize(ctx, data, 5);
  auto top = top_k_by_value(ds, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].second, 99);
  EXPECT_EQ(top[1].second, 98);
  EXPECT_EQ(top[2].second, 97);
}

TEST_F(DataflowTest, SaltedReduceByKeyMatchesPlain) {
  Rng rng(8);
  ZipfGenerator zipf(50, 1.2);  // heavy skew: rank 0 dominates
  std::vector<std::pair<int, long long>> data;
  std::map<int, long long> expect;
  for (int i = 0; i < 10000; ++i) {
    const int k = static_cast<int>(zipf.next(rng));
    data.emplace_back(k, 1);
    expect[k] += 1;
  }
  auto ds = Dataset<std::pair<int, long long>>::parallelize(ctx, data, 6);
  auto salted =
      salted_reduce_by_key(ds, [](long long a, long long b) { return a + b; }, 8);
  std::map<int, long long> got;
  for (const auto& [k, v] : salted.collect()) {
    EXPECT_FALSE(got.contains(k));  // exactly one record per key
    got[k] = v;
  }
  EXPECT_EQ(got, expect);
}

TEST_F(DataflowTest, SaltedReduceSingleSaltDegeneratesToPlain) {
  auto ds = Dataset<std::pair<int, int>>::parallelize(ctx, {{1, 2}, {1, 3}, {2, 5}}, 2);
  auto r = salted_reduce_by_key(ds, [](int a, int b) { return a + b; }, 1);
  std::map<int, int> got;
  for (const auto& [k, v] : r.collect()) got[k] = v;
  EXPECT_EQ(got[1], 5);
  EXPECT_EQ(got[2], 5);
}

TEST_F(DataflowTest, BroadcastJoinMatchesShuffleJoin) {
  Rng rng(9);
  std::vector<std::pair<int, int>> left_data;
  for (int i = 0; i < 3000; ++i) {
    left_data.emplace_back(static_cast<int>(rng.next_below(100)), i);
  }
  std::vector<std::pair<int, std::string>> right_data;
  for (int k = 0; k < 100; k += 2) {
    right_data.emplace_back(k, "dim" + std::to_string(k));
  }
  auto left = Dataset<std::pair<int, int>>::parallelize(ctx, left_data, 5);
  auto right = Dataset<std::pair<int, std::string>>::parallelize(ctx, right_data, 2);

  auto to_set = [](const auto& rows) {
    std::multiset<std::string> s;
    for (const auto& [k, vw] : rows) {
      s.insert(std::to_string(k) + "|" + std::to_string(vw.first) + "|" + vw.second);
    }
    return s;
  };
  EXPECT_EQ(to_set(broadcast_join(left, right).collect()),
            to_set(join(left, right).collect()));
}

TEST_F(DataflowTest, BroadcastJoinEmptyRight) {
  auto left = Dataset<std::pair<int, int>>::parallelize(ctx, {{1, 1}}, 1);
  auto right = Dataset<std::pair<int, int>>::parallelize(ctx, {}, 1);
  EXPECT_EQ(broadcast_join(left, right).count(), 0u);
}

TEST_F(DataflowTest, SortMergeJoinMatchesHashJoin) {
  Rng rng(10);
  std::vector<std::pair<int, int>> l_data, r_data;
  for (int i = 0; i < 2000; ++i) {
    l_data.emplace_back(static_cast<int>(rng.next_below(200)), i);
  }
  for (int i = 0; i < 500; ++i) {
    r_data.emplace_back(static_cast<int>(rng.next_below(200)), -i);
  }
  auto left = Dataset<std::pair<int, int>>::parallelize(ctx, l_data, 4);
  auto right = Dataset<std::pair<int, int>>::parallelize(ctx, r_data, 3);
  auto to_set = [](const auto& rows) {
    std::multiset<std::tuple<int, int, int>> s;
    for (const auto& [k, vw] : rows) s.insert({k, vw.first, vw.second});
    return s;
  };
  EXPECT_EQ(to_set(sort_merge_join(left, right).collect()),
            to_set(join(left, right).collect()));
}

TEST_F(DataflowTest, SortMergeJoinDuplicateKeysCrossProduct) {
  auto left = Dataset<std::pair<int, char>>::parallelize(ctx, {{1, 'a'}, {1, 'b'}}, 1);
  auto right = Dataset<std::pair<int, char>>::parallelize(ctx, {{1, 'x'}, {1, 'y'}}, 1);
  EXPECT_EQ(sort_merge_join(left, right).count(), 4u);
}

TEST_F(DataflowTest, MapValuesKeysValues) {
  auto ds = Dataset<std::pair<int, int>>::parallelize(ctx, {{1, 2}, {3, 4}}, 1);
  auto doubled = map_values(ds, [](int v) { return v * 2; }).collect();
  EXPECT_EQ(doubled[0].second, 4);
  auto ks = keys(ds).collect();
  auto vs = values(ds).collect();
  EXPECT_EQ(ks, (std::vector<int>{1, 3}));
  EXPECT_EQ(vs, (std::vector<int>{2, 4}));
}

// ---- observability ---------------------------------------------------------------

TEST_F(DataflowTest, ReduceByKeyRecordCounters) {
  // 4 partitions x 250 records, keys 0..9 (25 duplicates of each key per
  // partition). Map-side combine sends exactly one record per (partition,
  // key) across the boundary: 4 * 10 = 40 moved of 1000 in.
  obs::MetricsRegistry reg;
  Context mctx{pool, {.metrics = &reg}};
  auto ds = Dataset<std::pair<int, int>>::generate(mctx, 4, [](std::size_t) {
    std::vector<std::pair<int, int>> part;
    for (int i = 0; i < 250; ++i) part.emplace_back(i % 10, 1);
    return part;
  });
  auto reduced = reduce_by_key(
      ds, [](int a, int b) { return a + b; }, 8, true);
  auto out = reduced.collect();
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(reg.counter("shuffle.records_in").value(), 1000u);
  EXPECT_EQ(reg.counter("shuffle.records_moved").value(), 40u);
  EXPECT_EQ(reg.counter("shuffle.count").value(), 1u);
  EXPECT_EQ(reg.counter("dataflow.cache.miss").value(), 2u);  // generate + reduce
}

TEST_F(DataflowTest, CacheHitMissCounters) {
  obs::MetricsRegistry reg;
  Context mctx{pool, {.metrics = &reg}};
  auto ds = Dataset<int>::parallelize(mctx, iota_vec(100), 4);
  EXPECT_EQ(ds.count(), 100u);  // first materialization: miss
  EXPECT_EQ(ds.count(), 100u);  // memoized: hit
  EXPECT_EQ(reg.counter("dataflow.cache.miss").value(), 1u);
  EXPECT_EQ(reg.counter("dataflow.cache.hit").value(), 1u);
  EXPECT_EQ(reg.counter("dataflow.map.records_in").value(), 0u);
}

TEST_F(DataflowTest, MapFilterRecordCounters) {
  obs::MetricsRegistry reg;
  Context mctx{pool, {.metrics = &reg}};
  auto ds = Dataset<int>::parallelize(mctx, iota_vec(1000), 8);
  auto kept = ds.map([](int x) { return x + 1; })
                  .filter([](int x) { return x % 2 == 0; });
  EXPECT_EQ(kept.count(), 500u);
  EXPECT_EQ(reg.counter("dataflow.map.records_in").value(), 1000u);
  EXPECT_EQ(reg.counter("dataflow.map.records_out").value(), 1000u);
  EXPECT_EQ(reg.counter("dataflow.filter.records_in").value(), 1000u);
  EXPECT_EQ(reg.counter("dataflow.filter.records_out").value(), 500u);
}

TEST_F(DataflowTest, ActionsEmitStageSpans) {
  obs::TraceSession trace;
  Context tctx{pool, {.trace = &trace}};
  auto ds = Dataset<int>::parallelize(tctx, iota_vec(100), 4);
  auto pairs = ds.map([](int x) { return std::pair<int, int>{x % 5, x}; });
  (void)reduce_by_key(pairs, [](int a, int b) { return a + b; }).collect();
  std::set<std::string> names;
  for (const auto& ev : trace.events()) names.insert(ev.name);
  EXPECT_TRUE(names.contains("collect"));
  EXPECT_TRUE(names.contains("reduce_by_key"));
  EXPECT_TRUE(names.contains("combining_shuffle"));
}

TEST_F(DataflowTest, ExceptionInInstrumentedActionClosesSpan) {
  // A throwing map fn must propagate through TaskGroup::wait() out of the
  // action, and the action's span must still be recorded (RAII close during
  // unwinding), leaving the trace well-formed.
  obs::TraceSession trace;
  obs::MetricsRegistry reg;
  Context tctx{pool, {.metrics = &reg, .trace = &trace}};
  auto ds = Dataset<int>::parallelize(tctx, iota_vec(100), 4);
  auto bad = ds.map([](int x) {
    if (x == 57) throw std::runtime_error("poison record");
    return x;
  });
  EXPECT_THROW(bad.collect(), std::runtime_error);
  std::size_t collect_spans = 0;
  for (const auto& ev : trace.events()) {
    if (ev.name == "collect") ++collect_spans;
  }
  EXPECT_EQ(collect_spans, 1u);
  // The trace still serializes to valid JSON (quick structural check).
  std::ostringstream os;
  trace.write_chrome_json(os);
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace hpbdc::dataflow
