// Cross-cutting randomized property tests: multi-seed round-trip and
// invariant sweeps that complement the per-module suites with broader
// input coverage. Every case is deterministic per seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "dataflow/dataset.hpp"
#include "dataflow/pair_ops.hpp"
#include "dataflow/shuffle.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "sim/dfs.hpp"
#include "storage/compression.hpp"
#include "storage/hash_ring.hpp"
#include "storage/reed_solomon.hpp"

namespace hpbdc {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, Seeded, ::testing::Values(11, 22, 33, 44, 55, 66));

// ---- serialization fuzz ---------------------------------------------------------

TEST_P(Seeded, SerdeRandomNestedRoundTrip) {
  Rng rng(GetParam());
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> v;
  const auto n = rng.next_below(50);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    const auto klen = rng.next_below(40);
    for (std::uint64_t c = 0; c < klen; ++c) {
      key.push_back(static_cast<char>(rng.next_below(256)));  // binary-safe
    }
    std::vector<std::uint64_t> vals(rng.next_below(20));
    for (auto& x : vals) x = rng();
    v.emplace_back(std::move(key), std::move(vals));
  }
  const auto bytes = to_bytes(v);
  EXPECT_EQ((from_bytes<std::vector<std::pair<std::string, std::vector<std::uint64_t>>>>(
                bytes)),
            v);
}

TEST_P(Seeded, SerdeTruncationAlwaysThrowsNeverUB) {
  // Any strict prefix of a valid encoding must throw, not misparse.
  Rng rng(GetParam());
  std::vector<std::string> v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(std::string(rng.next_below(30) + 1, 'x'));
  }
  auto bytes = to_bytes(v);
  for (int trial = 0; trial < 20; ++trial) {
    const auto cut = rng.next_below(bytes.size());
    Bytes prefix(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(from_bytes<std::vector<std::string>>(prefix), std::runtime_error)
        << "cut=" << cut;
  }
}

// ---- compression fuzz -------------------------------------------------------------

TEST_P(Seeded, LzssStructuredRandomRoundTrip) {
  // Random data with planted repeats at random distances (the adversarial
  // shape for match-finder bugs).
  Rng rng(GetParam());
  storage::ByteVec data;
  while (data.size() < 300000) {
    if (!data.empty() && rng.next_bool(0.3)) {
      const auto len = 4 + rng.next_below(500);
      const auto start = rng.next_below(data.size());
      for (std::uint64_t i = 0; i < len; ++i) {
        data.push_back(data[start + (i % (data.size() - start))]);
      }
    } else {
      const auto len = 1 + rng.next_below(200);
      for (std::uint64_t i = 0; i < len; ++i) {
        data.push_back(static_cast<std::uint8_t>(rng()));
      }
    }
  }
  EXPECT_EQ(storage::Lzss::decompress(storage::Lzss::compress(data)), data);
}

// ---- Reed–Solomon random erasures ----------------------------------------------------

TEST_P(Seeded, RsRandomErasurePatterns) {
  Rng rng(GetParam());
  const std::size_t k = 2 + rng.next_below(8);
  const std::size_t m = 1 + rng.next_below(4);
  storage::ReedSolomon rs(k, m);
  std::vector<storage::Shard> data(k, storage::Shard(100));
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
  }
  auto parity = rs.encode(data);
  for (int trial = 0; trial < 10; ++trial) {
    // Lose a random subset of size <= m.
    std::vector<std::optional<storage::Shard>> shards(k + m);
    for (std::size_t i = 0; i < k; ++i) shards[i] = data[i];
    for (std::size_t i = 0; i < m; ++i) shards[k + i] = parity[i];
    const auto losses = rng.next_below(m + 1);
    for (std::uint64_t l = 0; l < losses; ++l) {
      shards[rng.next_below(k + m)].reset();  // duplicates fine: <= m losses
    }
    EXPECT_EQ(rs.decode(shards), data) << "k=" << k << " m=" << m;
  }
}

// ---- shuffle conservation --------------------------------------------------------------

TEST_P(Seeded, ShufflePreservesEveryRecord) {
  ThreadPool pool(4);
  dataflow::Context ctx(pool);
  Rng rng(GetParam());
  dataflow::Partitions<std::pair<std::uint64_t, std::uint64_t>> in(
      1 + rng.next_below(8));
  std::map<std::uint64_t, std::uint64_t> expect;
  const auto records = rng.next_below(30000);
  for (std::uint64_t i = 0; i < records; ++i) {
    const auto k = rng.next_below(500);
    in[i % in.size()].emplace_back(k, 1);
    ++expect[k];
  }
  const auto parts = 1 + rng.next_below(16);
  auto out = dataflow::combining_shuffle(
      ctx, in, parts, [](std::uint64_t a, std::uint64_t b) { return a + b; },
      rng.next_bool(0.5));
  std::map<std::uint64_t, std::uint64_t> got;
  for (const auto& p : out) {
    for (const auto& [k, v] : p) got[k] += v;
  }
  EXPECT_EQ(got, expect);
}

// ---- exec primitives: grain=0 convention across the serial-fallback edge ---------

TEST_P(Seeded, ParallelSortGrainZeroMatchesStdSortAcrossFallbackEdge) {
  // parallel_sort drops to std::sort below 2048 elements; grain=0 must pick
  // a sane default on both sides of that edge, and explicit grains (down to
  // pathological 1-element blocks) must agree with the serial answer.
  ThreadPool pool(4);
  Rng rng(GetParam());
  const std::size_t sizes[] = {0,    1,    2,    2047,
                               2048, 2049, 4096, 2048 + rng.next_below(8192)};
  for (const std::size_t n : sizes) {
    std::vector<std::uint64_t> base(n);
    for (auto& v : base) v = rng.next_below(1000);  // duplicates likely
    auto expect = base;
    std::sort(expect.begin(), expect.end());
    for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                    std::size_t{37}, std::size_t{1024}, n}) {
      if (grain == 1 && n > 4096) continue;  // one task per element: keep it quick
      auto got = base;
      parallel_sort(pool, got.begin(), got.end(), std::less<>{}, grain);
      ASSERT_EQ(got, expect) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST_P(Seeded, ParallelScanGrainZeroMatchesSerialAcrossFallbackEdge) {
  // Same convention for the two-pass scan (serial fallback below 4096).
  ThreadPool pool(4);
  Rng rng(GetParam());
  const std::size_t sizes[] = {0,    1,    4095, 4096,
                               4097, 8192, 4096 + rng.next_below(8192)};
  for (const std::size_t n : sizes) {
    std::vector<std::uint64_t> in(n);
    for (auto& v : in) v = rng.next_below(1 << 20);
    std::vector<std::uint64_t> expect(n);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) expect[i] = acc += in[i];
    for (const std::size_t grain :
         {std::size_t{0}, std::size_t{13}, std::size_t{1024}, n}) {
      std::vector<std::uint64_t> got;
      parallel_inclusive_scan(
          pool, in, got, [](std::uint64_t a, std::uint64_t b) { return a + b; },
          std::uint64_t{0}, grain);
      ASSERT_EQ(got, expect) << "n=" << n << " grain=" << grain;
    }
  }
}

// ---- binary-safe keys through the dataflow shuffle -------------------------------

TEST_P(Seeded, BinarySafeStringKeysSurviveReduceByKey) {
  // Keys with embedded NULs, 0xFF runs, and arbitrary bytes must hash,
  // shuffle, and compare correctly — any sloppy C-string handling in the
  // shuffle path truncates at the first NUL and merges distinct keys.
  ThreadPool pool(4);
  dataflow::Context ctx(pool);
  Rng rng(GetParam());
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 40; ++i) {
    std::string k(1 + rng.next_below(12), '\0');
    for (auto& c : k) c = static_cast<char>(rng.next_below(256));
    keys.push_back(std::move(k));
  }
  keys.emplace_back("\0", 1);          // lone NUL
  keys.emplace_back("\0\0", 2);        // NUL-prefix pair: distinct from above
  keys.emplace_back("a\0b", 3);        // NUL in the middle
  keys.emplace_back("a\0c", 3);        // differs only after the NUL
  keys.emplace_back(4, '\xff');

  std::vector<std::pair<std::string, std::uint64_t>> rows;
  std::map<std::string, std::uint64_t> expect;
  const auto records = 2000 + rng.next_below(4000);
  for (std::uint64_t i = 0; i < records; ++i) {
    const auto& k = keys[rng.next_below(keys.size())];
    rows.emplace_back(k, i);
    expect[k] += i;
  }
  auto ds = dataflow::Dataset<std::pair<std::string, std::uint64_t>>::parallelize(
      ctx, rows, 1 + rng.next_below(8));
  auto reduced = dataflow::reduce_by_key(
      ds, [](std::uint64_t a, std::uint64_t b) { return a + b; },
      1 + rng.next_below(8), rng.next_bool(0.5));
  std::map<std::string, std::uint64_t> got;
  for (auto& [k, v] : reduced.collect()) {
    ASSERT_EQ(got.count(k), 0u);  // each key appears exactly once post-reduce
    got[k] = v;
  }
  EXPECT_EQ(got, expect);
}

// ---- EC placement / consistent-hash ring ----------------------------------------

// Anti-affinity is an INVARIANT of the EC storage path, not a property of
// the initial placement only: after any random sequence of node fails,
// recoveries, and repair passes, no node may hold live shards of two
// different slots of one stripe. ~200 randomized steps per seed.
TEST_P(Seeded, EcPlacementAntiAffinitySurvivesFailRecoverRepair) {
  Rng rng(GetParam() * 977 + 5);
  sim::Simulator sim;
  sim::NetworkConfig nc;
  nc.nodes = 16;
  nc.topology = sim::Topology::kFatTree;
  nc.hosts_per_rack = 4;
  nc.racks_per_pod = 2;
  sim::Network net(sim, nc);
  sim::Comm comm(sim, net);
  sim::DfsConfig cfg;
  cfg.ec_data_shards = 4;
  cfg.ec_parity_shards = 2;
  cfg.block_size = 1 << 20;
  sim::Dfs dfs(comm, cfg);
  for (int i = 0; i < 6; ++i) {
    dfs.write(rng.next_below(16), "/ec" + std::to_string(i), (3u << 20) - 17,
              sim::StoragePolicy::kErasureCoded, [](bool ok) { ASSERT_TRUE(ok); });
  }
  sim.run();

  auto check_anti_affinity = [&dfs](const char* when) {
    for (const auto& name : dfs.ec_file_names()) {
      for (std::size_t b = 0; b < dfs.block_count(name); ++b) {
        std::set<std::size_t> live;
        for (const auto& holders : dfs.stripe_locations(name, b)) {
          for (auto n : holders) {
            if (dfs.node_down(n)) continue;
            EXPECT_TRUE(live.insert(n).second)
                << when << ": node " << n << " holds two live shards of "
                << name << " block " << b;
          }
        }
      }
    }
  };
  check_anti_affinity("initial placement");

  std::vector<std::size_t> down;
  for (int step = 0; step < 200; ++step) {
    const auto roll = rng.next_below(100);
    if (roll < 35 && down.size() < 3) {
      std::size_t n = rng.next_below(16);
      while (std::find(down.begin(), down.end(), n) != down.end()) {
        n = rng.next_below(16);
      }
      dfs.fail_node(n);
      down.push_back(n);
    } else if (roll < 65 && !down.empty()) {
      const std::size_t i = rng.next_below(down.size());
      dfs.recover_node(down[i]);
      down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      dfs.re_replicate([] {});
    }
    sim.run();
    check_anti_affinity("after step");
  }
}

// Consistent-hash rebalance bound, stated exactly: removing a node changes
// a key's lookup_n replica set iff the removed node WAS in that set. As a
// corollary the fraction of keys whose owner moves is the fraction the node
// owned — about 1/n with vnode smoothing, never a global reshuffle.
TEST_P(Seeded, HashRingRemovalMovesOnlyVictimReplicaSets) {
  Rng rng(GetParam() * 31 + 7);
  storage::HashRing ring(64);
  const std::size_t n = 8 + rng.next_below(8);
  for (std::size_t i = 0; i < n; ++i) ring.add_node(i);

  constexpr std::size_t kKeys = 500, r = 3;
  std::vector<std::string> keys;
  std::vector<std::vector<std::uint64_t>> before;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back("key-" + std::to_string(rng()));
    before.push_back(ring.lookup_n(keys.back(), r));
  }
  const std::uint64_t victim = rng.next_below(n);
  ring.remove_node(victim);

  std::size_t owners_moved = 0, owned_by_victim = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const auto after = ring.lookup_n(keys[i], r);
    const bool had_victim =
        std::find(before[i].begin(), before[i].end(), victim) != before[i].end();
    if (!had_victim) {
      EXPECT_EQ(after, before[i]) << keys[i];
    } else {
      EXPECT_NE(after, before[i]) << keys[i];
      // Survivors keep their relative ring order; only the victim's slot is
      // refilled from further clockwise.
      std::vector<std::uint64_t> kept;
      for (auto node : before[i]) {
        if (node != victim) kept.push_back(node);
      }
      for (std::size_t j = 0; j < kept.size(); ++j) EXPECT_EQ(after[j], kept[j]);
    }
    owned_by_victim += before[i][0] == victim;
    owners_moved += after[0] != before[i][0];
  }
  EXPECT_EQ(owners_moved, owned_by_victim);
  // Vnode smoothing keeps the victim's share near 1/n; allow wide slack
  // (3x expectation + constant) so the bound never flakes across seeds.
  EXPECT_LE(owners_moved, 3 * kKeys / n + 25);
}

}  // namespace
}  // namespace hpbdc
