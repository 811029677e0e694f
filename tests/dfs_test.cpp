// Tests for the simulated distributed file system: disks, placement,
// pipelined writes, locality-aware reads, failure and re-replication.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/dfs.hpp"

namespace hpbdc::sim {
namespace {

struct DfsFixture {
  Simulator sim;
  Network net;
  Comm comm;
  Dfs dfs;

  explicit DfsFixture(DfsConfig cfg = {}, NetworkConfig nc = fat_tree_16())
      : net(sim, nc), comm(sim, net), dfs(comm, cfg) {}

  static NetworkConfig fat_tree_16() {
    NetworkConfig nc;
    nc.nodes = 16;
    nc.topology = Topology::kFatTree;
    nc.hosts_per_rack = 4;
    nc.racks_per_pod = 2;
    return nc;
  }
};

constexpr std::uint64_t MiB = 1ULL << 20;

// ---- Disk ------------------------------------------------------------------------

TEST(Disk, SerializesConcurrentAccesses) {
  Simulator sim;
  Disk disk(100e6, 1e-3);  // 100 MB/s, 1 ms seek
  std::vector<double> done;
  disk.access(sim, 100 * MiB / 100, [&] { done.push_back(sim.now()); });  // ~1 MiB
  disk.access(sim, 100 * MiB / 100, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double one = 1e-3 + static_cast<double>(MiB) / 100e6;
  EXPECT_NEAR(done[0], one, 1e-9);
  EXPECT_NEAR(done[1], 2 * one, 1e-9);
}

// ---- write/read ------------------------------------------------------------------

TEST(Dfs, WriteThenReadSucceeds) {
  DfsFixture f;
  bool wrote = false, read = false;
  f.dfs.write(0, "/data/file1", 100 * MiB, [&](bool ok) { wrote = ok; });
  f.sim.run();
  EXPECT_TRUE(wrote);
  EXPECT_TRUE(f.dfs.exists("/data/file1"));
  EXPECT_EQ(f.dfs.file_size("/data/file1"), 100 * MiB);
  f.dfs.read(5, "/data/file1", [&](bool ok) { read = ok; });
  f.sim.run();
  EXPECT_TRUE(read);
  EXPECT_EQ(f.dfs.stats().bytes_read, 100 * MiB);
}

TEST(Dfs, SplitsIntoBlocks) {
  DfsConfig cfg;
  cfg.block_size = 64 * MiB;
  DfsFixture f(cfg);
  f.dfs.write(0, "/f", 200 * MiB, [](bool) {});
  f.sim.run();
  EXPECT_EQ(f.dfs.stats().blocks_written, 4u);  // 64+64+64+8
  EXPECT_EQ(f.dfs.block_locations("/f", 3).size(), 3u);
}

TEST(Dfs, DuplicateNameAndZeroSizeRejected) {
  DfsFixture f;
  bool first = false, dup = true, zero = true;
  f.dfs.write(0, "/f", MiB, [&](bool ok) { first = ok; });
  f.sim.run();
  f.dfs.write(0, "/f", MiB, [&](bool ok) { dup = ok; });
  f.dfs.write(0, "/g", 0, [&](bool ok) { zero = ok; });
  f.sim.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(dup);
  EXPECT_FALSE(zero);
}

TEST(Dfs, ReadMissingFileFails) {
  DfsFixture f;
  bool ok = true;
  f.dfs.read(0, "/nope", [&](bool r) { ok = r; });
  f.sim.run();
  EXPECT_FALSE(ok);
}

// ---- placement -------------------------------------------------------------------

TEST(Dfs, FirstReplicaOnWriter) {
  DfsFixture f;
  f.dfs.write(7, "/f", MiB, [](bool) {});
  f.sim.run();
  EXPECT_EQ(f.dfs.block_locations("/f", 0)[0], 7u);
}

TEST(Dfs, RackAwarePlacementSpansTwoRacks) {
  DfsFixture f;
  f.dfs.write(0, "/f", MiB, [](bool) {});
  f.sim.run();
  const auto locs = f.dfs.block_locations("/f", 0);
  ASSERT_EQ(locs.size(), 3u);
  std::set<std::size_t> racks;
  for (auto n : locs) racks.insert(f.dfs.rack_of(n));
  EXPECT_EQ(racks.size(), 2u);  // writer's rack + one remote rack
  // Replicas 2 and 3 share the remote rack.
  EXPECT_EQ(f.dfs.rack_of(locs[1]), f.dfs.rack_of(locs[2]));
  EXPECT_NE(f.dfs.rack_of(locs[0]), f.dfs.rack_of(locs[1]));
}

TEST(Dfs, ReplicasDistinct) {
  DfsFixture f;
  for (int i = 0; i < 20; ++i) {
    f.dfs.write(static_cast<std::size_t>(i) % 16, "/f" + std::to_string(i), MiB,
                [](bool) {});
  }
  f.sim.run();
  for (int i = 0; i < 20; ++i) {
    const auto locs = f.dfs.block_locations("/f" + std::to_string(i), 0);
    std::set<std::size_t> uniq(locs.begin(), locs.end());
    EXPECT_EQ(uniq.size(), locs.size());
  }
}

TEST(Dfs, WriteFailsWithTooFewLiveNodes) {
  DfsConfig cfg;
  cfg.replication = 3;
  NetworkConfig nc;
  nc.nodes = 4;
  DfsFixture f(cfg, nc);
  f.dfs.fail_node(1);
  f.dfs.fail_node(2);
  bool ok = true;
  f.dfs.write(0, "/f", MiB, [&](bool r) { ok = r; });
  f.sim.run();
  EXPECT_FALSE(ok);  // only 2 live nodes for 3 replicas
}

// ---- locality --------------------------------------------------------------------

TEST(Dfs, LocalReadPreferred) {
  DfsFixture f;
  f.dfs.write(3, "/f", MiB, [](bool) {});
  f.sim.run();
  f.dfs.read(3, "/f", [](bool) {});  // reader co-located with replica 1
  f.sim.run();
  EXPECT_EQ(f.dfs.stats().local_reads, 1u);
}

TEST(Dfs, LocalReadFasterThanRemote) {
  auto timed_read = [](std::size_t writer, std::size_t reader) {
    DfsFixture f;
    f.dfs.write(writer, "/f", 64 * MiB, [](bool) {});
    f.sim.run();
    const double start = f.sim.now();
    double end = -1;
    f.dfs.read(reader, "/f", [&](bool) { end = f.sim.now(); });
    f.sim.run();
    return end - start;
  };
  // Reader at the writer node (local) vs a node in a third rack (remote).
  EXPECT_LT(timed_read(0, 0), timed_read(0, 12));
}

// ---- failure & repair ------------------------------------------------------------

TEST(Dfs, ReadSurvivesSingleReplicaFailure) {
  DfsFixture f;
  f.dfs.write(0, "/f", MiB, [](bool) {});
  f.sim.run();
  const auto locs = f.dfs.block_locations("/f", 0);
  f.dfs.fail_node(locs[0]);
  bool ok = false;
  f.dfs.read(15, "/f", [&](bool r) { ok = r; });
  f.sim.run();
  EXPECT_TRUE(ok);
}

TEST(Dfs, ReadFailsWhenAllReplicasDown) {
  DfsFixture f;
  f.dfs.write(0, "/f", MiB, [](bool) {});
  f.sim.run();
  for (auto n : f.dfs.block_locations("/f", 0)) f.dfs.fail_node(n);
  bool ok = true;
  f.dfs.read(15, "/f", [&](bool r) { ok = r; });
  f.sim.run();
  EXPECT_FALSE(ok);
}

TEST(Dfs, ReReplicationRestoresFactorAndReadability) {
  DfsFixture f;
  f.dfs.write(0, "/f", 64 * MiB, [](bool) {});
  f.sim.run();
  const auto before = f.dfs.block_locations("/f", 0);
  f.dfs.fail_node(before[1]);
  f.dfs.fail_node(before[2]);
  bool repaired = false;
  f.dfs.re_replicate([&] { repaired = true; });
  f.sim.run();
  EXPECT_TRUE(repaired);
  EXPECT_GT(f.dfs.stats().re_replications, 0u);
  // Now kill the last original replica; reads must still succeed via the
  // new copies.
  f.dfs.fail_node(before[0]);
  bool ok = false;
  f.dfs.read(15, "/f", [&](bool r) { ok = r; });
  f.sim.run();
  EXPECT_TRUE(ok);
}

// A pipeline target dying while the write is still streaming must not sink the
// write: the chain routes around the dead node, metadata drops the lost copy,
// and re-replication can later restore the factor.
TEST(Dfs, MidWritePipelineNodeFailure) {
  DfsFixture f;
  bool ok = false;
  f.dfs.write(0, "/f", 128 * MiB, [&](bool r) { ok = r; });
  // Placement is decided synchronously at write(); kill the second replica in
  // block 0's chain before the store-and-forward hop reaches it.
  const auto planned = f.dfs.block_locations("/f", 0);
  ASSERT_EQ(planned.size(), 3u);
  const std::size_t victim = planned[1];
  f.sim.schedule_after(0.1, [&] { f.dfs.fail_node(victim); });
  f.sim.run();
  EXPECT_TRUE(ok);  // every block kept at least one durable copy
  const auto after = f.dfs.block_locations("/f", 0);
  EXPECT_LT(after.size(), 3u);
  EXPECT_EQ(std::find(after.begin(), after.end(), victim), after.end());
  bool repaired = false;
  f.dfs.re_replicate([&] { repaired = true; });
  f.sim.run();
  EXPECT_TRUE(repaired);
  EXPECT_EQ(f.dfs.block_locations("/f", 0).size(), 3u);
  bool read_ok = false;
  f.dfs.read(15, "/f", [&](bool r) { read_ok = r; });
  f.sim.run();
  EXPECT_TRUE(read_ok);
}

// Transient outage: fail -> re-replicate -> recover leaves the block
// over-replicated (the recovered node still has its copy); the next
// re-replication pass trims back down to the configured factor.
TEST(Dfs, ReReplicationThenRecoveryTrims) {
  DfsFixture f;
  f.dfs.write(0, "/f", MiB, [](bool) {});
  f.sim.run();
  const auto before = f.dfs.block_locations("/f", 0);
  ASSERT_EQ(before.size(), 3u);
  f.dfs.fail_node(before[1]);
  f.dfs.re_replicate([] {});
  f.sim.run();
  EXPECT_GT(f.dfs.stats().re_replications, 0u);
  f.dfs.recover_node(before[1]);  // comes back with its data intact
  f.dfs.re_replicate([] {});
  f.sim.run();
  EXPECT_GE(f.dfs.stats().replicas_trimmed, 1u);
  const auto after = f.dfs.block_locations("/f", 0);
  EXPECT_EQ(after.size(), 3u);
  EXPECT_EQ(std::set<std::size_t>(after.begin(), after.end()).size(), 3u);
  bool ok = false;
  f.dfs.read(15, "/f", [&](bool r) { ok = r; });
  f.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_THROW(f.dfs.recover_node(99), std::out_of_range);
}

TEST(Dfs, ReReplicateNoopWhenHealthy) {
  DfsFixture f;
  f.dfs.write(0, "/f", MiB, [](bool) {});
  f.sim.run();
  bool called = false;
  f.dfs.re_replicate([&] { called = true; });
  f.sim.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(f.dfs.stats().re_replications, 0u);
}

// ---- throughput shape ---------------------------------------------------------------

TEST(Dfs, HigherReplicationSlowsWrites) {
  // Single-block file: completion is gated by the deepest pipeline stage
  // (with multiple blocks the writer-local disk dominates for every R,
  // since the first replica of each block lands on the writer).
  auto timed_write = [](std::size_t replication) {
    DfsConfig cfg;
    cfg.replication = replication;
    DfsFixture f(cfg);
    double end = -1;
    f.dfs.write(0, "/f", 64 * MiB, [&](bool ok) {
      ASSERT_TRUE(ok);
      end = f.sim.now();
    });
    f.sim.run();
    return end;
  };
  const double r1 = timed_write(1);
  const double r3 = timed_write(3);
  EXPECT_LT(r1, r3);
  // But far better than 3x: the pipeline overlaps transfer with disk writes.
  EXPECT_LT(r3, 3 * r1);
}


// ---- erasure-coded storage path -----------------------------------------------------

namespace {

/// Deterministic payload with per-index structure so a mis-ordered or
/// mis-reconstructed shard cannot collide with the expected bytes.
std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 131 + salt) ^ (i >> 8));
  }
  return v;
}

}  // namespace

TEST(DfsEc, WriteStripesAntiAffineWithLowOverhead) {
  DfsFixture f;
  bool ok = false;
  f.dfs.write(1, "/ec", 128 * MiB, StoragePolicy::kErasureCoded,
              [&](bool w) { ok = w; });
  f.sim.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(f.dfs.file_policy("/ec"), StoragePolicy::kErasureCoded);
  EXPECT_EQ(f.dfs.block_count("/ec"), 2u);  // 128 MiB / 64 MiB blocks
  for (std::size_t b = 0; b < f.dfs.block_count("/ec"); ++b) {
    const auto stripe = f.dfs.stripe_locations("/ec", b);
    ASSERT_EQ(stripe.size(), f.dfs.ec_stripe_width());  // k + m = 6 slots
    std::set<std::size_t> nodes;
    for (const auto& slot : stripe) {
      ASSERT_EQ(slot.size(), 1u);  // one holder per shard slot when healthy
      EXPECT_TRUE(nodes.insert(slot[0]).second)
          << "two shards of block " << b << " share node " << slot[0];
    }
  }
  // RS(4, 2): durable bytes are 1.5x the logical bytes, not 3x.
  const auto& st = f.dfs.stats();
  EXPECT_EQ(st.ec_blocks_written, 2u);
  EXPECT_EQ(st.shards_written, 12u);
  EXPECT_DOUBLE_EQ(static_cast<double>(st.bytes_physical) /
                       static_cast<double>(st.bytes_written),
                   1.5);
}

TEST(DfsEc, PutAndReadBackBitIdentical) {
  DfsConfig cfg;
  cfg.block_size = MiB;
  DfsFixture f(cfg);
  // Three blocks, last one partial, size not a multiple of k.
  const auto content = pattern_bytes(2 * MiB + 700 * 1024 + 13, 0x5a);
  bool stored = false;
  f.dfs.put(0, "/ec", content, StoragePolicy::kErasureCoded,
            [&](bool w) { stored = w; });
  f.sim.run();
  ASSERT_TRUE(stored);
  ReadStatus status{};
  std::vector<std::uint8_t> got;
  f.dfs.read_ex(7, "/ec", [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
    status = s;
    got = d;
  });
  f.sim.run();
  EXPECT_EQ(status, ReadStatus::kOk);
  EXPECT_EQ(got, content);
  EXPECT_EQ(f.dfs.stats().degraded_reads, 0u);
}

// ISSUE-named regression: a degraded read racing an in-flight repair must
// return bit-identical data. Repair publishes a shard's new location only
// when its transfer completes, so a read planned mid-repair sees exactly the
// committed survivors and reconstructs from those.
TEST(DfsEc, DegradedReadDuringInFlightRepairIsBitIdentical) {
  DfsConfig cfg;
  cfg.block_size = MiB;
  DfsFixture f(cfg);
  const auto content = pattern_bytes(3 * MiB + 4099, 0xc3);
  f.dfs.put(0, "/ec", content, StoragePolicy::kErasureCoded, [](bool) {});
  f.sim.run();

  // Knock out two data shards of block 0 — the worst repairable damage for
  // RS(4, 2) — then start the repair and read while it is still in flight.
  ASSERT_TRUE(f.dfs.lose_shard("/ec", 0, 0));
  ASSERT_TRUE(f.dfs.lose_shard("/ec", 0, 1));
  bool repaired = false;
  f.dfs.re_replicate([&] { repaired = true; });
  ReadStatus status{};
  std::vector<std::uint8_t> got;
  double read_done = -1;
  f.dfs.read_ex(9, "/ec", [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
    status = s;
    got = d;
    read_done = f.sim.now();
  });
  f.sim.run();
  ASSERT_TRUE(repaired);
  EXPECT_EQ(status, ReadStatus::kDegraded);
  EXPECT_EQ(got, content);
  EXPECT_GE(f.dfs.stats().degraded_reads, 1u);
  ASSERT_GE(read_done, 0.0);

  // After the repair lands, the same read is clean and still bit-identical.
  const auto degraded_before = f.dfs.stats().degraded_reads;
  status = ReadStatus::kUnavailable;
  got.clear();
  f.dfs.read_ex(9, "/ec", [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
    status = s;
    got = d;
  });
  f.sim.run();
  EXPECT_EQ(status, ReadStatus::kOk);
  EXPECT_EQ(got, content);
  EXPECT_EQ(f.dfs.stats().degraded_reads, degraded_before);
  EXPECT_GE(f.dfs.stats().shards_repaired, 2u);
}

// Repair rebuilds a lost data slot and a lost parity slot of one stripe,
// each as one dot product over k survivors. Killing two original survivors
// afterwards leaves exactly k live slots, both rebuilt shards among them, so
// the read must decode from the rebuilt bytes.
TEST(DfsEc, RebuiltDataAndParityShardsReadBitIdentical) {
  DfsConfig cfg;
  cfg.block_size = MiB;
  DfsFixture f(cfg);
  const auto content = pattern_bytes(MiB - 4321, 0x3e);  // single stripe
  f.dfs.put(0, "/ec", content, StoragePolicy::kErasureCoded, [](bool) {});
  f.sim.run();
  ASSERT_TRUE(f.dfs.lose_shard("/ec", 0, 1));  // data slot
  ASSERT_TRUE(f.dfs.lose_shard("/ec", 0, 5));  // parity slot
  bool repaired = false;
  f.dfs.re_replicate([&] { repaired = true; });
  f.sim.run();
  ASSERT_TRUE(repaired);
  EXPECT_EQ(f.dfs.stats().shards_repaired, 2u);

  const auto stripe = f.dfs.stripe_locations("/ec", 0);
  for (const auto& slot : stripe) ASSERT_EQ(slot.size(), 1u);
  f.dfs.fail_node(stripe[0][0]);
  f.dfs.fail_node(stripe[2][0]);
  ReadStatus status{};
  std::vector<std::uint8_t> got;
  f.dfs.read_ex(stripe[3][0], "/ec", [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
    status = s;
    got = d;
  });
  f.sim.run();
  EXPECT_EQ(status, ReadStatus::kDegraded);
  EXPECT_EQ(got, content);
}

// ISSUE-named regression: killing exactly m shard holders keeps the file
// readable (degraded), while m + 1 resolves promptly with a typed
// kUnavailable — not a hang and not a bool false.
TEST(DfsEc, ExactlyMKillsStayReadableMPlusOneFailsTyped) {
  DfsConfig cfg;
  cfg.block_size = MiB;
  DfsFixture f(cfg);
  const auto content = pattern_bytes(MiB - 37, 0x11);  // single stripe
  f.dfs.put(0, "/ec", content, StoragePolicy::kErasureCoded, [](bool) {});
  f.sim.run();
  const auto stripe = f.dfs.stripe_locations("/ec", 0);
  ASSERT_EQ(stripe.size(), 6u);

  // Kill the holders of the first m = 2 slots: still k = 4 survivors.
  f.dfs.fail_node(stripe[0][0]);
  f.dfs.fail_node(stripe[1][0]);
  EXPECT_TRUE(f.dfs.readable("/ec"));
  ReadStatus status{};
  std::vector<std::uint8_t> got;
  f.dfs.read_ex(stripe[5][0], "/ec",
                [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
                  status = s;
                  got = d;
                });
  f.sim.run();
  EXPECT_EQ(status, ReadStatus::kDegraded);
  EXPECT_TRUE(read_ok(status));
  EXPECT_EQ(got, content);

  // One more loss exceeds the parity budget: the read must fail fast with a
  // typed status (namenode round-trip only, no data transfer, no hang).
  f.dfs.fail_node(stripe[2][0]);
  EXPECT_FALSE(f.dfs.readable("/ec"));
  const auto failed_before = f.dfs.stats().failed_reads;
  const double t0 = f.sim.now();
  bool resolved = false;
  f.dfs.read_ex(stripe[5][0], "/ec",
                [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
                  resolved = true;
                  status = s;
                  got = d;
                });
  f.sim.run();
  ASSERT_TRUE(resolved) << "unreadable EC file must resolve, not hang";
  EXPECT_EQ(status, ReadStatus::kUnavailable);
  EXPECT_FALSE(read_ok(status));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(f.dfs.stats().failed_reads, failed_before + 1);
  EXPECT_LT(f.sim.now() - t0, 0.05);  // metadata latency, not a shard fetch
}

// A shard lost after read_block_ec chose it but before the block's fetches
// land has no bytes to decode from. The block re-plans from the slots live
// now: bit-identical while k survive, a typed kUnavailable below k, never a
// throw out of the simulator. One flat rack, so the chosen slots are the
// data slots 0..k-1 and every loss below hits a chosen slot.
TEST(DfsEc, ShardLostMidReadResolvesTyped) {
  struct Case {
    std::vector<std::size_t> lose;
    ReadStatus want;
  };
  for (const Case& c : {Case{{0}, ReadStatus::kDegraded},
                        Case{{0, 1, 2, 3}, ReadStatus::kUnavailable}}) {
    SCOPED_TRACE("slots lost: " + std::to_string(c.lose.size()));
    DfsConfig cfg;
    cfg.block_size = MiB;
    NetworkConfig nc;
    nc.nodes = 16;
    DfsFixture f(cfg, nc);
    const auto content = pattern_bytes(MiB - 99, 0x9d);  // single stripe
    f.dfs.put(0, "/ec", content, StoragePolicy::kErasureCoded, [](bool) {});
    f.sim.run();
    const auto before = f.dfs.stats();

    bool resolved = false;
    ReadStatus status{};
    std::vector<std::uint8_t> got;
    f.dfs.read_ex(0, "/ec", [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
      resolved = true;
      status = s;
      got = d;
    });
    bool lost_mid_read = false;
    f.sim.schedule_after(1e-4, [&] {
      // The premise: the block's shards are chosen and still in flight.
      lost_mid_read = !resolved && f.dfs.stats().blocks_read == before.blocks_read + 1;
      for (auto slot : c.lose) ASSERT_TRUE(f.dfs.lose_shard("/ec", 0, slot));
    });
    ASSERT_NO_THROW(f.sim.run());
    ASSERT_TRUE(lost_mid_read);
    ASSERT_TRUE(resolved);
    EXPECT_EQ(status, c.want);
    const auto& st = f.dfs.stats();
    EXPECT_EQ(st.blocks_read, before.blocks_read + 1);  // a re-plan is not a new read
    const auto shard_reads = [](const DfsStats& s) {
      return s.ec_shard_reads_same_rack + s.ec_shard_reads_cross_rack;
    };
    if (c.want == ReadStatus::kDegraded) {
      EXPECT_EQ(got, content);
      EXPECT_EQ(st.degraded_reads, before.degraded_reads + 1);
      EXPECT_EQ(shard_reads(st), shard_reads(before) + 2 * cfg.ec_data_shards);
    } else {
      EXPECT_TRUE(got.empty());
      EXPECT_EQ(st.failed_reads, before.failed_reads + 1);
      EXPECT_EQ(shard_reads(st), shard_reads(before) + cfg.ec_data_shards);
    }
  }
}

// A read keeps the bytes of the shards it fetched: losing a fetched shard
// of block 0 after its shards land, and repairing it, while later blocks are
// still in flight, must not change what the read returns.
TEST(DfsEc, ShardLostAndRepairedAfterItsBlockLandedReadsFetchedBytes) {
  for (const bool repair : {false, true}) {
    SCOPED_TRACE(repair ? "lost, then repaired" : "lost");
    DfsConfig cfg;
    cfg.block_size = MiB;
    NetworkConfig nc;
    nc.nodes = 16;  // flat: a healthy block fetches its k data slots
    DfsFixture f(cfg, nc);
    const auto content = pattern_bytes(5 * MiB + 12345, 0x7b);  // six blocks
    f.dfs.put(0, "/ec", content, StoragePolicy::kErasureCoded, [](bool) {});
    f.sim.run();
    const auto before = f.dfs.stats();

    bool resolved = false;
    ReadStatus status{};
    std::vector<std::uint8_t> got;
    f.dfs.read_ex(5, "/ec", [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
      resolved = true;
      status = s;
      got = d;
    });
    bool in_flight = false;
    bool repaired = false;
    // Block 0's shards land at about 4.3 ms, the last block at about 10.4 ms.
    f.sim.schedule_after(7e-3, [&] {
      in_flight = !resolved;
      ASSERT_TRUE(f.dfs.lose_shard("/ec", 0, 0));
      if (repair) f.dfs.re_replicate([&] { repaired = true; });
    });
    f.sim.run();
    ASSERT_TRUE(in_flight);
    ASSERT_TRUE(resolved);
    // Slot 0 was fetched, and the read did not re-plan block 0 (which would
    // fetch k more shards and flag it degraded): its shards had landed.
    const auto shard_reads = [](const DfsStats& s) {
      return s.ec_shard_reads_same_rack + s.ec_shard_reads_cross_rack;
    };
    EXPECT_EQ(shard_reads(f.dfs.stats()), shard_reads(before) + 6 * cfg.ec_data_shards);
    EXPECT_EQ(status, ReadStatus::kOk);
    EXPECT_EQ(got, content);
    if (!repair) continue;
    ASSERT_TRUE(repaired);
    EXPECT_EQ(f.dfs.stats().shards_repaired, before.shards_repaired + 1);
    // The next read fetches the rebuilt slot.
    got.clear();
    f.dfs.read_ex(5, "/ec", [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
      status = s;
      got = d;
    });
    f.sim.run();
    EXPECT_EQ(status, ReadStatus::kOk);
    EXPECT_EQ(got, content);
  }
}

// One read whose blocks mix fetched and decoded data shards: a block with
// two data slots lost, healthy blocks, and a last block whose lost data
// shard is partial (shards of 3 bytes short) or a single byte (a 5-byte
// block has data shards of 2, 2 and 1 bytes and an empty fourth).
TEST(DfsEc, ReadMixesFetchedAndDecodedShardsAcrossBlocks) {
  struct Case {
    std::uint64_t last_block;
    std::size_t last_lost;  // the last block's lost data slot
  };
  for (const Case c : {Case{300 * 1024 + 1, 3}, Case{5, 2}}) {
    SCOPED_TRACE("last block " + std::to_string(c.last_block) + " B");
    DfsConfig cfg;
    cfg.block_size = MiB;
    NetworkConfig nc;
    nc.nodes = 16;
    DfsFixture f(cfg, nc);
    const auto content = pattern_bytes(3 * MiB + c.last_block, 0x2d);
    f.dfs.put(0, "/ec", content, StoragePolicy::kErasureCoded, [](bool) {});
    f.sim.run();
    ASSERT_TRUE(f.dfs.lose_shard("/ec", 0, 0));
    ASSERT_TRUE(f.dfs.lose_shard("/ec", 0, 2));
    ASSERT_TRUE(f.dfs.lose_shard("/ec", 2, 1));
    ASSERT_TRUE(f.dfs.lose_shard("/ec", 3, c.last_lost));
    ReadStatus status{};
    std::vector<std::uint8_t> got;
    f.dfs.read_ex(9, "/ec", [&](ReadStatus s, const std::vector<std::uint8_t>& d) {
      status = s;
      got = d;
    });
    f.sim.run();
    EXPECT_EQ(status, ReadStatus::kDegraded);
    EXPECT_EQ(f.dfs.stats().degraded_reads, 3u);  // blocks 0, 2 and 3; not 1
    ASSERT_EQ(got.size(), content.size());
    EXPECT_EQ(got, content);
  }
}

// ISSUE-named regression: repair re-encodes a lost shard onto a new node;
// when the original holder later recovers, the next repair pass trims the
// over-repaired copy so every slot keeps exactly one live holder.
TEST(DfsEc, RepairAfterRecoverTrimsOverRepairedShards) {
  DfsFixture f;
  f.dfs.write(1, "/ec", 64 * MiB, StoragePolicy::kErasureCoded, [](bool) {});
  f.sim.run();
  const auto before = f.dfs.stripe_locations("/ec", 0);
  const std::size_t victim = before[0][0];

  f.dfs.fail_node(victim);
  bool pass1 = false;
  f.dfs.re_replicate([&] { pass1 = true; });
  f.sim.run();
  ASSERT_TRUE(pass1);
  EXPECT_GE(f.dfs.stats().shards_repaired, 1u);

  // The victim comes back with its stale shard: slot 0 now has two live
  // holders until the planner notices.
  f.dfs.recover_node(victim);
  const auto mid = f.dfs.stripe_locations("/ec", 0);
  EXPECT_EQ(mid[0].size(), 2u);
  const auto repair_bytes_before = f.dfs.stats().repair_bytes_written;
  bool pass2 = false;
  f.dfs.re_replicate([&] { pass2 = true; });
  f.sim.run();
  ASSERT_TRUE(pass2);
  EXPECT_GE(f.dfs.stats().shards_trimmed, 1u);
  // Trimming is metadata-only: the second pass moves no repair bytes.
  EXPECT_EQ(f.dfs.stats().repair_bytes_written, repair_bytes_before);
  for (std::size_t b = 0; b < f.dfs.block_count("/ec"); ++b) {
    std::set<std::size_t> nodes;
    for (const auto& slot : f.dfs.stripe_locations("/ec", b)) {
      ASSERT_EQ(slot.size(), 1u) << "slot still over-replicated";
      EXPECT_FALSE(f.dfs.node_down(slot[0]));
      EXPECT_TRUE(nodes.insert(slot[0]).second);
    }
  }
}

// ISSUE-named regression: EC reads must satisfy their k shards from
// same-rack holders before reaching across the fabric. For every client we
// predict the cross-rack shard count from the stripe map (k minus the
// same-rack holders, floored at zero) and check the counters match; at
// least one client must beat the old data-slots-first selection, which
// ignored racks entirely.
TEST(DfsEc, LocalityAwareShardReadsPreferSameRackHolders) {
  DfsFixture f;
  bool ok = false;
  f.dfs.write(1, "/ec", 64 * MiB, StoragePolicy::kErasureCoded,
              [&](bool w) { ok = w; });
  f.sim.run();
  ASSERT_TRUE(ok);
  const auto stripe = f.dfs.stripe_locations("/ec", 0);
  const std::size_t k = f.dfs.ec_stripe_width() - 2;  // RS(4, 2)
  bool beats_slot_order = false;
  for (std::size_t client = 0; client < 16; ++client) {
    std::size_t same_rack = 0, data_slot_cross = 0;
    for (std::size_t slot = 0; slot < stripe.size(); ++slot) {
      const bool same = f.dfs.rack_of(stripe[slot][0]) == f.dfs.rack_of(client);
      same_rack += same;
      if (slot < k && !same) ++data_slot_cross;  // what the old policy read
    }
    const auto before = f.dfs.stats();
    ReadStatus status{};
    f.dfs.read_ex(client, "/ec",
                  [&](ReadStatus s, const std::vector<std::uint8_t>&) { status = s; });
    f.sim.run();
    EXPECT_EQ(status, ReadStatus::kOk);
    const std::uint64_t same_reads =
        f.dfs.stats().ec_shard_reads_same_rack - before.ec_shard_reads_same_rack;
    const std::uint64_t cross_reads =
        f.dfs.stats().ec_shard_reads_cross_rack - before.ec_shard_reads_cross_rack;
    EXPECT_EQ(same_reads + cross_reads, k) << "client " << client;
    EXPECT_EQ(same_reads, std::min(same_rack, k)) << "client " << client;
    EXPECT_EQ(cross_reads, k - std::min(same_rack, k)) << "client " << client;
    if (cross_reads < data_slot_cross) beats_slot_order = true;
  }
  EXPECT_TRUE(beats_slot_order)
      << "no client read fewer cross-rack shards than slot-order selection";
}

TEST(DfsEc, LocalityHoldsOnDegradedReadsToo) {
  DfsFixture f;
  bool ok = false;
  f.dfs.write(1, "/ec", 64 * MiB, StoragePolicy::kErasureCoded,
              [&](bool w) { ok = w; });
  f.sim.run();
  ASSERT_TRUE(ok);
  // Kill one data-shard holder: the read degrades, and the replacement
  // shard should still be picked rack-first among the survivors.
  const auto stripe = f.dfs.stripe_locations("/ec", 0);
  f.dfs.fail_node(stripe[0][0]);
  const std::size_t k = f.dfs.ec_stripe_width() - 2;
  const std::size_t client = stripe[1][0];  // co-located with a survivor
  std::size_t same_rack = 0;
  for (std::size_t slot = 1; slot < stripe.size(); ++slot) {
    same_rack += f.dfs.rack_of(stripe[slot][0]) == f.dfs.rack_of(client);
  }
  const auto before = f.dfs.stats();
  ReadStatus status{};
  f.dfs.read_ex(client, "/ec",
                [&](ReadStatus s, const std::vector<std::uint8_t>&) { status = s; });
  f.sim.run();
  EXPECT_EQ(status, ReadStatus::kDegraded);
  EXPECT_EQ(f.dfs.stats().ec_shard_reads_same_rack - before.ec_shard_reads_same_rack,
            std::min(same_rack, k));
}

TEST(DfsEc, ShuffleSpillStaysReplicatedByDefault) {
  DfsFixture f;
  f.dfs.write(2, "/spill", 64 * MiB, [](bool) {});
  f.dfs.write(3, "/ckpt", 64 * MiB, StoragePolicy::kErasureCoded, [](bool) {});
  f.sim.run();
  EXPECT_EQ(f.dfs.file_policy("/spill"), StoragePolicy::kReplicated);
  EXPECT_EQ(f.dfs.file_policy("/ckpt"), StoragePolicy::kErasureCoded);
  EXPECT_EQ(f.dfs.ec_file_names(), std::vector<std::string>{"/ckpt"});
}

}  // namespace
}  // namespace hpbdc::sim
