#pragma once
// Distributed file system on the simulated cluster (HDFS-like), the storage
// substrate big-data jobs read from and write to. Every file carries a
// StoragePolicy chosen at write time:
//
//   kReplicated (default, hot data — shuffle spill, job input):
//   * files are split into fixed-size blocks,
//   * each block is replicated R ways with the HDFS rack-aware policy
//     (first replica on the writer when it is a cluster node, the remaining
//     replicas on a single remote rack),
//   * writes stream through a replication pipeline (client -> r1 -> r2 ->
//     r3, store-and-forward) with every replica also paying a disk write,
//   * reads pick the closest live replica (fewest fabric hops) and pay a
//     disk read plus the network transfer.
//
//   kErasureCoded (cold/large durable data — checkpoints, sink output):
//   * each block is striped into RS(k, m) shards (k data + m parity,
//     shard_size = ceil(block/k)) — (k+m)/k storage overhead instead of R,
//   * shards are placed via a consistent-hash ring over the LIVE nodes
//     (storage::HashRing) with anti-affinity: never two shards of a stripe
//     on one node, and a per-rack cap on fat-trees so a rack loss costs at
//     most ~(k+m)/racks shards,
//   * reads prefer the k data shards; when data shards are unavailable they
//     DEGRADE: any k survivors are fetched and the block is reconstructed
//     (storage::ReedSolomon) instead of failing — the typed kUnavailable
//     error fires only below k survivors, never a hang,
//   * repair rebuilds only the lost shards from k survivors onto fresh
//     anti-affine nodes, charging k reads + per-lost-shard writes of
//     repair traffic, optionally paced by a repair-bandwidth throttle.
//
// re_replicate() is the policy-dispatching repair planner: replicated blocks
// re-copy and trim exactly as before; EC stripes rebuild lost shards and trim
// over-repaired shards. With auto_repair_delay set, damage (node failure,
// replica/shard loss) arms a one-shot background repair pass — the
// "namenode repair loop" — which re-arms while damage remains.
//
// Files written through write() are size-only (pure cost model). put() is
// the content-bearing variant: bytes are stored (encoded per-shard for EC
// files) and read_ex() returns them, so tests can assert that degraded
// reads reconstruct bit-identical data. Metadata is held in-process (the
// "namenode"), charged as a small RPC.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/comm.hpp"
#include "sim/network.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"
#include "storage/hash_ring.hpp"
#include "storage/reed_solomon.hpp"

namespace hpbdc::sim {

/// One storage device: seek latency plus serialized bandwidth. Concurrent
/// requests queue FIFO, like a real spindle/SSD channel.
class Disk {
 public:
  /// Seek latency of every disk in the simulated cluster (s).
  static constexpr double kSeekTime = 2e-3;

  explicit Disk(double bandwidth_bps, double seek_time = kSeekTime)
      : bandwidth_bps_(bandwidth_bps), seek_time_(seek_time) {}

  /// Schedule an access of `bytes`; cb fires at completion time.
  void access(Simulator& sim, std::uint64_t bytes, Action cb) {
    const SimTime start = std::max(sim.now(), free_);
    const SimTime end = start + seek_time_ + static_cast<double>(bytes) / bandwidth_bps_;
    free_ = end;
    sim.schedule_at(end, std::move(cb));
  }

  SimTime busy_until() const noexcept { return free_; }

 private:
  double bandwidth_bps_;
  double seek_time_;
  SimTime free_ = 0;
};

struct DfsConfig {
  std::size_t replication = 3;
  std::uint64_t block_size = 64ULL << 20;
  bool rack_aware = true;          // HDFS default placement
  double disk_bandwidth_bps = 200e6;
  std::size_t namenode = 0;
  // Erasure-coding profile for kErasureCoded files: RS(k, m).
  std::size_t ec_data_shards = 4;    // k
  std::size_t ec_parity_shards = 2;  // m
  /// Repair pacing: total bytes/s the repair planner may move (0 =
  /// unthrottled). Throttled repair still pays disk + network costs; the
  /// throttle only serializes when transfers START, modelling a namenode
  /// that caps recovery traffic so foreground I/O keeps its share.
  double repair_bandwidth_bps = 0;
  /// Background repair: when > 0, any damage event (node failure, replica
  /// or shard loss) arms a one-shot repair pass this many simulated seconds
  /// later; the pass re-arms itself while damage remains. 0 keeps repair
  /// manual (call re_replicate()).
  double auto_repair_delay = 0;
};

/// Typed outcome of read_ex(). kOk and kDegraded both return data (degraded
/// means at least one block had a DATA shard with no live holder, so parity
/// had to stand in; a healthy block served partly from rack-local parity —
/// the locality-aware choice — is still kOk); kNoSuchFile and kUnavailable
/// are errors — kUnavailable fires when some block has no live replica
/// (replicated) or fewer than k live shards (EC).
enum class ReadStatus : std::uint8_t {
  kOk = 0,
  kDegraded,
  kNoSuchFile,
  kUnavailable,
};
const char* read_status_name(ReadStatus s);
inline bool read_ok(ReadStatus s) noexcept {
  return s == ReadStatus::kOk || s == ReadStatus::kDegraded;
}

struct DfsStats {
  std::uint64_t blocks_written = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t bytes_written = 0;   // logical (pre-replication/encoding)
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_physical = 0;  // durable bytes on disk (replicas + shards)
  std::uint64_t local_reads = 0;     // served from the client's own node
  std::uint64_t re_replications = 0;
  std::uint64_t replicas_trimmed = 0;  // excess copies dropped after recovery
  std::uint64_t replicas_lost = 0;     // injected single-replica losses
  // Erasure-coded path.
  std::uint64_t ec_blocks_written = 0;
  std::uint64_t shards_written = 0;
  std::uint64_t shards_lost = 0;       // injected shard losses
  std::uint64_t degraded_reads = 0;    // blocks with a lost data shard
  // Locality of EC shard fetches: a fetch is same-rack when the chosen
  // holder shares the client's rack (always true on flat fabrics, where
  // everything is one logical rack). read_block_ec prefers same-rack
  // survivors, so cross_rack counts only shards that HAD to cross the core.
  std::uint64_t ec_shard_reads_same_rack = 0;
  std::uint64_t ec_shard_reads_cross_rack = 0;
  std::uint64_t failed_reads = 0;      // typed kUnavailable/kNoSuchFile reads
  std::uint64_t shards_repaired = 0;
  std::uint64_t shards_trimmed = 0;    // over-repaired copies dropped
  std::uint64_t repair_bytes_read = 0;     // survivor shards fetched by repair
  std::uint64_t repair_bytes_written = 0;  // rebuilt shards written out
  std::uint64_t repair_passes = 0;     // re_replicate() planner invocations
};

class Dfs {
 public:
  using DoneFn = std::function<void(bool ok)>;
  using ReadFn = std::function<void(ReadStatus, const std::vector<std::uint8_t>&)>;

  Dfs(Comm& comm, DfsConfig cfg);

  /// Write a file of `size` bytes from `client` under `policy`. cb(ok)
  /// fires when the last durable byte hits disk: for replicated files when
  /// every block's replication pipeline drains, for EC files when every
  /// stripe holds at least k shards (a stripe ending below k fails the
  /// write, mirroring a pipeline that loses every replica).
  void write(std::size_t client, const std::string& name, std::uint64_t size,
             DoneFn cb) {
    write(client, name, size, StoragePolicy::kReplicated, std::move(cb));
  }
  void write(std::size_t client, const std::string& name, std::uint64_t size,
             StoragePolicy policy, DoneFn cb);

  /// Content-bearing write: same cost model as write(), but the bytes are
  /// stored (per-shard for EC files) and returned by read_ex — the handle
  /// for bit-identity assertions on degraded reads.
  void put(std::size_t client, const std::string& name,
           std::vector<std::uint8_t> content, StoragePolicy policy, DoneFn cb);

  /// Read a whole file back to `client`; ok iff every block had a live
  /// replica (replicated) or at least k live shards (EC; reconstructing
  /// from parity still succeeds, flagged degraded in stats).
  void read(std::size_t client, const std::string& name, DoneFn cb);

  /// Typed read: resolves with a ReadStatus instead of a bool, plus the
  /// stored bytes for content-bearing files (empty for size-only files).
  /// Never hangs: unavailable blocks resolve kUnavailable promptly.
  void read_ex(std::size_t client, const std::string& name, ReadFn cb);

  bool exists(const std::string& name) const { return files_.contains(name); }
  std::uint64_t file_size(const std::string& name) const;
  std::size_t block_count(const std::string& name) const;
  StoragePolicy file_policy(const std::string& name) const;

  /// Whether every block of `name` is currently servable: >= 1 live replica
  /// (replicated) or >= k live shards (EC). The availability predicate the
  /// runtimes consult before trusting a checkpoint.
  bool readable(const std::string& name) const;

  /// Crash / recover a datanode. Crashed nodes serve nothing and leave the
  /// placement ring. Thin wrappers over set_node_down so a sim::FaultPlan
  /// and ad-hoc call sites share one code path.
  void fail_node(std::size_t node) { set_node_down(node, true); }
  void recover_node(std::size_t node) { set_node_down(node, false); }
  void set_node_down(std::size_t node, bool down);
  bool node_down(std::size_t node) const;

  /// Silently lose one replica of a block (disk corruption / lost volume, as
  /// opposed to a whole-node crash). Refuses to destroy the last copy;
  /// returns whether a replica was dropped. re_replicate() restores it.
  bool lose_replica(const std::string& name, std::size_t block,
                    std::size_t replica_idx);

  /// Silently lose shard `shard_idx` of an EC stripe (all its holders).
  /// Unlike lose_replica this WILL take a stripe below k live shards —
  /// the shard-loss-above-m chaos fault depends on it — because EC readers
  /// fail typed rather than silently, and checkpoints regenerate upstream.
  bool lose_shard(const std::string& name, std::size_t block,
                  std::size_t shard_idx);

  /// Names of all stored files (fault injection picks targets from this).
  std::vector<std::string> file_names() const;
  /// Names of erasure-coded files only (shard-fault targets).
  std::vector<std::string> ec_file_names() const;

  /// Policy-dispatching repair planner. Replicated blocks: copy from a
  /// surviving replica to a new node until the factor is restored; trim
  /// over-replication after recoveries. EC stripes: fetch k survivor
  /// shards, rebuild the lost ones, write them to fresh anti-affine nodes; trim
  /// over-repaired shards. cb fires when all transfers finish (immediately
  /// if nothing is damaged).
  void re_replicate(std::function<void()> cb);

  /// Replica locations of block `index` (replicated files), or the distinct
  /// holder nodes across all shards (EC files) — the locality hint set.
  std::vector<std::size_t> block_locations(const std::string& name,
                                           std::size_t index) const;

  /// EC introspection: holders per shard slot (k data then m parity) of
  /// stripe `index`. A slot's holders are usually one node; transiently
  /// more after an over-repair, empty when the shard is lost.
  std::vector<std::vector<std::size_t>> stripe_locations(const std::string& name,
                                                         std::size_t index) const;

  std::size_t ec_stripe_width() const noexcept {
    return cfg_.ec_data_shards + cfg_.ec_parity_shards;
  }

  const DfsStats& stats() const noexcept { return stats_; }
  /// Snapshot every DfsStats field into `reg` as a dfs.<field> gauge.
  /// Exporting twice in a row changes nothing.
  void export_metrics(obs::MetricsRegistry& reg) const;
  const DfsConfig& config() const noexcept { return cfg_; }
  std::size_t rack_of(std::size_t node) const;

  /// Seeded-bug hook for the chaos harness: collapse EC placement onto a
  /// single node (every shard of a stripe on the ring owner), violating
  /// anti-affinity — the planted bug the ec= replay round-trip shrinks to.
  void set_test_collapse_ec_placement(bool on) noexcept {
    test_collapse_ec_placement_ = on;
  }

 private:
  using ShardBytes = std::shared_ptr<const std::uint8_t[]>;
  struct Block {
    std::uint64_t size = 0;
    std::vector<std::size_t> replicas;  // kReplicated
    // kErasureCoded: holders per shard slot; slot i < k is data shard i.
    std::vector<std::vector<std::size_t>> shards;
    std::uint64_t shard_size = 0;
    // Content files only: k+m slots of shard_size bytes. Slots written by
    // put() alias one allocation per stripe; a repaired slot owns fresh
    // memory; a lost slot is null. The bytes are immutable, so a read that
    // snapshots a slot keeps exactly the bytes it fetched.
    std::vector<ShardBytes> shard_data;
  };
  struct File {
    std::uint64_t size = 0;
    StoragePolicy policy = StoragePolicy::kReplicated;
    bool has_content = false;
    std::vector<std::uint8_t> content;  // replicated content files
    std::vector<Block> blocks;
  };

  std::vector<std::size_t> place_replicas(std::size_t writer);
  /// Choose `count` distinct live nodes for stripe (name, block): ring walk
  /// from the stripe's key, skipping `exclude` (current holders) and capping
  /// per-rack load; the rack cap relaxes when capacity runs short but
  /// node-level anti-affinity never does.
  std::vector<std::size_t> place_shards(const std::string& name, std::size_t block,
                                        std::size_t count,
                                        const std::vector<std::size_t>& exclude);
  std::size_t pick_read_replica(std::size_t client, const Block& b) const;
  void drop_replica(const std::string& name, std::size_t block, std::size_t node);
  bool block_readable(const Block& b) const;
  std::size_t live_holder(const std::vector<std::size_t>& holders) const;
  /// live_holder with locality: the first live holder in the client's rack
  /// when one exists, else the first live holder anywhere.
  std::size_t live_holder_near(std::size_t client,
                               const std::vector<std::size_t>& holders) const;
  void start_write(std::size_t client, const std::string& name, DoneFn cb);
  template <typename StatePtr>
  void write_block_replicated(std::size_t client, const std::string& name,
                              std::size_t bi, StatePtr st);
  template <typename StatePtr>
  void write_block_ec(std::size_t client, const std::string& name,
                      std::size_t bi, StatePtr st);
  template <typename DoneOne>
  void read_block_replicated(std::size_t client, const Block& b, DoneOne done_one);
  /// `replan_of` is set when an earlier attempt at this block lost a chosen
  /// shard mid-fetch: it holds whether the block already counted as
  /// degraded, and the re-plan counts neither the block read nor a second
  /// degrade.
  template <typename StatePtr, typename DoneOne>
  void read_block_ec(std::size_t client, const std::string& name, std::size_t bi,
                     StatePtr st, DoneOne done_one,
                     std::optional<bool> replan_of = std::nullopt);
  /// A content EC file's bytes in block order, from the k slots each block
  /// fetched (`fetched[bi]`: k+m slots, null where not fetched). Fetched
  /// data shards are appended; only a data shard that was not fetched is
  /// decoded, into the tail.
  std::vector<std::uint8_t> assemble(const File& f,
                                     const std::vector<std::vector<ShardBytes>>& fetched) const;
  void arm_auto_repair();
  /// Pace `bytes` through the repair throttle; cb fires when the transfer
  /// may start (immediately when unthrottled).
  void repair_admit(std::uint64_t bytes, std::function<void()> cb);
  template <typename StatePtr>
  void plan_ec_repair(const std::string& name, std::size_t bi, StatePtr st,
                      std::vector<std::function<void()>>& transfers);

  Comm& comm_;
  DfsConfig cfg_;
  std::vector<Disk> disks_;
  std::vector<bool> down_;
  std::map<std::string, File> files_;
  DfsStats stats_;
  Rng placement_rng_{0xDF5u};
  storage::HashRing ring_;
  storage::ReedSolomon rs_;
  SimTime repair_free_ = 0;    // repair-throttle timeline cursor
  bool repair_armed_ = false;  // one-shot auto-repair pending
  bool test_collapse_ec_placement_ = false;
};

}  // namespace hpbdc::sim
