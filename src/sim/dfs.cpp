#include "sim/dfs.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>

namespace hpbdc::sim {

namespace {
constexpr std::uint64_t kNamenodeRpcBytes = 256;  // metadata RPC body size

/// A stripe's stored shards as ReedSolomon::repair reads them: each of
/// `slots` points at its bytes, every other slot is lost (nullptr).
std::vector<const std::uint8_t*> survivors(
    const std::vector<std::shared_ptr<const std::uint8_t[]>>& shards,
    const std::vector<std::size_t>& slots) {
  std::vector<const std::uint8_t*> out(shards.size(), nullptr);
  for (auto slot : slots) {
    if (!shards[slot]) {
      throw std::logic_error("Dfs: survivor shard " + std::to_string(slot) +
                             " has lost its bytes");
    }
    out[slot] = shards[slot].get();
  }
  return out;
}
}  // namespace

const char* read_status_name(ReadStatus s) {
  switch (s) {
    case ReadStatus::kOk: return "ok";
    case ReadStatus::kDegraded: return "degraded";
    case ReadStatus::kNoSuchFile: return "no_such_file";
    case ReadStatus::kUnavailable: return "unavailable";
  }
  return "?";
}

Dfs::Dfs(Comm& comm, DfsConfig cfg)
    : comm_(comm),
      cfg_(cfg),
      rs_(cfg.ec_data_shards, cfg.ec_parity_shards) {
  if (cfg_.replication == 0 || cfg_.replication > comm.nranks()) {
    throw std::invalid_argument("Dfs: bad replication factor");
  }
  if (cfg_.block_size == 0) throw std::invalid_argument("Dfs: zero block size");
  if (cfg_.ec_data_shards == 0 || cfg_.ec_parity_shards == 0) {
    throw std::invalid_argument("Dfs: RS(k, m) needs k >= 1 and m >= 1");
  }
  disks_.assign(comm.nranks(), Disk(cfg_.disk_bandwidth_bps));
  down_.assign(comm.nranks(), false);
  for (std::size_t n = 0; n < comm.nranks(); ++n) ring_.add_node(n);
}

std::size_t Dfs::rack_of(std::size_t node) const {
  const auto& nc = comm_.network().config();
  if (nc.topology == Topology::kFatTree) return node / nc.hosts_per_rack;
  return 0;  // flat fabrics: a single logical rack
}

std::uint64_t Dfs::file_size(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) throw std::out_of_range("Dfs: no such file");
  return it->second.size;
}

std::size_t Dfs::block_count(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) throw std::out_of_range("Dfs: no such file");
  return it->second.blocks.size();
}

StoragePolicy Dfs::file_policy(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) throw std::out_of_range("Dfs: no such file");
  return it->second.policy;
}

std::size_t Dfs::live_holder(const std::vector<std::size_t>& holders) const {
  for (auto n : holders) {
    if (!down_[n]) return n;
  }
  return comm_.nranks();  // sentinel: none
}

std::size_t Dfs::live_holder_near(std::size_t client,
                                  const std::vector<std::size_t>& holders) const {
  const std::size_t crack = rack_of(client);
  std::size_t first_live = comm_.nranks();
  for (auto n : holders) {
    if (down_[n]) continue;
    if (rack_of(n) == crack) return n;
    if (first_live == comm_.nranks()) first_live = n;
  }
  return first_live;
}

bool Dfs::block_readable(const Block& b) const {
  if (b.shards.empty()) {
    for (auto r : b.replicas) {
      if (!down_[r]) return true;
    }
    return false;
  }
  std::size_t live = 0;
  for (const auto& holders : b.shards) {
    if (live_holder(holders) != comm_.nranks()) ++live;
  }
  return live >= cfg_.ec_data_shards;
}

bool Dfs::readable(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) return false;
  for (const Block& b : it->second.blocks) {
    if (!block_readable(b)) return false;
  }
  return true;
}

void Dfs::set_node_down(std::size_t node, bool down) {
  if (node >= down_.size()) throw std::out_of_range("Dfs: bad node id");
  if (down_[node] == down) return;
  down_[node] = down;
  // The placement ring tracks LIVE membership: crashed nodes take no new
  // shards, and consistent hashing keeps the reshuffle to ~1/n of keys.
  if (down && ring_.contains(node)) {
    ring_.remove_node(node);
  } else if (!down && !ring_.contains(node)) {
    ring_.add_node(node);
  }
  // Both directions are repair triggers: a crash creates missing copies, a
  // recovery can create excess ones (the trim pass).
  arm_auto_repair();
}

bool Dfs::node_down(std::size_t node) const {
  if (node >= down_.size()) throw std::out_of_range("Dfs: bad node id");
  return down_[node];
}

bool Dfs::lose_replica(const std::string& name, std::size_t block,
                       std::size_t replica_idx) {
  auto it = files_.find(name);
  if (it == files_.end() || block >= it->second.blocks.size()) return false;
  auto& b = it->second.blocks[block];
  if (!b.shards.empty()) return false;  // EC stripes lose shards, not replicas
  auto& reps = b.replicas;
  if (reps.size() <= 1 || replica_idx >= reps.size()) return false;
  reps.erase(reps.begin() + static_cast<std::ptrdiff_t>(replica_idx));
  stats_.replicas_lost++;
  arm_auto_repair();
  return true;
}

bool Dfs::lose_shard(const std::string& name, std::size_t block,
                     std::size_t shard_idx) {
  auto it = files_.find(name);
  if (it == files_.end() || block >= it->second.blocks.size()) return false;
  Block& b = it->second.blocks[block];
  if (shard_idx >= b.shards.size() || b.shards[shard_idx].empty()) return false;
  b.shards[shard_idx].clear();
  if (!b.shard_data.empty()) b.shard_data[shard_idx].reset();
  stats_.shards_lost++;
  arm_auto_repair();
  return true;
}

std::vector<std::string> Dfs::file_names() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, f] : files_) out.push_back(name);
  return out;
}

std::vector<std::string> Dfs::ec_file_names() const {
  std::vector<std::string> out;
  for (const auto& [name, f] : files_) {
    if (f.policy == StoragePolicy::kErasureCoded) out.push_back(name);
  }
  return out;
}

std::vector<std::size_t> Dfs::block_locations(const std::string& name,
                                              std::size_t index) const {
  auto it = files_.find(name);
  if (it == files_.end() || index >= it->second.blocks.size()) {
    throw std::out_of_range("Dfs: no such block");
  }
  const Block& b = it->second.blocks[index];
  if (b.shards.empty()) return b.replicas;
  std::vector<std::size_t> out;
  for (const auto& holders : b.shards) {
    for (auto n : holders) {
      if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
    }
  }
  return out;
}

std::vector<std::vector<std::size_t>> Dfs::stripe_locations(
    const std::string& name, std::size_t index) const {
  auto it = files_.find(name);
  if (it == files_.end() || index >= it->second.blocks.size()) {
    throw std::out_of_range("Dfs: no such block");
  }
  return it->second.blocks[index].shards;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

std::vector<std::size_t> Dfs::place_replicas(std::size_t writer) {
  std::vector<std::size_t> live;
  for (std::size_t n = 0; n < comm_.nranks(); ++n) {
    if (!down_[n]) live.push_back(n);
  }
  if (live.size() < cfg_.replication) return {};  // not enough datanodes

  std::vector<std::size_t> out;
  // First replica: the writer if it is a live cluster node, else random.
  const std::size_t first =
      (writer < comm_.nranks() && !down_[writer])
          ? writer
          : live[placement_rng_.next_below(live.size())];
  out.push_back(first);

  if (cfg_.rack_aware &&
      comm_.network().config().topology == Topology::kFatTree) {
    // Remaining replicas together on one remote rack (HDFS policy: survives
    // a rack loss while keeping inter-rack traffic to one hop of the tree).
    std::map<std::size_t, std::vector<std::size_t>> racks;
    for (auto n : live) {
      if (rack_of(n) != rack_of(first)) racks[rack_of(n)].push_back(n);
    }
    std::vector<std::size_t> eligible;
    for (auto& [rack, nodes] : racks) {
      if (nodes.size() >= cfg_.replication - 1) eligible.push_back(rack);
    }
    if (!eligible.empty()) {
      auto& nodes = racks[eligible[placement_rng_.next_below(eligible.size())]];
      placement_rng_.shuffle(nodes);
      for (std::size_t i = 0; i + 1 < cfg_.replication; ++i) out.push_back(nodes[i]);
      return out;
    }
    // Fall through to random placement when no rack can host the remainder.
  }
  // Random distinct live nodes.
  auto pool = live;
  placement_rng_.shuffle(pool);
  for (auto n : pool) {
    if (out.size() == cfg_.replication) break;
    if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
  }
  return out.size() == cfg_.replication ? out : std::vector<std::size_t>{};
}

std::vector<std::size_t> Dfs::place_shards(
    const std::string& name, std::size_t block, std::size_t count,
    const std::vector<std::size_t>& exclude) {
  const std::string key = name + "#" + std::to_string(block);
  if (test_collapse_ec_placement_) {
    // Planted bug: the whole stripe lands on the ring owner of the key.
    if (ring_.node_count() == 0) return {};
    return std::vector<std::size_t>(count,
                                    static_cast<std::size_t>(ring_.lookup(key)));
  }
  if (ring_.node_count() < exclude.size() + count) return {};

  // Rack-aware anti-affinity: cap shards per rack at ceil(width / racks) so
  // one rack loss never costs more than ~width/racks shards of a stripe.
  const std::size_t width = count + exclude.size();
  std::map<std::size_t, std::size_t> rack_load;
  std::set<std::size_t> live_racks;
  for (std::size_t n = 0; n < comm_.nranks(); ++n) {
    if (!down_[n]) live_racks.insert(rack_of(n));
  }
  const bool cap_racks = cfg_.rack_aware && live_racks.size() > 1;
  const std::size_t cap =
      cap_racks ? (width + live_racks.size() - 1) / live_racks.size() : width;
  for (auto n : exclude) rack_load[rack_of(n)]++;

  std::vector<std::size_t> out;
  auto taken = [&](std::size_t n) {
    return std::find(exclude.begin(), exclude.end(), n) != exclude.end() ||
           std::find(out.begin(), out.end(), n) != out.end();
  };
  ring_.walk(key, [&](std::uint64_t nid) {
    const auto n = static_cast<std::size_t>(nid);
    if (!taken(n) && rack_load[rack_of(n)] < cap) {
      out.push_back(n);
      rack_load[rack_of(n)]++;
    }
    return out.size() < count;
  });
  if (out.size() < count) {
    // Relax the rack cap: anti-affinity per NODE is the hard constraint.
    ring_.walk(key, [&](std::uint64_t nid) {
      const auto n = static_cast<std::size_t>(nid);
      if (!taken(n)) out.push_back(n);
      return out.size() < count;
    });
  }
  return out.size() == count ? out : std::vector<std::size_t>{};
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

void Dfs::write(std::size_t client, const std::string& name, std::uint64_t size,
                StoragePolicy policy, DoneFn cb) {
  Simulator& sim = comm_.simulator();
  if (size == 0 || files_.contains(name)) {
    sim.schedule_after(0.0, [cb] { cb(false); });
    return;
  }
  // Block layout and placement are decided up front (namenode metadata).
  File file;
  file.size = size;
  file.policy = policy;
  const std::size_t k = cfg_.ec_data_shards;
  const std::size_t m = cfg_.ec_parity_shards;
  for (std::uint64_t off = 0; off < size; off += cfg_.block_size) {
    Block b;
    b.size = std::min<std::uint64_t>(cfg_.block_size, size - off);
    if (policy == StoragePolicy::kReplicated) {
      b.replicas = place_replicas(client);
      if (b.replicas.empty()) {
        sim.schedule_after(0.0, [cb] { cb(false); });
        return;
      }
    } else {
      b.shard_size = (b.size + k - 1) / k;
      const auto nodes = place_shards(name, file.blocks.size(), k + m, {});
      if (nodes.empty()) {
        sim.schedule_after(0.0, [cb] { cb(false); });
        return;
      }
      b.shards.reserve(k + m);
      for (auto n : nodes) b.shards.push_back({n});
    }
    file.blocks.push_back(std::move(b));
  }
  files_[name] = std::move(file);
  start_write(client, name, std::move(cb));
}

void Dfs::put(std::size_t client, const std::string& name,
              std::vector<std::uint8_t> content, StoragePolicy policy, DoneFn cb) {
  if (files_.contains(name) || content.empty()) {
    comm_.simulator().schedule_after(0.0, [cb] { cb(false); });
    return;
  }
  const std::uint64_t size = content.size();
  write(client, name, size, policy, std::move(cb));
  auto it = files_.find(name);
  if (it == files_.end()) return;  // write rejected (no placement capacity)
  File& f = it->second;
  f.has_content = true;
  if (policy == StoragePolicy::kReplicated) {
    f.content = std::move(content);
    return;
  }
  // Stripe each block into one allocation of k data + m parity shards of
  // shard_size = ceil(size / k) bytes: the block's bytes are copied in once,
  // only the last data shard's pad is zeroed, and parity is encoded in
  // place. Every slot aliases the stripe.
  const std::size_t k = cfg_.ec_data_shards;
  const std::size_t width = ec_stripe_width();
  std::vector<const std::uint8_t*> data(k);
  std::vector<std::uint8_t*> parity(width - k);
  std::uint64_t off = 0;
  for (Block& b : f.blocks) {
    const std::size_t len = b.shard_size;
    const auto stripe = std::make_shared_for_overwrite<std::uint8_t[]>(width * len);
    std::uint8_t* p = stripe.get();
    std::memcpy(p, content.data() + off, b.size);
    std::memset(p + b.size, 0, k * len - b.size);
    off += b.size;
    for (std::size_t j = 0; j < k; ++j) data[j] = p + j * len;
    for (std::size_t i = 0; i < parity.size(); ++i) parity[i] = p + (k + i) * len;
    rs_.encode(data, len, parity);
    b.shard_data.reserve(width);
    for (std::size_t slot = 0; slot < width; ++slot) {
      b.shard_data.emplace_back(stripe, p + slot * len);
    }
  }
}

void Dfs::start_write(std::size_t client, const std::string& name, DoneFn cb) {
  Network& net = comm_.network();
  const File& f = files_.at(name);
  const auto nblocks = f.blocks.size();
  stats_.bytes_written += f.size;
  stats_.blocks_written += nblocks;
  if (f.policy == StoragePolicy::kErasureCoded) stats_.ec_blocks_written += nblocks;

  struct WriteState {
    std::size_t pending = 0;  // replica/shard outcomes outstanding across blocks
    bool failed = false;      // some block ended below its durability floor
    DoneFn cb;
  };
  auto st = std::make_shared<WriteState>();
  std::size_t outcomes = 0;
  for (const Block& b : f.blocks) {
    outcomes += b.shards.empty() ? b.replicas.size() : b.shards.size();
  }
  st->pending = outcomes;
  st->cb = std::move(cb);

  // Namenode RPC round-trip, then the per-block transfer fan-out.
  net.send(client, cfg_.namenode, kNamenodeRpcBytes, [this, st, client, name] {
    comm_.network().send(cfg_.namenode, client, kNamenodeRpcBytes,
                         [this, st, client, name] {
      const File& f = files_[name];
      for (std::size_t bi = 0; bi < f.blocks.size(); ++bi) {
        if (f.blocks[bi].shards.empty()) {
          write_block_replicated(client, name, bi, st);
        } else {
          write_block_ec(client, name, bi, st);
        }
      }
    });
  });
}

template <typename StatePtr>
void Dfs::write_block_replicated(std::size_t client, const std::string& name,
                                 std::size_t bi, StatePtr st) {
  // Pipeline: client -> r0 -> r1 -> ...; each hop stores to disk and
  // forwards. A shared recursive step drives the chain. Nodes that fail
  // before/while the pipeline reaches them are dropped from the block's
  // replica set (the write succeeds under-replicated, exactly like an HDFS
  // pipeline shrinking); a block that loses *every* replica fails the write.
  const File& f = files_.at(name);
  auto replicas = std::make_shared<std::vector<std::size_t>>(f.blocks[bi].replicas);
  const std::uint64_t bytes = f.blocks[bi].size;

  struct BlockProg {
    std::size_t remaining = 0;
    std::size_t written = 0;
  };
  auto bp = std::make_shared<BlockProg>();
  bp->remaining = replicas->size();
  // Every planned replica resolves exactly once: stored, or lost.
  auto resolve = [st, bp](bool stored) {
    if (stored) ++bp->written;
    if (--bp->remaining == 0 && bp->written == 0) st->failed = true;
    if (--st->pending == 0) st->cb(!st->failed);
  };

  // The step holds itself only weakly; each in-flight hop holds it strongly,
  // so the chain frees itself once its last hop lands.
  auto step = std::make_shared<std::function<void(std::size_t, std::size_t)>>();
  *step = [this, replicas, self = std::weak_ptr(step), bytes, resolve, name,
           bi](std::size_t from, std::size_t idx) {
    if (idx >= replicas->size()) return;
    const auto step = self.lock();  // alive: the caller holds it
    const std::size_t target = (*replicas)[idx];
    if (down_[target]) {
      // Dead before the data reached it: skip, forwarding from the
      // same upstream node (pipeline recovery).
      drop_replica(name, bi, target);
      resolve(false);
      (*step)(from, idx + 1);
      return;
    }
    comm_.network().send(
        from, target, bytes,
        [this, replicas, step, bytes, resolve, name, bi, idx, target] {
          if (down_[target]) {
            // Died mid-transfer: its copy and everything downstream
            // of it in the chain are lost.
            for (std::size_t j = idx; j < replicas->size(); ++j) {
              drop_replica(name, bi, (*replicas)[j]);
              resolve(false);
            }
            replicas->resize(idx);
            return;
          }
          disks_[target].access(comm_.simulator(), bytes, [this, bytes, resolve] {
            stats_.bytes_physical += bytes;
            resolve(true);
          });
          (*step)(target, idx + 1);
        });
  };
  (*step)(client, 0);
}

template <typename StatePtr>
void Dfs::write_block_ec(std::size_t client, const std::string& name,
                         std::size_t bi, StatePtr st) {
  // Shards fan out from the writer in parallel (no pipeline: every shard is
  // distinct data). A shard whose target dies before the bytes land is
  // dropped from the stripe; the block is durable iff >= k shards stored.
  const File& f = files_.at(name);
  const Block& b = f.blocks[bi];
  const std::uint64_t sbytes = b.shard_size;
  const std::size_t k = cfg_.ec_data_shards;

  struct BlockProg {
    std::size_t remaining = 0;
    std::size_t written = 0;
  };
  auto bp = std::make_shared<BlockProg>();
  bp->remaining = b.shards.size();
  auto resolve = [this, st, bp, k](bool stored) {
    if (stored) ++bp->written;
    if (--bp->remaining == 0 && bp->written < k) st->failed = true;
    if (--st->pending == 0) st->cb(!st->failed);
  };

  for (std::size_t slot = 0; slot < b.shards.size(); ++slot) {
    const std::size_t target = b.shards[slot][0];
    auto drop = [this, name, bi, slot] {
      auto it = files_.find(name);
      if (it != files_.end() && bi < it->second.blocks.size() &&
          slot < it->second.blocks[bi].shards.size()) {
        it->second.blocks[bi].shards[slot].clear();
      }
    };
    if (down_[target]) {
      drop();
      resolve(false);
      continue;
    }
    comm_.network().send(client, target, sbytes,
                         [this, sbytes, target, resolve, drop] {
                           if (down_[target]) {
                             drop();
                             resolve(false);
                             return;
                           }
                           disks_[target].access(comm_.simulator(), sbytes,
                                                 [this, sbytes, resolve] {
                                                   stats_.bytes_physical += sbytes;
                                                   stats_.shards_written++;
                                                   resolve(true);
                                                 });
                         });
  }
}

void Dfs::drop_replica(const std::string& name, std::size_t block,
                       std::size_t node) {
  auto it = files_.find(name);
  if (it == files_.end() || block >= it->second.blocks.size()) return;
  auto& reps = it->second.blocks[block].replicas;
  reps.erase(std::remove(reps.begin(), reps.end(), node), reps.end());
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

std::size_t Dfs::pick_read_replica(std::size_t client, const Block& b) const {
  std::size_t best = comm_.nranks();  // sentinel: none
  std::size_t best_hops = ~std::size_t{0};
  for (auto r : b.replicas) {
    if (down_[r]) continue;
    const std::size_t hops = comm_.network().hops(client, r);
    if (hops < best_hops) {
      best_hops = hops;
      best = r;
    }
  }
  return best;
}

void Dfs::read(std::size_t client, const std::string& name, DoneFn cb) {
  read_ex(client, name,
          [cb](ReadStatus s, const std::vector<std::uint8_t>&) { cb(read_ok(s)); });
}

void Dfs::read_ex(std::size_t client, const std::string& name, ReadFn cb) {
  Simulator& sim = comm_.simulator();
  Network& net = comm_.network();
  auto it = files_.find(name);
  if (it == files_.end()) {
    stats_.failed_reads++;
    sim.schedule_after(0.0, [cb] { cb(ReadStatus::kNoSuchFile, {}); });
    return;
  }
  const File& f = it->second;

  struct ReadState {
    std::size_t pending = 0;
    bool unavailable = false;
    bool degraded = false;
    // Content-bearing EC files: per block, the k+m slots with the bytes of
    // the k shards it fetched (null where not fetched), snapshotted when
    // they land. Assembled into the file's bytes when the last block lands.
    std::vector<std::vector<ShardBytes>> fetched;
    ReadFn cb;
  };
  auto st = std::make_shared<ReadState>();
  st->pending = f.blocks.size();
  if (f.has_content && f.policy == StoragePolicy::kErasureCoded) {
    st->fetched.resize(f.blocks.size());
  }
  st->cb = std::move(cb);
  auto finish = [this, st, name] {
    const ReadStatus status = st->unavailable ? ReadStatus::kUnavailable
                              : st->degraded  ? ReadStatus::kDegraded
                                              : ReadStatus::kOk;
    if (!read_ok(status)) {
      stats_.failed_reads++;
      st->cb(status, {});
      return;
    }
    // Replicated content (or a size-only file's empty content) is handed
    // over in place: files are never removed, so it outlives the callback.
    const File& file = files_.at(name);
    if (st->fetched.empty()) {
      st->cb(status, file.content);
      return;
    }
    st->cb(status, assemble(file, st->fetched));
  };
  auto done_one = [st, finish](bool ok) {
    if (!ok) st->unavailable = true;
    if (--st->pending == 0) finish();
  };

  net.send(client, cfg_.namenode, kNamenodeRpcBytes,
           [this, st, client, name, done_one] {
    comm_.network().send(cfg_.namenode, client, kNamenodeRpcBytes,
                         [this, st, client, name, done_one] {
      auto fit = files_.find(name);
      if (fit == files_.end()) {
        for (std::size_t i = 0; i < st->pending; ++i) done_one(false);
        return;
      }
      for (std::size_t bi = 0; bi < fit->second.blocks.size(); ++bi) {
        const Block& b = fit->second.blocks[bi];
        if (b.shards.empty()) {
          read_block_replicated(client, b, done_one);
        } else {
          read_block_ec(client, name, bi, st, done_one);
        }
      }
    });
  });
}

template <typename DoneOne>
void Dfs::read_block_replicated(std::size_t client, const Block& b,
                                DoneOne done_one) {
  Simulator& sim = comm_.simulator();
  const std::size_t replica = pick_read_replica(client, b);
  if (replica == comm_.nranks()) {
    sim.schedule_after(0.0, [done_one] { done_one(false); });
    return;
  }
  ++stats_.blocks_read;
  stats_.bytes_read += b.size;
  if (replica == client) ++stats_.local_reads;
  const std::uint64_t bytes = b.size;
  // Disk read at the replica, then the network transfer to the client.
  disks_[replica].access(sim, bytes, [this, replica, client, bytes, done_one] {
    comm_.network().send(replica, client, bytes, [done_one] { done_one(true); });
  });
}

template <typename StatePtr, typename DoneOne>
void Dfs::read_block_ec(std::size_t client, const std::string& name,
                        std::size_t bi, StatePtr st, DoneOne done_one,
                        std::optional<bool> replan_of) {
  Simulator& sim = comm_.simulator();
  const Block& b = files_.at(name).blocks[bi];
  const std::size_t k = cfg_.ec_data_shards;

  // Locality-aware survivor choice: order live slots same-rack first (slot
  // order within each class, so data still precedes parity among equals)
  // and take the first k. On flat fabrics everything is one rack and this
  // reduces to the historical data-shards-first slot order; on a fat tree a
  // rack-local parity shard beats a data shard across the core — the decode
  // below reconstructs from exactly the fetched shards either way.
  std::vector<std::size_t> live_slots;
  bool degraded = false;  // damage-based: some DATA slot has no live holder
  for (std::size_t slot = 0; slot < b.shards.size(); ++slot) {
    if (live_holder(b.shards[slot]) != comm_.nranks()) {
      live_slots.push_back(slot);
    } else if (slot < k) {
      degraded = true;
    }
  }
  if (live_slots.size() < k) {
    sim.schedule_after(0.0, [done_one] { done_one(false); });
    return;
  }
  const std::size_t crack = rack_of(client);
  std::stable_sort(live_slots.begin(), live_slots.end(),
                   [this, &b, client, crack](std::size_t a, std::size_t c) {
                     const bool ax =
                         rack_of(live_holder_near(client, b.shards[a])) != crack;
                     const bool cx =
                         rack_of(live_holder_near(client, b.shards[c])) != crack;
                     return ax != cx ? !ax : a < c;
                   });
  std::vector<std::size_t> chosen(live_slots.begin(),
                                  live_slots.begin() + static_cast<std::ptrdiff_t>(k));
  if (!replan_of) {
    ++stats_.blocks_read;
    stats_.bytes_read += b.size;
  }
  if (degraded) {
    if (!replan_of.value_or(false)) ++stats_.degraded_reads;
    st->degraded = true;
  }

  struct BlockRead {
    std::size_t remaining = 0;
  };
  auto br = std::make_shared<BlockRead>();
  br->remaining = chosen.size();
  const std::uint64_t sbytes = b.shard_size;
  auto shard_done = [this, br, st, client, bi, name, chosen, degraded, replan_of,
                     done_one] {
    if (--br->remaining > 0) return;
    // All k shards at the client: content-bearing blocks keep exactly the
    // shards that were fetched (never a lost shard's stale bytes, nor a
    // shard lost or repaired after this point) — the bit-identity
    // guarantee degraded-read tests assert.
    if (!st->fetched.empty()) {
      const Block& blk = files_.at(name).blocks[bi];
      // A chosen shard lost while its fetch was in flight has no bytes to
      // decode from: re-plan the block from the slots live now, which
      // resolves kUnavailable below k.
      if (std::any_of(chosen.begin(), chosen.end(),
                      [&blk](std::size_t slot) { return !blk.shard_data[slot]; })) {
        read_block_ec(client, name, bi, st, done_one,
                      degraded || replan_of.value_or(false));
        return;
      }
      auto& got = st->fetched[bi];
      got.assign(blk.shard_data.size(), nullptr);
      for (auto slot : chosen) got[slot] = blk.shard_data[slot];
    }
    done_one(true);
  };
  for (auto slot : chosen) {
    const std::size_t holder = live_holder_near(client, b.shards[slot]);
    if (rack_of(holder) == crack) {
      ++stats_.ec_shard_reads_same_rack;
    } else {
      ++stats_.ec_shard_reads_cross_rack;
    }
    disks_[holder].access(sim, sbytes, [this, holder, client, sbytes, shard_done] {
      if (holder == client) {
        shard_done();  // local shard: no fabric transfer
      } else {
        comm_.network().send(holder, client, sbytes, shard_done);
      }
    });
  }
}

std::vector<std::uint8_t> Dfs::assemble(
    const File& f, const std::vector<std::vector<ShardBytes>>& fetched) const {
  const std::size_t k = cfg_.ec_data_shards;
  std::vector<std::uint8_t> out;
  out.reserve(f.size);
  std::vector<const std::uint8_t*> ptrs(ec_stripe_width());
  for (std::size_t bi = 0; bi < f.blocks.size(); ++bi) {
    const Block& b = f.blocks[bi];
    for (std::size_t slot = 0; slot < ptrs.size(); ++slot) {
      ptrs[slot] = fetched[bi][slot].get();
    }
    for (std::size_t j = 0; j < k && j * b.shard_size < b.size; ++j) {
      const std::size_t n = std::min(b.shard_size, b.size - j * b.shard_size);
      if (ptrs[j] != nullptr) {
        out.insert(out.end(), ptrs[j], ptrs[j] + n);
        continue;
      }
      // Not fetched: decode this data shard's n bytes from the k fetched.
      const std::size_t at = out.size();
      out.resize(at + n);
      std::uint8_t* dst = out.data() + at;
      rs_.repair(ptrs, n, std::span(&j, 1), std::span(&dst, 1));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------------

void Dfs::arm_auto_repair() {
  if (cfg_.auto_repair_delay <= 0 || repair_armed_) return;
  repair_armed_ = true;
  comm_.simulator().schedule_after(cfg_.auto_repair_delay, [this] {
    repair_armed_ = false;
    re_replicate([] {});
  });
}

void Dfs::repair_admit(std::uint64_t bytes, std::function<void()> cb) {
  Simulator& sim = comm_.simulator();
  if (cfg_.repair_bandwidth_bps <= 0) {
    cb();
    return;
  }
  const SimTime start = std::max(sim.now(), repair_free_);
  repair_free_ = start + static_cast<double>(bytes) / cfg_.repair_bandwidth_bps;
  if (start <= sim.now()) {
    cb();
  } else {
    sim.schedule_at(start, std::move(cb));
  }
}

void Dfs::re_replicate(std::function<void()> cb) {
  Simulator& sim = comm_.simulator();
  ++stats_.repair_passes;

  struct RepairState {
    std::size_t pending = 0;
    std::function<void()> cb;
  };
  auto st = std::make_shared<RepairState>();
  st->cb = std::move(cb);

  std::vector<std::function<void()>> transfers;
  for (auto& [name, file] : files_) {
    for (std::size_t bi = 0; bi < file.blocks.size(); ++bi) {
      Block& block = file.blocks[bi];
      if (!block.shards.empty()) {
        plan_ec_repair(name, bi, st, transfers);
        continue;
      }
      std::vector<std::size_t> live;
      for (auto r : block.replicas) {
        if (!down_[r]) live.push_back(r);
      }
      if (live.size() > cfg_.replication) {
        // Over-replicated: a failed node was re-replicated around, then
        // recovered with its copy intact. Trim the tail-most live copies
        // (re-replicated ones append at the tail) back down to R; dead
        // entries stay — their nodes may yet come back.
        std::size_t excess = live.size() - cfg_.replication;
        stats_.replicas_trimmed += excess;
        for (std::size_t i = block.replicas.size(); i-- > 0 && excess > 0;) {
          if (!down_[block.replicas[i]]) {
            block.replicas.erase(block.replicas.begin() +
                                 static_cast<std::ptrdiff_t>(i));
            --excess;
          }
        }
        continue;
      }
      if (live.empty() || live.size() == cfg_.replication) continue;
      // Candidates: live nodes not already holding the block.
      std::vector<std::size_t> candidates;
      for (std::size_t n = 0; n < comm_.nranks(); ++n) {
        if (!down_[n] &&
            std::find(block.replicas.begin(), block.replicas.end(), n) ==
                block.replicas.end()) {
          candidates.push_back(n);
        }
      }
      placement_rng_.shuffle(candidates);
      const std::size_t need = cfg_.replication - live.size();
      for (std::size_t i = 0; i < need && i < candidates.size(); ++i) {
        const std::size_t src = live[i % live.size()];
        const std::size_t dst = candidates[i];
        block.replicas.push_back(dst);
        ++stats_.re_replications;
        const std::uint64_t bytes = block.size;
        ++st->pending;
        transfers.push_back([this, src, dst, bytes, st] {
          repair_admit(bytes, [this, src, dst, bytes, st] {
            disks_[src].access(comm_.simulator(), bytes, [this, src, dst, bytes, st] {
              comm_.network().send(src, dst, bytes, [this, dst, bytes, st] {
                disks_[dst].access(comm_.simulator(), bytes, [this, bytes, st] {
                  stats_.bytes_physical += bytes;
                  if (--st->pending == 0) st->cb();
                });
              });
            });
          });
        });
      }
    }
  }
  if (transfers.empty()) {
    sim.schedule_after(0.0, [st] { st->cb(); });
    return;
  }
  for (auto& t : transfers) t();
}

template <typename StatePtr>
void Dfs::plan_ec_repair(const std::string& name, std::size_t bi, StatePtr st,
                         std::vector<std::function<void()>>& transfers) {
  File& file = files_.at(name);
  Block& block = file.blocks[bi];
  const std::size_t k = cfg_.ec_data_shards;

  // Trim over-repaired slots first: a recovered node brought its shard
  // back after repair already rebuilt it elsewhere. Keep the head-most
  // live holder (the original placement), drop the rest.
  for (auto& holders : block.shards) {
    std::size_t live_seen = 0;
    for (std::size_t i = 0; i < holders.size();) {
      if (!down_[holders[i]] && ++live_seen > 1) {
        holders.erase(holders.begin() + static_cast<std::ptrdiff_t>(i));
        ++stats_.shards_trimmed;
      } else {
        ++i;
      }
    }
  }

  std::vector<std::size_t> lost_slots;     // no live holder
  std::vector<std::size_t> survivor_slots; // >= 1 live holder, slot order
  std::vector<std::size_t> exclude;        // nodes already holding live shards
  for (std::size_t slot = 0; slot < block.shards.size(); ++slot) {
    const std::size_t holder = live_holder(block.shards[slot]);
    if (holder == comm_.nranks()) {
      lost_slots.push_back(slot);
    } else {
      survivor_slots.push_back(slot);
      exclude.push_back(holder);
    }
  }
  if (lost_slots.empty() || survivor_slots.size() < k) return;  // healthy/unrepairable

  const auto targets = place_shards(name, bi, lost_slots.size(), exclude);
  if (targets.empty()) return;  // no anti-affine capacity right now

  // Rebuild only the lost content shards, up front: one dot product over k
  // survivors per lost slot, data or parity (pure metadata: the new holders
  // are only published when their disk writes land, so a concurrent
  // degraded read still reconstructs from survivors).
  if (file.has_content && !block.shard_data.empty()) {
    const std::size_t len = block.shard_size;
    const auto fresh = std::make_shared_for_overwrite<std::uint8_t[]>(lost_slots.size() * len);
    std::vector<std::uint8_t*> out(lost_slots.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = fresh.get() + i * len;
    rs_.repair(survivors(block.shard_data, survivor_slots), len, lost_slots, out);
    for (std::size_t i = 0; i < lost_slots.size(); ++i) {
      block.shard_data[lost_slots[i]] = ShardBytes(fresh, out[i]);
    }
  }

  // Repair flow: k survivor shards stream to the first target (the repair
  // worker), which rebuilds and distributes the lost shards.
  const std::uint64_t sbytes = block.shard_size;
  const std::size_t t0 = targets[0];
  struct StripeState {
    std::size_t fetched = 0;
  };
  auto ss = std::make_shared<StripeState>();
  st->pending += lost_slots.size();

  auto distribute = [this, st, name, bi, lost_slots, targets, sbytes, t0] {
    for (std::size_t i = 0; i < lost_slots.size(); ++i) {
      const std::size_t slot = lost_slots[i];
      const std::size_t tgt = targets[i];
      auto store = [this, st, name, bi, slot, tgt, sbytes] {
        disks_[tgt].access(comm_.simulator(), sbytes,
                           [this, st, name, bi, slot, tgt, sbytes] {
          if (!down_[tgt]) {
            auto it = files_.find(name);
            if (it != files_.end() && bi < it->second.blocks.size() &&
                slot < it->second.blocks[bi].shards.size()) {
              it->second.blocks[bi].shards[slot].push_back(tgt);
            }
            ++stats_.shards_repaired;
            stats_.repair_bytes_written += sbytes;
            stats_.bytes_physical += sbytes;
          }
          if (--st->pending == 0) st->cb();
        });
      };
      if (tgt == t0) {
        store();
      } else {
        comm_.network().send(t0, tgt, sbytes, store);
      }
    }
  };

  const std::size_t k_needed = k;
  for (std::size_t i = 0; i < k_needed; ++i) {
    const std::size_t src = exclude[i];  // live holder of survivor_slots[i]
    transfers.push_back([this, src, t0, sbytes, ss, k_needed, distribute] {
      stats_.repair_bytes_read += sbytes;
      repair_admit(sbytes, [this, src, t0, sbytes, ss, k_needed, distribute] {
        Simulator& sim = comm_.simulator();
        disks_[src].access(sim, sbytes, [this, src, t0, sbytes, ss, k_needed,
                                         distribute] {
          auto arrived = [ss, k_needed, distribute] {
            if (++ss->fetched == k_needed) distribute();
          };
          if (src == t0) {
            arrived();
          } else {
            comm_.network().send(src, t0, sbytes, arrived);
          }
        });
      });
    });
  }
}

void Dfs::export_metrics(obs::MetricsRegistry& reg) const {
  const auto set = [&reg](const char* name, std::uint64_t v) {
    reg.gauge(std::string("dfs.") + name).set(static_cast<std::int64_t>(v));
  };
  set("blocks_written", stats_.blocks_written);
  set("blocks_read", stats_.blocks_read);
  set("bytes_written", stats_.bytes_written);
  set("bytes_read", stats_.bytes_read);
  set("bytes_physical", stats_.bytes_physical);
  set("local_reads", stats_.local_reads);
  set("re_replications", stats_.re_replications);
  set("replicas_trimmed", stats_.replicas_trimmed);
  set("replicas_lost", stats_.replicas_lost);
  set("ec_blocks_written", stats_.ec_blocks_written);
  set("shards_written", stats_.shards_written);
  set("shards_lost", stats_.shards_lost);
  set("degraded_reads", stats_.degraded_reads);
  set("ec_shard_reads_same_rack", stats_.ec_shard_reads_same_rack);
  set("ec_shard_reads_cross_rack", stats_.ec_shard_reads_cross_rack);
  set("failed_reads", stats_.failed_reads);
  set("shards_repaired", stats_.shards_repaired);
  set("shards_trimmed", stats_.shards_trimmed);
  set("repair_bytes_read", stats_.repair_bytes_read);
  set("repair_bytes_written", stats_.repair_bytes_written);
  set("repair_passes", stats_.repair_passes);
}

}  // namespace hpbdc::sim
