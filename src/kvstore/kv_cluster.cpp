#include "kvstore/kv_cluster.hpp"

#include <algorithm>

namespace hpbdc::kvstore {

namespace {

constexpr double kOpTimeout = 0.05;    // seconds before the coordinator gives up
constexpr double kServiceTime = 5e-6;  // per-request CPU time at a replica

struct WireVersion {
  std::string value;
  VectorClock clock;
  double timestamp = 0;
};

void write_version(BufWriter& w, const std::string& value, const VectorClock& clock,
                   double ts) {
  w.write_string(value);
  Serde<VectorClock>::write(w, clock);
  w.write_pod(ts);
}

WireVersion read_version(BufReader& r) {
  WireVersion v;
  v.value = r.read_string();
  v.clock = Serde<VectorClock>::read(r);
  v.timestamp = r.read_pod<double>();
  return v;
}

}  // namespace

KvCluster::KvCluster(sim::Comm& comm, KvConfig cfg)
    : comm_(comm),
      cfg_(cfg),
      store_(comm.nranks()),
      down_(comm.nranks(), false) {
  if (cfg_.replication == 0 || cfg_.replication > comm.nranks()) {
    throw std::invalid_argument("KvCluster: bad replication factor");
  }
  if (cfg_.read_quorum == 0 || cfg_.read_quorum > cfg_.replication ||
      cfg_.write_quorum == 0 || cfg_.write_quorum > cfg_.replication) {
    throw std::invalid_argument("KvCluster: quorum outside [1, N]");
  }
  for (std::size_t n = 0; n < comm.nranks(); ++n) ring_.add_node(n);

  tag_put_req_ = comm_.next_tag();
  tag_put_ack_ = comm_.next_tag();
  tag_get_req_ = comm_.next_tag();
  tag_get_rep_ = comm_.next_tag();
  tag_repair_ = comm_.next_tag();

  for (std::size_t n = 0; n < comm.nranks(); ++n) {
    comm_.set_handler(n, tag_put_req_, [this, n](std::size_t src, const Bytes& p) {
      handle_replica_put(src, p, n);
    });
    comm_.set_handler(n, tag_get_req_, [this, n](std::size_t src, const Bytes& p) {
      handle_replica_get(src, p, n);
    });
    comm_.set_handler(n, tag_put_ack_, [this, n](std::size_t, const Bytes& p) {
      if (!down_[n]) handle_put_ack(p);
    });
    comm_.set_handler(n, tag_get_rep_, [this, n](std::size_t src, const Bytes& p) {
      if (!down_[n]) handle_get_reply(src, p);
    });
    comm_.set_handler(n, tag_repair_, [this, n](std::size_t src, const Bytes& p) {
      handle_replica_put(src, p, n);  // repairs are unacked puts
    });
  }
}

std::vector<std::size_t> KvCluster::replicas_for(const std::string& key) const {
  std::vector<std::size_t> out;
  for (auto id : ring_.lookup_n(key, cfg_.replication)) {
    out.push_back(static_cast<std::size_t>(id));
  }
  return out;
}

std::size_t KvCluster::pick_coordinator(const std::vector<std::size_t>& replicas) const {
  // First live replica coordinates; if all appear down, fall back to the
  // primary (the op will fail by timeout).
  for (auto r : replicas) {
    if (!down_[r]) return r;
  }
  return replicas.front();
}

void KvCluster::fail_node(std::size_t node) { down_[node] = true; }
void KvCluster::recover_node(std::size_t node) { down_[node] = false; }

std::optional<std::string> KvCluster::peek(std::size_t node, const std::string& key) const {
  auto it = store_[node].find(key);
  if (it == store_[node].end()) return std::nullopt;
  return it->second.value;
}

// ---- put ------------------------------------------------------------------

void KvCluster::bind_metrics(obs::MetricsRegistry& reg) {
  m_puts_ok_ = &reg.counter("kv.puts_ok");
  m_puts_failed_ = &reg.counter("kv.puts_failed");
  m_gets_ok_ = &reg.counter("kv.gets_ok");
  m_gets_not_found_ = &reg.counter("kv.gets_not_found");
  m_gets_failed_ = &reg.counter("kv.gets_failed");
  m_read_repairs_ = &reg.counter("kv.read_repairs");
  m_put_latency_ = &reg.histogram("kv.put_latency_us");
  m_get_latency_ = &reg.histogram("kv.get_latency_us");
}

void KvCluster::client_put(std::size_t client, std::string key, std::string value,
                           PutCallback cb) {
  const auto replicas = replicas_for(key);
  const std::size_t coord = pick_coordinator(replicas);
  const std::uint64_t req_id = next_req_++;

  auto& pp = pending_puts_[req_id];
  pp.start = comm_.simulator().now();
  pp.cb = std::move(cb);
  pp.nreplicas = replicas.size();

  // Build the new version at the coordinator: merge its current clock for
  // the key, then advance the coordinator's entry.
  VectorClock clock;
  double ts = comm_.simulator().now();
  {
    auto it = store_[coord].find(key);
    if (it != store_[coord].end()) clock = it->second.clock;
    clock.increment(coord);
  }

  BufWriter w;
  w.write_pod(req_id);
  w.write_pod(static_cast<std::uint64_t>(client));
  w.write_string(key);
  write_version(w, value, clock, ts);
  const Bytes msg = w.take();

  // Coordinator fans out to all replicas (including itself via loopback).
  // We model the client->coordinator hop by routing the fan-out through
  // the coordinator's NIC: client sends one message to coordinator, which
  // re-sends on delivery.
  comm_.network().send(
      client, coord,
      static_cast<std::uint64_t>(msg.size()) + 64,
      [this, coord, replicas, msg]() {
        if (down_[coord]) return;  // dead coordinator: client times out
        for (auto r : replicas) {
          comm_.send(coord, r, tag_put_req_, msg);
        }
      });

  // Client-side timeout covers a dead coordinator and lost quorums alike.
  comm_.simulator().schedule_after(kOpTimeout, [this, req_id] {
    auto it = pending_puts_.find(req_id);
    if (it == pending_puts_.end() || it->second.done) return;
    it->second.done = true;
    ++stats_.puts_failed;
    if (m_puts_failed_ != nullptr) m_puts_failed_->add(1);
    auto cb = std::move(it->second.cb);
    pending_puts_.erase(it);
    if (cb) cb(false);
  });
}

void KvCluster::handle_replica_put(std::size_t, const Bytes& payload, std::size_t self) {
  if (down_[self]) return;
  BufReader r(payload);
  const auto req_id = r.read_pod<std::uint64_t>();
  const auto client = r.read_pod<std::uint64_t>();
  const std::string key = r.read_string();
  WireVersion wire = read_version(r);

  // Apply: newest-causality wins; concurrent resolves last-writer-wins.
  auto& slot = store_[self][key];
  const auto order = wire.clock.compare(slot.clock);
  const bool apply = slot.clock.empty() || order == ClockOrder::kAfter ||
                     (order == ClockOrder::kConcurrent && wire.timestamp >= slot.timestamp);
  if (apply) {
    slot.value = wire.value;
    VectorClock merged = slot.clock;
    merged.merge(wire.clock);
    slot.clock = merged;
    slot.timestamp = wire.timestamp;
  }

  if (req_id == 0) return;  // read-repair writes are fire-and-forget

  // Ack to the coordinator-side bookkeeping after local service time. The
  // ack is addressed to the client rank purely so the completion latency
  // includes the reply hop; the pending map is process-global.
  comm_.simulator().schedule_after(kServiceTime, [this, self, client, req_id] {
    if (down_[self]) return;
    BufWriter w;
    w.write_pod(req_id);
    comm_.send(self, static_cast<std::size_t>(client), tag_put_ack_, w.take());
  });
}

void KvCluster::handle_put_ack(const Bytes& payload) {
  BufReader r(payload);
  const auto req_id = r.read_pod<std::uint64_t>();
  auto it = pending_puts_.find(req_id);
  if (it == pending_puts_.end() || it->second.done) return;
  auto& pp = it->second;
  ++pp.acks;
  ++pp.responses;
  if (pp.acks >= cfg_.write_quorum) {
    pp.done = true;
    ++stats_.puts_ok;
    const double put_us = (comm_.simulator().now() - pp.start) * 1e6;
    stats_.put_latency_us.add(put_us);
    if (m_puts_ok_ != nullptr) m_puts_ok_->add(1);
    if (m_put_latency_ != nullptr) m_put_latency_->record(put_us);
    auto cb = std::move(pp.cb);
    pending_puts_.erase(it);
    if (cb) cb(true);
  }
}

// ---- get ------------------------------------------------------------------

void KvCluster::client_get(std::size_t client, std::string key, GetCallback cb) {
  const auto replicas = replicas_for(key);
  const std::size_t coord = pick_coordinator(replicas);
  const std::uint64_t req_id = next_req_++;

  auto& pg = pending_gets_[req_id];
  pg.start = comm_.simulator().now();
  pg.cb = std::move(cb);
  pg.key = key;
  pg.nreplicas = replicas.size();

  BufWriter w;
  w.write_pod(req_id);
  w.write_pod(static_cast<std::uint64_t>(client));
  w.write_string(key);
  const Bytes msg = w.take();

  comm_.network().send(client, coord, static_cast<std::uint64_t>(msg.size()) + 64,
                       [this, coord, replicas, msg]() {
                         if (down_[coord]) return;
                         for (auto r : replicas) {
                           comm_.send(coord, r, tag_get_req_, msg);
                         }
                       });

  comm_.simulator().schedule_after(kOpTimeout, [this, req_id] {
    auto it = pending_gets_.find(req_id);
    if (it == pending_gets_.end() || it->second.done) return;
    it->second.done = true;
    ++stats_.gets_failed;
    if (m_gets_failed_ != nullptr) m_gets_failed_->add(1);
    auto cb = std::move(it->second.cb);
    pending_gets_.erase(it);
    if (cb) cb(GetResult{});
  });
}

void KvCluster::handle_replica_get(std::size_t, const Bytes& payload, std::size_t self) {
  if (down_[self]) return;
  BufReader r(payload);
  const auto req_id = r.read_pod<std::uint64_t>();
  const auto client = r.read_pod<std::uint64_t>();
  const std::string key = r.read_string();

  comm_.simulator().schedule_after(kServiceTime, [this, self, client, req_id, key] {
    if (down_[self]) return;
    BufWriter w;
    w.write_pod(req_id);
    auto it = store_[self].find(key);
    w.write_pod(static_cast<std::uint8_t>(it != store_[self].end() ? 1 : 0));
    if (it != store_[self].end()) {
      write_version(w, it->second.value, it->second.clock, it->second.timestamp);
    }
    comm_.send(self, static_cast<std::size_t>(client), tag_get_rep_, w.take());
  });
}

void KvCluster::handle_get_reply(std::size_t src, const Bytes& payload) {
  BufReader r(payload);
  const auto req_id = r.read_pod<std::uint64_t>();
  auto it = pending_gets_.find(req_id);
  if (it == pending_gets_.end() || it->second.done) return;
  auto& pg = it->second;

  const bool found = r.read_pod<std::uint8_t>() != 0;
  std::optional<Versioned> version;
  if (found) {
    WireVersion wire = read_version(r);
    version = Versioned{std::move(wire.value), std::move(wire.clock), wire.timestamp};
  }
  pg.replies.emplace_back(src, std::move(version));
  if (pg.replies.size() >= cfg_.read_quorum) {
    finish_get(req_id, pg);
  }
}

void KvCluster::finish_get(std::uint64_t req_id, PendingGet& pg) {
  pg.done = true;
  // Pick the winning version: causally dominant, LWW on concurrency.
  const Versioned* winner = nullptr;
  for (const auto& [node, v] : pg.replies) {
    if (!v) continue;
    if (winner == nullptr) {
      winner = &*v;
      continue;
    }
    const auto order = v->clock.compare(winner->clock);
    if (order == ClockOrder::kAfter ||
        (order == ClockOrder::kConcurrent && v->timestamp > winner->timestamp)) {
      winner = &*v;
    }
  }
  GetResult res;
  res.ok = true;
  if (winner != nullptr) {
    res.found = true;
    res.value = winner->value;
    // Read repair: push the winner to any replica that answered stale.
    for (const auto& [node, v] : pg.replies) {
      const bool stale = !v || !v->clock.dominates(winner->clock);
      if (stale) {
        BufWriter w;
        w.write_pod(std::uint64_t{0});  // repair: no request id
        w.write_pod(std::uint64_t{node});
        w.write_string(pg.key);
        write_version(w, winner->value, winner->clock, winner->timestamp);
        comm_.send(node, node, tag_repair_, w.take());
        ++stats_.read_repairs;
        if (m_read_repairs_ != nullptr) m_read_repairs_->add(1);
      }
    }
    ++stats_.gets_ok;
    if (m_gets_ok_ != nullptr) m_gets_ok_->add(1);
  } else {
    ++stats_.gets_not_found;
    if (m_gets_not_found_ != nullptr) m_gets_not_found_->add(1);
  }
  const double get_us = (comm_.simulator().now() - pg.start) * 1e6;
  stats_.get_latency_us.add(get_us);
  if (m_get_latency_ != nullptr) m_get_latency_->record(get_us);
  auto cb = std::move(pg.cb);
  pending_gets_.erase(req_id);
  if (cb) cb(res);
}

}  // namespace hpbdc::kvstore
