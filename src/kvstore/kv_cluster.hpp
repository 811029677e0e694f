#pragma once
// Dynamo-style replicated key-value store running on the simulated cluster
// (experiment F3). Keys map to a replica set of N nodes via the consistent-
// hash ring; the first live replica coordinates. Writes wait for W replica
// acks, reads for R replica responses; R + W > N gives read-your-writes.
// Versions carry vector clocks; on read, the coordinator returns the
// dominant version (ties broken last-writer-wins on coordinator timestamp)
// and issues asynchronous read-repair to stale replicas. Nodes can be
// marked down: they silently drop traffic and coordinators rely on a
// timeout to fail or degrade the operation.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "kvstore/vector_clock.hpp"
#include "obs/metrics.hpp"
#include "sim/comm.hpp"
#include "storage/hash_ring.hpp"

namespace hpbdc::kvstore {

struct KvConfig {
  std::size_t replication = 3;  // N
  std::size_t read_quorum = 2;  // R
  std::size_t write_quorum = 2; // W
};

struct KvStats {
  std::uint64_t puts_ok = 0, puts_failed = 0;
  std::uint64_t gets_ok = 0, gets_not_found = 0, gets_failed = 0;
  std::uint64_t read_repairs = 0;
  Histogram put_latency_us;
  Histogram get_latency_us;
};

/// Outcome handed to client callbacks.
struct GetResult {
  bool ok = false;          // quorum reached
  bool found = false;       // a value exists
  std::string value;
};

class KvCluster {
 public:
  using PutCallback = std::function<void(bool ok)>;
  using GetCallback = std::function<void(const GetResult&)>;

  KvCluster(sim::Comm& comm, KvConfig cfg);

  /// Issue a put from `client` (any node id, typically a non-replica).
  void client_put(std::size_t client, std::string key, std::string value,
                  PutCallback cb);

  /// Issue a get from `client`.
  void client_get(std::size_t client, std::string key, GetCallback cb);

  /// Simulate a crash: the node drops all incoming traffic.
  void fail_node(std::size_t node);
  void recover_node(std::size_t node);
  bool is_down(std::size_t node) const { return down_[node]; }

  const KvStats& stats() const noexcept { return stats_; }
  KvStats& mutable_stats() noexcept { return stats_; }

  /// Mirror operation counters and put/get latency histograms (microseconds
  /// of simulated time) into `reg` under kv.*. Registry must outlive the
  /// cluster; unbound clusters pay one null-pointer branch per site.
  void bind_metrics(obs::MetricsRegistry& reg);
  std::size_t nranks() const noexcept { return store_.size(); }

  /// Direct inspection for tests: the version a replica currently holds.
  std::optional<std::string> peek(std::size_t node, const std::string& key) const;

 private:
  struct Versioned {
    std::string value;
    VectorClock clock;
    double timestamp = 0;  // coordinator wall time, LWW tiebreak
  };

  struct PendingPut {
    std::size_t acks = 0;
    std::size_t responses = 0;
    bool done = false;
    double start = 0;
    std::size_t nreplicas = 0;
    PutCallback cb;
  };

  struct PendingGet {
    std::vector<std::pair<std::size_t, std::optional<Versioned>>> replies;
    bool done = false;
    double start = 0;
    std::size_t nreplicas = 0;
    std::string key;
    GetCallback cb;
  };

  void handle_replica_put(std::size_t src, const Bytes& payload, std::size_t self);
  void handle_replica_get(std::size_t src, const Bytes& payload, std::size_t self);
  void handle_put_ack(const Bytes& payload);
  void handle_get_reply(std::size_t src, const Bytes& payload);
  void finish_get(std::uint64_t req_id, PendingGet& pg);
  std::vector<std::size_t> replicas_for(const std::string& key) const;
  std::size_t pick_coordinator(const std::vector<std::size_t>& replicas) const;

  sim::Comm& comm_;
  KvConfig cfg_;
  storage::HashRing ring_;
  std::vector<std::unordered_map<std::string, Versioned>> store_;  // per node
  std::vector<bool> down_;
  KvStats stats_;

  // Optional live metrics (see bind_metrics); null until bound.
  obs::Counter* m_puts_ok_ = nullptr;
  obs::Counter* m_puts_failed_ = nullptr;
  obs::Counter* m_gets_ok_ = nullptr;
  obs::Counter* m_gets_not_found_ = nullptr;
  obs::Counter* m_gets_failed_ = nullptr;
  obs::Counter* m_read_repairs_ = nullptr;
  obs::LatencyHistogram* m_put_latency_ = nullptr;
  obs::LatencyHistogram* m_get_latency_ = nullptr;

  // In-flight coordinator state, keyed by request id.
  std::unordered_map<std::uint64_t, PendingPut> pending_puts_;
  std::unordered_map<std::uint64_t, PendingGet> pending_gets_;
  std::uint64_t next_req_ = 1;

  // Message tags.
  int tag_put_req_, tag_put_ack_, tag_get_req_, tag_get_rep_, tag_repair_;
};

}  // namespace hpbdc::kvstore
