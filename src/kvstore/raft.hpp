#pragma once
// Raft consensus on the simulated cluster — the coordination substrate
// cloud storage systems build their metadata and configuration services on.
// Implements the core protocol of Ongaro & Ousterhout's Raft:
//   * leader election with randomized timeouts and term numbers,
//   * log replication via AppendEntries with the prev-index/term
//     consistency check and follower log truncation,
//   * commit advancement on majority match, restricted to current-term
//     entries (figure 8 rule),
//   * crash/recover of nodes (state survives, as with persisted terms/logs).
// Not implemented (documented scope cut): snapshots/compaction, membership
// changes, and client session deduplication.
//
// Because leaders emit heartbeats forever, the event queue never drains:
// drive the simulator with run_until(t), and call stop() before tearing
// down. All timing is simulated; runs are deterministic per seed.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/comm.hpp"

namespace hpbdc::kvstore {

enum class RaftRole { kFollower, kCandidate, kLeader };

struct RaftConfig {
  double heartbeat_interval = 0.050;
  std::uint64_t seed = 1;
};

struct RaftStats {
  std::uint64_t elections_started = 0;
  std::uint64_t leaders_elected = 0;
  std::uint64_t append_rpcs = 0;
  std::uint64_t entries_committed = 0;  // on the leader at commit time
};

class RaftCluster {
 public:
  using CommitCallback = std::function<void(bool committed, std::uint64_t index)>;

  RaftCluster(sim::Comm& comm, RaftConfig cfg = {});

  /// Arm the initial election timers. Call once before running the sim.
  void start();

  /// Cease all future timers/heartbeats so the event queue can drain.
  void stop();

  /// Propose a command. It is forwarded to the node currently believed to
  /// lead (fails immediately if none); the callback fires when the entry
  /// commits, or with false if it was lost to a leadership change.
  void propose(std::string command, CommitCallback cb);

  /// Crash a node: it drops all traffic and its timers go dormant.
  /// State (term, vote, log) is retained, modelling persistence.
  void fail_node(std::size_t node);
  void recover_node(std::size_t node);

  /// The node currently acting as leader with the highest term, if any.
  std::optional<std::size_t> leader() const;

  // --- introspection (tests/benches) ---
  RaftRole role(std::size_t node) const { return nodes_[node].role; }
  std::uint64_t term(std::size_t node) const { return nodes_[node].current_term; }
  std::uint64_t commit_index(std::size_t node) const { return nodes_[node].commit_index; }
  /// Commands applied (committed) at a node, in log order.
  std::vector<std::string> committed_commands(std::size_t node) const;
  const RaftStats& stats() const noexcept { return stats_; }

  /// Mirror protocol counters into `reg` (raft.elections_started,
  /// raft.leaders_elected, raft.append_rpcs, raft.entries_committed),
  /// incremented live as the protocol runs. Registry must outlive the
  /// cluster; unbound clusters pay one null-pointer branch per site.
  void bind_metrics(obs::MetricsRegistry& reg);

 private:
  struct LogEntry {
    std::uint64_t term = 0;
    std::string command;
  };

  struct Node {
    RaftRole role = RaftRole::kFollower;
    std::uint64_t current_term = 0;
    std::int64_t voted_for = -1;
    std::vector<LogEntry> log;  // 1-based indexing: log[0] unused sentinel
    std::uint64_t commit_index = 0;
    bool down = false;

    // Candidate state.
    std::size_t votes = 0;

    // Leader state.
    std::vector<std::uint64_t> next_index;
    std::vector<std::uint64_t> match_index;

    // Timer invalidation: bumping the epoch cancels outstanding timers.
    std::uint64_t timer_epoch = 0;
  };

  void arm_election_timer(std::size_t n);
  void become_follower(std::size_t n, std::uint64_t term);
  void start_election(std::size_t n);
  void become_leader(std::size_t n);
  /// One beat of a leader's heartbeat loop, which stops once `epoch` is
  /// stale (role change, crash) or the cluster is stopped.
  void heartbeat_tick(std::size_t n, std::uint64_t epoch);
  void send_heartbeats(std::size_t n);
  void send_append(std::size_t leader, std::size_t peer);
  void advance_commit(std::size_t leader);
  void apply_commits(std::size_t n);

  void on_vote_request(std::size_t self, const Bytes& payload);
  void on_vote_reply(std::size_t self, const Bytes& payload);
  void on_append_request(std::size_t self, std::size_t from, const Bytes& payload);
  void on_append_reply(std::size_t self, std::size_t from, const Bytes& payload);

  std::uint64_t last_log_index(const Node& nd) const { return nd.log.size() - 1; }
  std::uint64_t last_log_term(const Node& nd) const {
    return nd.log.empty() ? 0 : nd.log.back().term;
  }
  std::size_t majority() const { return comm_.nranks() / 2 + 1; }

  sim::Comm& comm_;
  RaftConfig cfg_;
  Rng rng_;
  std::vector<Node> nodes_;
  bool stopped_ = false;
  RaftStats stats_;

  // Optional live counters (see bind_metrics); null until bound.
  obs::Counter* m_elections_ = nullptr;
  obs::Counter* m_leaders_ = nullptr;
  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_commits_ = nullptr;

  // Pending client proposals: (leader, term, index) -> callback.
  struct Pending {
    std::size_t node;
    std::uint64_t term;
    std::uint64_t index;
    CommitCallback cb;
  };
  std::vector<Pending> pending_;

  int tag_vote_req_, tag_vote_rep_, tag_append_req_, tag_append_rep_;
};

}  // namespace hpbdc::kvstore
