#include "kvstore/raft.hpp"

#include <algorithm>

namespace hpbdc::kvstore {

namespace {

// Randomized election timeout window (seconds).
constexpr double kElectionTimeoutMin = 0.150;
constexpr double kElectionTimeoutMax = 0.300;

struct VoteReq {
  std::uint64_t term;
  std::uint64_t candidate;
  std::uint64_t last_log_index;
  std::uint64_t last_log_term;
};

struct VoteRep {
  std::uint64_t term;
  std::uint8_t granted;
};

struct AppendRep {
  std::uint64_t term;
  std::uint8_t success;
  std::uint64_t match_or_hint;  // success: match index; failure: follower's last index
};

template <typename T>
Bytes pack_pod(const T& v) {
  BufWriter w;
  w.write_pod(v);
  return w.take();
}

template <typename T>
T unpack_pod(const Bytes& b) {
  BufReader r(b);
  return r.read_pod<T>();
}

}  // namespace

RaftCluster::RaftCluster(sim::Comm& comm, RaftConfig cfg)
    : comm_(comm), cfg_(cfg), rng_(cfg.seed), nodes_(comm.nranks()) {
  for (auto& nd : nodes_) nd.log.push_back(LogEntry{0, ""});  // index-0 sentinel
  tag_vote_req_ = comm_.next_tag();
  tag_vote_rep_ = comm_.next_tag();
  tag_append_req_ = comm_.next_tag();
  tag_append_rep_ = comm_.next_tag();
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    comm_.set_handler(n, tag_vote_req_, [this, n](std::size_t, const Bytes& p) {
      if (!nodes_[n].down) on_vote_request(n, p);
    });
    comm_.set_handler(n, tag_vote_rep_, [this, n](std::size_t, const Bytes& p) {
      if (!nodes_[n].down) on_vote_reply(n, p);
    });
    comm_.set_handler(n, tag_append_req_, [this, n](std::size_t from, const Bytes& p) {
      if (!nodes_[n].down) on_append_request(n, from, p);
    });
    comm_.set_handler(n, tag_append_rep_, [this, n](std::size_t from, const Bytes& p) {
      if (!nodes_[n].down) on_append_reply(n, from, p);
    });
  }
}

void RaftCluster::bind_metrics(obs::MetricsRegistry& reg) {
  m_elections_ = &reg.counter("raft.elections_started");
  m_leaders_ = &reg.counter("raft.leaders_elected");
  m_appends_ = &reg.counter("raft.append_rpcs");
  m_commits_ = &reg.counter("raft.entries_committed");
}

void RaftCluster::start() {
  for (std::size_t n = 0; n < nodes_.size(); ++n) arm_election_timer(n);
}

void RaftCluster::stop() { stopped_ = true; }

std::optional<std::size_t> RaftCluster::leader() const {
  std::optional<std::size_t> best;
  std::uint64_t best_term = 0;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].down && nodes_[n].role == RaftRole::kLeader &&
        nodes_[n].current_term >= best_term) {
      best = n;
      best_term = nodes_[n].current_term;
    }
  }
  return best;
}

std::vector<std::string> RaftCluster::committed_commands(std::size_t node) const {
  const Node& nd = nodes_[node];
  std::vector<std::string> out;
  for (std::uint64_t i = 1; i <= nd.commit_index; ++i) {
    out.push_back(nd.log[i].command);
  }
  return out;
}

void RaftCluster::arm_election_timer(std::size_t n) {
  Node& nd = nodes_[n];
  const std::uint64_t epoch = ++nd.timer_epoch;
  const double delay = kElectionTimeoutMin +
                       (kElectionTimeoutMax - kElectionTimeoutMin) * rng_.next_double();
  comm_.simulator().schedule_after(delay, [this, n, epoch] {
    Node& node = nodes_[n];
    if (stopped_ || node.down || epoch != node.timer_epoch) return;
    if (node.role != RaftRole::kLeader) start_election(n);
  });
}

void RaftCluster::become_follower(std::size_t n, std::uint64_t term) {
  Node& nd = nodes_[n];
  nd.role = RaftRole::kFollower;
  if (term > nd.current_term) {
    nd.current_term = term;
    nd.voted_for = -1;
  }
  arm_election_timer(n);
}

void RaftCluster::start_election(std::size_t n) {
  Node& nd = nodes_[n];
  nd.role = RaftRole::kCandidate;
  ++nd.current_term;
  nd.voted_for = static_cast<std::int64_t>(n);
  nd.votes = 1;
  ++stats_.elections_started;
  if (m_elections_ != nullptr) m_elections_->add(1);
  arm_election_timer(n);  // retry if the election stalls

  if (nd.votes >= majority()) {  // single-node cluster
    become_leader(n);
    return;
  }
  VoteReq req{nd.current_term, n, last_log_index(nd), last_log_term(nd)};
  for (std::size_t peer = 0; peer < nodes_.size(); ++peer) {
    if (peer != n) comm_.send(n, peer, tag_vote_req_, pack_pod(req));
  }
}

void RaftCluster::on_vote_request(std::size_t self, const Bytes& payload) {
  const auto req = unpack_pod<VoteReq>(payload);
  Node& nd = nodes_[self];
  if (req.term > nd.current_term) become_follower(self, req.term);
  bool grant = false;
  if (req.term == nd.current_term &&
      (nd.voted_for == -1 || nd.voted_for == static_cast<std::int64_t>(req.candidate))) {
    // Election restriction: candidate's log must be at least as up-to-date.
    const bool up_to_date =
        req.last_log_term > last_log_term(nd) ||
        (req.last_log_term == last_log_term(nd) && req.last_log_index >= last_log_index(nd));
    if (up_to_date) {
      grant = true;
      nd.voted_for = static_cast<std::int64_t>(req.candidate);
      arm_election_timer(self);  // granting a vote defers our own candidacy
    }
  }
  comm_.send(self, static_cast<std::size_t>(req.candidate), tag_vote_rep_,
             pack_pod(VoteRep{nd.current_term, static_cast<std::uint8_t>(grant)}));
}

void RaftCluster::on_vote_reply(std::size_t self, const Bytes& payload) {
  const auto rep = unpack_pod<VoteRep>(payload);
  Node& nd = nodes_[self];
  if (rep.term > nd.current_term) {
    become_follower(self, rep.term);
    return;
  }
  if (nd.role != RaftRole::kCandidate || rep.term != nd.current_term || !rep.granted) {
    return;
  }
  if (++nd.votes >= majority()) become_leader(self);
}

void RaftCluster::become_leader(std::size_t n) {
  Node& nd = nodes_[n];
  nd.role = RaftRole::kLeader;
  nd.next_index.assign(nodes_.size(), last_log_index(nd) + 1);
  nd.match_index.assign(nodes_.size(), 0);
  nd.match_index[n] = last_log_index(nd);
  ++stats_.leaders_elected;
  if (m_leaders_ != nullptr) m_leaders_->add(1);
  const std::uint64_t epoch = ++nd.timer_epoch;  // cancel the election timer
  heartbeat_tick(n, epoch);
}

void RaftCluster::heartbeat_tick(std::size_t n, std::uint64_t epoch) {
  Node& nd = nodes_[n];
  if (stopped_ || nd.down || epoch != nd.timer_epoch || nd.role != RaftRole::kLeader) {
    return;
  }
  send_heartbeats(n);
  comm_.simulator().schedule_after(cfg_.heartbeat_interval,
                                   [this, n, epoch] { heartbeat_tick(n, epoch); });
}

void RaftCluster::send_heartbeats(std::size_t n) {
  for (std::size_t peer = 0; peer < nodes_.size(); ++peer) {
    if (peer != n) send_append(n, peer);
  }
}

void RaftCluster::send_append(std::size_t leader, std::size_t peer) {
  Node& nd = nodes_[leader];
  const std::uint64_t next = nd.next_index[peer];
  const std::uint64_t prev = next - 1;
  BufWriter w;
  w.write_pod(nd.current_term);
  w.write_pod(prev);
  w.write_pod(nd.log[prev].term);
  w.write_pod(nd.commit_index);
  const std::uint64_t count = last_log_index(nd) >= next
                                  ? last_log_index(nd) - next + 1
                                  : 0;
  w.write_varint(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    w.write_pod(nd.log[next + i].term);
    w.write_string(nd.log[next + i].command);
  }
  ++stats_.append_rpcs;
  if (m_appends_ != nullptr) m_appends_->add(1);
  comm_.send(leader, peer, tag_append_req_, w.take());
}

void RaftCluster::on_append_request(std::size_t self, std::size_t from,
                                    const Bytes& payload) {
  BufReader r(payload);
  const auto term = r.read_pod<std::uint64_t>();
  const auto prev_index = r.read_pod<std::uint64_t>();
  const auto prev_term = r.read_pod<std::uint64_t>();
  const auto leader_commit = r.read_pod<std::uint64_t>();
  const auto count = r.read_varint();

  Node& nd = nodes_[self];
  if (term < nd.current_term) {
    comm_.send(self, from, tag_append_rep_,
               pack_pod(AppendRep{nd.current_term, 0, last_log_index(nd)}));
    return;
  }
  if (term > nd.current_term || nd.role != RaftRole::kFollower) {
    become_follower(self, term);
  } else {
    arm_election_timer(self);  // heartbeat received: defer elections
  }

  if (prev_index > last_log_index(nd) || nd.log[prev_index].term != prev_term) {
    comm_.send(self, from, tag_append_rep_,
               pack_pod(AppendRep{nd.current_term, 0, last_log_index(nd)}));
    return;
  }
  // Append entries, truncating on the first conflict.
  std::uint64_t idx = prev_index;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto e_term = r.read_pod<std::uint64_t>();
    std::string cmd = r.read_string();
    ++idx;
    if (idx <= last_log_index(nd)) {
      if (nd.log[idx].term != e_term) {
        nd.log.resize(idx);  // truncate the conflicting suffix
        nd.log.push_back(LogEntry{e_term, std::move(cmd)});
      }
    } else {
      nd.log.push_back(LogEntry{e_term, std::move(cmd)});
    }
  }
  const std::uint64_t match = idx;
  if (leader_commit > nd.commit_index) {
    nd.commit_index = std::min(leader_commit, last_log_index(nd));
    apply_commits(self);
  }
  comm_.send(self, from, tag_append_rep_,
             pack_pod(AppendRep{nd.current_term, 1, match}));
}

void RaftCluster::on_append_reply(std::size_t self, std::size_t from,
                                  const Bytes& payload) {
  const auto rep = unpack_pod<AppendRep>(payload);
  Node& nd = nodes_[self];
  if (rep.term > nd.current_term) {
    become_follower(self, rep.term);
    return;
  }
  if (nd.role != RaftRole::kLeader || rep.term != nd.current_term) return;
  if (rep.success) {
    nd.match_index[from] = std::max(nd.match_index[from], rep.match_or_hint);
    nd.next_index[from] = nd.match_index[from] + 1;
    advance_commit(self);
  } else {
    // Back up toward the follower's log end and retry immediately.
    const std::uint64_t hint_next = rep.match_or_hint + 1;
    nd.next_index[from] = std::max<std::uint64_t>(
        1, std::min(nd.next_index[from] - 1, hint_next));
    send_append(self, from);
  }
}

void RaftCluster::advance_commit(std::size_t leader) {
  Node& nd = nodes_[leader];
  for (std::uint64_t idx = last_log_index(nd); idx > nd.commit_index; --idx) {
    if (nd.log[idx].term != nd.current_term) break;  // figure-8 rule
    std::size_t matched = 0;
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      if (nd.match_index[p] >= idx) ++matched;
    }
    if (matched >= majority()) {
      stats_.entries_committed += idx - nd.commit_index;
      if (m_commits_ != nullptr) m_commits_->add(idx - nd.commit_index);
      nd.commit_index = idx;
      apply_commits(leader);
      break;
    }
  }
}

void RaftCluster::apply_commits(std::size_t n) {
  Node& nd = nodes_[n];
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->node != n) {
      ++it;
      continue;
    }
    if (it->index <= last_log_index(nd) && nd.log[it->index].term != it->term) {
      // Overwritten by a new leader: lost.
      auto cb = std::move(it->cb);
      it = pending_.erase(it);
      if (cb) cb(false, 0);
      continue;
    }
    if (it->index <= nd.commit_index && nd.log[it->index].term == it->term) {
      auto cb = std::move(it->cb);
      const auto idx = it->index;
      it = pending_.erase(it);
      if (cb) cb(true, idx);
      continue;
    }
    ++it;
  }
}

void RaftCluster::propose(std::string command, CommitCallback cb) {
  const auto l = leader();
  if (!l) {
    comm_.simulator().schedule_after(0.0, [cb] {
      if (cb) cb(false, 0);
    });
    return;
  }
  const std::size_t n = *l;
  // Client RPC hop to the leader, then append + replicate.
  comm_.network().send(n, n, 256, [this, n, command = std::move(command), cb]() {
    Node& nd = nodes_[n];
    if (nd.down || nd.role != RaftRole::kLeader || stopped_) {
      if (cb) cb(false, 0);
      return;
    }
    nd.log.push_back(LogEntry{nd.current_term, command});
    const std::uint64_t idx = last_log_index(nd);
    nd.match_index[n] = idx;
    pending_.push_back(Pending{n, nd.current_term, idx, cb});
    if (nodes_.size() == 1) {
      advance_commit(n);
    } else {
      send_heartbeats(n);  // replicate immediately
    }
  });
}

void RaftCluster::fail_node(std::size_t node) {
  Node& nd = nodes_[node];
  nd.down = true;
  ++nd.timer_epoch;  // cancel timers and heartbeat loops
}

void RaftCluster::recover_node(std::size_t node) {
  Node& nd = nodes_[node];
  nd.down = false;
  nd.role = RaftRole::kFollower;  // restart as follower with persisted state
  arm_election_timer(node);
}

}  // namespace hpbdc::kvstore
