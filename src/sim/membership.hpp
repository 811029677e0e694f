#pragma once
// Cluster membership: ONE heartbeat failure detector per simulated cluster,
// shared by every runtime on it (DESIGN.md, "Failure detection"). Nodes beat
// to the observer rank every `interval` plus a [0, jitter) draw, first at a
// fixed per-node phase; the observer's monitor declares a node dead after
// `timeout` of silence, and its next beat re-registers it. Subscribers get
// each ground-truth kill/recovery and each verdict once, plus every monitor
// tick. The loops run only while a subscriber has a job active, restarting
// after an idle spell and stopping at their next tick once all jobs ended.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/comm.hpp"

namespace hpbdc::sim {

class Dfs;

class Membership {
 public:
  class Subscriber {
   public:
    virtual void on_liveness(std::size_t /*node*/, bool /*alive*/) {}
    virtual void on_declared_dead(std::size_t /*node*/) {}
    virtual void on_rejoined(std::size_t /*node*/) {}
    virtual void on_monitor_tick() {}

   protected:
    ~Subscriber() = default;
  };

  struct Stats {
    std::uint64_t heartbeats = 0;     // beats the observer received
    std::uint64_t declared_dead = 0;  // verdicts, one per death
  };

  /// `seed` fixes the beat phases and the jitter stream; `dfs` is optional.
  Membership(Comm& comm, std::size_t observer, double interval, double timeout,
             double jitter, std::uint64_t seed, Dfs* dfs = nullptr);
  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  /// Subscribers must outlive the service.
  void subscribe(Subscriber& s) { subs_.push_back(&s); }
  void job_started();
  void job_finished() { --active_; }

  /// Ground-truth kill (alive = false) or recovery, now or at time t;
  /// repeats are no-ops. Killing the observer throws std::invalid_argument.
  void set_alive(std::size_t node, bool alive);
  void set_alive_at(std::size_t node, bool alive, SimTime t);

  bool alive(std::size_t node) const { return nodes_[node].alive; }
  bool declared_dead(std::size_t node) const { return nodes_[node].declared_dead; }
  /// Nodes alive and not declared dead, the observer included.
  std::size_t live() const;
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Node {
    bool alive = true;
    bool declared_dead = false;
    SimTime last_beat = 0;
    double phase = 0;
  };

  Simulator& sim() noexcept { return comm_.simulator(); }
  bool running(std::uint64_t gen) const noexcept { return gen == gen_ && active_ > 0; }
  void check_mortal(std::size_t node, bool alive) const;
  void send_beat(std::size_t node);
  void beat(std::size_t node, std::uint64_t gen);
  void monitor(std::uint64_t gen);
  void on_beat(std::size_t node, const Bytes& payload);

  Comm& comm_;
  Dfs* dfs_;
  std::size_t observer_;
  double interval_, timeout_, jitter_;
  int tag_;
  Rng jitter_rng_;
  std::vector<Node> nodes_;
  std::vector<Subscriber*> subs_;
  std::size_t active_ = 0;  // jobs running across every subscriber
  std::uint64_t gen_ = 0;   // bumped per restart; fences the older loops
  Stats stats_;
};

}  // namespace hpbdc::sim
