#pragma once
// Closed-loop fleet elasticity for the serve stack: the piece that turns a
// fixed simulated cluster into a demand-shaped cloud deployment. A
// FleetController polls the serve layer's own signals on the sim clock —
// executor-slot utilization, queue depth, backpressure, and the
// deadline-miss rate — feeds them through a target-tracking policy
// (cluster::TargetTracker), and actuates capacity in two coupled layers:
//
//   nodes — each non-driver cluster node is a machine with a lifecycle:
//           off -> (provision_delay) -> active -> draining -> off. A warm
//           pool keeps a few powered-off machines reserved (activation in
//           warm_activate_delay at 0.2x standby cost); a
//           configurable tail of the fleet is SPOT capacity, billed at
//           spot_cost_factor but revocable — preemption schedules reuse
//           chaos::make_kill_schedule, and a revoked machine returns to
//           the market at its scheduled recover time. Draining stops NEW
//           task dispatch to the machine (DistRuntime executor drain) while
//           running attempts finish; the power-off after drain_grace is
//           covered by lineage recomputation and checkpoints for whatever
//           was still in flight.
//   slots — the JobSlotPool grows/shrinks to jobs_per_node slots per
//           active node (add_slot / retire_idle_slot), and the controller
//           pokes serve::JobService::notify_capacity_changed after growth
//           so queued work dispatches immediately.
//
// Cost accounting (FleetStats::node_seconds) integrates the per-state
// price of every machine over simulated time — the static-vs-elastic-vs-
// elastic+spot comparison of bench_f17. Everything is seed-deterministic:
// the controller adds no randomness of its own, and preemptions derive
// entirely from preempt_seed.

#include <cstdint>
#include <vector>

#include "chaos/harness.hpp"
#include "cluster/autoscaler.hpp"
#include "dist/slots.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace hpbdc::fleet {

/// Machine lifecycle states. kPreempted is spot-only: revoked by the
/// market, unusable until its scheduled return.
enum class NodeState : std::uint8_t {
  kOff = 0,
  kWarm,          // powered off, reserved: fast activation, standby cost
  kProvisioning,  // boot in progress (cold or warm activation)
  kActive,
  kDraining,      // no new tasks; power-off after drain_grace
  kPreempted,     // spot revoked; returns to market at recover time
};
const char* node_state_name(NodeState s);

struct FleetConfig {
  std::size_t min_nodes = 1;
  std::size_t max_nodes = 0;      // 0 = every non-driver cluster node
  std::size_t initial_nodes = 0;  // 0 = min_nodes
  /// JobSlotPool slots per active node: the capacity unit the tracker
  /// plans in (more machines = more concurrent jobs).
  std::size_t jobs_per_node = 1;
  // Control loop.
  double control_interval = 1.0;      // seconds between evaluations
  double target_utilization = 0.7;    // plan for this steady-state load
  double scale_up_cooldown = 2.0;
  double scale_down_cooldown = 8.0;
  // Node lifecycle.
  double provision_delay = 3.0;       // cold boot
  double warm_activate_delay = 0.5;   // warm-pool activation
  std::size_t warm_target = 1;        // machines kept warm after a drain
  double drain_grace = 2.0;           // drain before power-off
  // Spot market: the spot_fraction highest-id machines are preemptible at
  // spot_cost_factor price. preempt_seed = 0 disables revocations.
  double spot_fraction = 0.0;
  double spot_cost_factor = 0.3;
  std::uint64_t preempt_seed = 0;
  std::size_t preemptions = 0;
  double preempt_horizon = 60.0;
};

struct FleetStats {
  std::uint64_t ticks = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t nodes_provisioned = 0;  // cold boots ordered
  std::uint64_t warm_activations = 0;
  std::uint64_t drain_cancels = 0;      // draining machine re-activated
  std::uint64_t nodes_drained = 0;
  std::uint64_t nodes_powered_off = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t slots_added = 0;
  std::uint64_t slots_retired = 0;
  double node_seconds = 0;      // state-priced cost integral (the bill)
  double node_seconds_raw = 0;  // unpriced active+boot+drain machine-seconds
  std::size_t max_active = 0;
  std::size_t min_active = ~std::size_t{0};
};

class FleetController {
 public:
  /// The controller drives `pool` and reads `svc`'s signals; both must
  /// outlive it. Node ids are the pool's cluster nodes minus the driver.
  FleetController(dist::JobSlotPool& pool, serve::JobService& svc,
                  FleetConfig cfg);

  /// Snapshot the FleetStats counters, the per-state node counts and the
  /// pool's slot count into `reg` as fleet.* gauges. Exporting twice in a
  /// row changes nothing.
  void export_metrics(obs::MetricsRegistry& reg) const;

  /// Power the fleet to its initial shape (machines beyond initial_nodes
  /// power off, the first warm_target of them to the warm pool), schedule
  /// the spot preemption schedule, and begin the control loop. Call once,
  /// before (or at) the first workload arrival.
  void start();

  /// Stop the control loop and freeze capacity in its current state; any
  /// already-scheduled lifecycle event stands down. After stop() the
  /// controller schedules nothing further, so the simulator can go idle —
  /// which is what the campaign's liveness oracle checks.
  void stop() { stopped_ = true; }

  const FleetStats& stats() const noexcept { return stats_; }
  const FleetConfig& config() const noexcept { return cfg_; }
  std::size_t active_nodes() const noexcept;
  NodeState node_state(std::size_t node) const;
  bool is_spot(std::size_t node) const;

 private:
  struct Node {
    std::size_t id = 0;  // cluster node id
    NodeState state = NodeState::kOff;
    bool spot = false;
    /// Bumped on every state transition. Scheduled lifecycle callbacks
    /// (activation after boot, power-off after drain_grace) capture the
    /// epoch at scheduling time and stand down if the node has transitioned
    /// since — a drain cancel or preemption invalidates in-flight timers
    /// without having to cancel simulator events.
    std::uint64_t epoch = 0;
  };

  sim::Simulator& sim() { return pool_.simulator(); }
  void tick();
  void account(double dt);
  std::size_t count_state(NodeState s) const;
  void provision(std::size_t n);
  void activate(Node& nd);
  void drain(std::size_t n);
  void finish_drain(Node& nd);
  void preempt(Node& nd, double recover_at);
  void reconcile_slots();
  double node_price(const Node& nd) const;

  dist::JobSlotPool& pool_;
  serve::JobService& svc_;
  FleetConfig cfg_;
  cluster::TargetTracker tracker_;
  std::vector<Node> nodes_;  // fleet machines (cluster nodes minus driver)
  bool started_ = false;
  bool stopped_ = false;
  double last_account_ = 0;
  std::uint64_t last_misses_ = 0;
  std::uint64_t last_completions_ = 0;
  FleetStats stats_;
};

}  // namespace hpbdc::fleet
