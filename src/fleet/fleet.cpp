#include "fleet/fleet.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hpbdc::fleet {

const char* node_state_name(NodeState s) {
  switch (s) {
    case NodeState::kOff: return "off";
    case NodeState::kWarm: return "warm";
    case NodeState::kProvisioning: return "provisioning";
    case NodeState::kActive: return "active";
    case NodeState::kDraining: return "draining";
    case NodeState::kPreempted: return "preempted";
  }
  return "?";
}

namespace {

constexpr double kWarmCostFactor = 0.2;  // standby price of a warm machine
// Signal shaping: when the service is backpressured or missing deadlines,
// inflate demand by this fraction of current capacity so the tracker reacts
// to overload the queue-depth signal alone understates.
constexpr double kBackpressureBoost = 0.5;
constexpr double kMissRateThreshold = 0.05;  // deadline sheds / completions per tick

/// Resolve the 0-means-default knobs against the pool's actual cluster and
/// validate the result; the ctor runs this before any member that depends
/// on the final numbers (the tracker wants min/max at construction).
FleetConfig normalize(const dist::JobSlotPool& pool, FleetConfig cfg) {
  const std::size_t cluster = pool.cluster_nodes();
  if (cluster < 2) {
    throw std::invalid_argument("FleetController: need a driver + >= 1 worker");
  }
  const std::size_t fleet = cluster - 1;  // every node but the driver
  if (cfg.max_nodes == 0 || cfg.max_nodes > fleet) cfg.max_nodes = fleet;
  if (cfg.min_nodes == 0) cfg.min_nodes = 1;
  if (cfg.min_nodes > cfg.max_nodes) {
    throw std::invalid_argument("FleetController: min_nodes > max_nodes");
  }
  if (cfg.initial_nodes == 0) cfg.initial_nodes = cfg.min_nodes;
  cfg.initial_nodes = std::clamp(cfg.initial_nodes, cfg.min_nodes, cfg.max_nodes);
  if (cfg.jobs_per_node == 0) cfg.jobs_per_node = 1;
  if (cfg.control_interval <= 0) {
    throw std::invalid_argument("FleetController: control_interval must be > 0");
  }
  if (cfg.spot_fraction < 0 || cfg.spot_fraction > 1) {
    throw std::invalid_argument("FleetController: spot_fraction out of [0,1]");
  }
  return cfg;
}

}  // namespace

FleetController::FleetController(dist::JobSlotPool& pool, serve::JobService& svc,
                                 FleetConfig cfg)
    : pool_(pool),
      svc_(svc),
      cfg_(normalize(pool, cfg)),
      tracker_(static_cast<double>(cfg_.jobs_per_node), cfg_.target_utilization,
               cfg_.min_nodes, cfg_.max_nodes, cfg_.scale_up_cooldown,
               cfg_.scale_down_cooldown) {
  const std::size_t driver = pool_.config().driver;
  for (std::size_t n = 0; n < pool_.cluster_nodes(); ++n) {
    if (n == driver) continue;
    Node nd;
    nd.id = n;
    nodes_.push_back(nd);
  }
  // The spot tail: the highest-id machines, never eating into the always-on
  // floor (the lowest min_nodes ids stay on-demand, so a chaos schedule that
  // targets only that floor is independent of the spot market).
  std::size_t spot = static_cast<std::size_t>(cfg_.spot_fraction *
                                              static_cast<double>(cfg_.max_nodes));
  spot = std::min(spot, nodes_.size() - std::min(nodes_.size(), cfg_.min_nodes));
  for (std::size_t i = 0; i < spot; ++i) {
    nodes_[nodes_.size() - 1 - i].spot = true;
  }
}

void FleetController::export_metrics(obs::MetricsRegistry& reg) const {
  const auto set = [&reg](const char* name, std::uint64_t v) {
    reg.gauge(std::string("fleet.") + name).set(static_cast<std::int64_t>(v));
  };
  set("scale_ups", stats_.scale_ups);
  set("scale_downs", stats_.scale_downs);
  set("nodes_provisioned", stats_.nodes_provisioned);
  set("warm_activations", stats_.warm_activations);
  set("nodes_drained", stats_.nodes_drained);
  set("nodes_powered_off", stats_.nodes_powered_off);
  set("preemptions", stats_.preemptions);
  set("slots_added", stats_.slots_added);
  set("slots_retired", stats_.slots_retired);
  set("active_nodes", count_state(NodeState::kActive));
  set("warm_nodes", count_state(NodeState::kWarm));
  set("provisioning_nodes", count_state(NodeState::kProvisioning));
  set("draining_nodes", count_state(NodeState::kDraining));
  set("slots", pool_.slots());
}

std::size_t FleetController::active_nodes() const noexcept {
  return count_state(NodeState::kActive);
}

NodeState FleetController::node_state(std::size_t node) const {
  for (const Node& nd : nodes_) {
    if (nd.id == node) return nd.state;
  }
  throw std::out_of_range("FleetController: not a fleet node");
}

bool FleetController::is_spot(std::size_t node) const {
  for (const Node& nd : nodes_) {
    if (nd.id == node) return nd.spot;
  }
  throw std::out_of_range("FleetController: not a fleet node");
}

void FleetController::start() {
  if (started_) throw std::logic_error("FleetController: start() called twice");
  started_ = true;
  const double now = sim().now();
  last_account_ = now;

  // Initial shape: the lowest-id initial_nodes machines are active; of the
  // rest, warm_target go to the warm pool and the remainder power off. Every
  // non-active machine is DEAD in the pool from here on — activation is what
  // revives it.
  std::size_t active = 0;
  for (Node& nd : nodes_) {
    nd.state = active < cfg_.initial_nodes ? NodeState::kActive : NodeState::kOff;
    if (nd.state == NodeState::kActive) ++active;
  }
  std::size_t warm = 0;
  for (Node& nd : nodes_) {
    if (nd.state == NodeState::kOff && warm < cfg_.warm_target) {
      nd.state = NodeState::kWarm;
      ++warm;
    }
  }
  for (Node& nd : nodes_) {
    if (nd.state != NodeState::kActive) pool_.kill_node_at(nd.id, now);
  }
  reconcile_slots();

  // Spot revocations: a chaos kill schedule over the spot tail. The schedule
  // is generated over a virtual cluster of (spot count + 1) ids with id 0
  // protected, then mapped onto the real spot machine ids — the same
  // survivability shape (one revocation at a time, bounded downtime) the
  // dist-layer chaos harness guarantees.
  if (cfg_.preempt_seed != 0 && cfg_.preemptions > 0) {
    std::vector<std::size_t> spot_idx;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].spot) spot_idx.push_back(i);
    }
    if (!spot_idx.empty()) {
      for (const chaos::KillEvent& ev : chaos::make_kill_schedule(
               cfg_.preempt_seed, spot_idx.size() + 1, 0, cfg_.preemptions,
               cfg_.preempt_horizon)) {
        const std::size_t idx = spot_idx[ev.node - 1];
        sim().schedule_at(now + ev.kill_time,
                          [this, idx, rec = now + ev.recover_time] {
                            if (!stopped_) preempt(nodes_[idx], rec);
                          });
      }
    }
  }

  sim().schedule_at(now + cfg_.control_interval, [this] { tick(); });
}

void FleetController::tick() {
  if (stopped_) return;
  const double now = sim().now();
  account(now - last_account_);
  last_account_ = now;
  ++stats_.ticks;

  // Signals: slot demand is work running plus work queued; backpressure or
  // a deadline-miss spike means the queue-depth number understates real
  // pressure (admission is already shedding), so inflate demand by a
  // fraction of current capacity to force the tracker's hand.
  double demand =
      static_cast<double>(pool_.busy()) + static_cast<double>(svc_.queue_depth());
  const serve::ServeStats& st = svc_.stats();
  const std::uint64_t misses =
      st.shed_by[static_cast<std::size_t>(serve::Reject::kDeadlineExpired)];
  const std::uint64_t dmiss = misses - last_misses_;
  const std::uint64_t ddone = st.completed - last_completions_;
  last_misses_ = misses;
  last_completions_ = st.completed;
  const double miss_rate =
      dmiss == 0 ? 0.0
                 : static_cast<double>(dmiss) / static_cast<double>(dmiss + ddone);
  if (svc_.backpressured() || miss_rate > kMissRateThreshold) {
    demand += kBackpressureBoost * static_cast<double>(pool_.slots());
  }

  const std::size_t running = count_state(NodeState::kActive);
  const std::size_t booting = count_state(NodeState::kProvisioning);
  stats_.max_active = std::max(stats_.max_active, running);
  stats_.min_active = std::min(stats_.min_active, running);

  const cluster::TargetTracker::Decision d =
      tracker_.decide(now, demand, running, booting);
  if (d.action == cluster::TargetTracker::Action::kUp) {
    ++stats_.scale_ups;
    provision(d.order);
  } else if (d.action == cluster::TargetTracker::Action::kDown) {
    ++stats_.scale_downs;
    drain(running - d.desired);
  }

  // Retirements that had to wait for a slot to go idle complete here.
  reconcile_slots();
  sim().schedule_at(now + cfg_.control_interval, [this] { tick(); });
}

void FleetController::account(double dt) {
  if (dt <= 0) return;
  for (const Node& nd : nodes_) {
    stats_.node_seconds += node_price(nd) * dt;
    switch (nd.state) {
      case NodeState::kActive:
      case NodeState::kProvisioning:
      case NodeState::kDraining:
        stats_.node_seconds_raw += dt;
        break;
      default:
        break;
    }
  }
}

double FleetController::node_price(const Node& nd) const {
  const double base = nd.spot ? cfg_.spot_cost_factor : 1.0;
  switch (nd.state) {
    case NodeState::kActive:
    case NodeState::kProvisioning:
    case NodeState::kDraining:
      return base;
    case NodeState::kWarm:
      return kWarmCostFactor * base;
    case NodeState::kOff:
    case NodeState::kPreempted:
      return 0.0;
  }
  return 0.0;
}

std::size_t FleetController::count_state(NodeState s) const {
  std::size_t n = 0;
  for (const Node& nd : nodes_) {
    if (nd.state == s) ++n;
  }
  return n;
}

void FleetController::provision(std::size_t n) {
  const double now = sim().now();
  // Cheapest capacity first: cancel drains (instant and free), then the warm
  // pool (fast), then cold boots.
  for (Node& nd : nodes_) {
    if (n == 0) return;
    if (nd.state != NodeState::kDraining) continue;
    ++nd.epoch;  // invalidates the pending power-off timer
    nd.state = NodeState::kActive;
    pool_.set_node_draining(nd.id, false);
    ++stats_.drain_cancels;
    --n;
  }
  for (Node& nd : nodes_) {
    if (n == 0) return;
    if (nd.state != NodeState::kWarm) continue;
    ++nd.epoch;
    nd.state = NodeState::kProvisioning;
    ++stats_.warm_activations;
    const std::uint64_t e = nd.epoch;
    sim().schedule_at(now + cfg_.warm_activate_delay, [this, &nd, e] {
      if (!stopped_ && nd.epoch == e) activate(nd);
    });
    --n;
  }
  for (Node& nd : nodes_) {
    if (n == 0) return;
    if (nd.state != NodeState::kOff) continue;
    ++nd.epoch;
    nd.state = NodeState::kProvisioning;
    ++stats_.nodes_provisioned;
    const std::uint64_t e = nd.epoch;
    sim().schedule_at(now + cfg_.provision_delay, [this, &nd, e] {
      if (!stopped_ && nd.epoch == e) activate(nd);
    });
    --n;
  }
  // n may still be > 0 here: the rest of the fleet is preempted spot
  // capacity. Nothing to do but wait for the market to give it back.
}

void FleetController::activate(Node& nd) {
  const double now = sim().now();
  ++nd.epoch;
  nd.state = NodeState::kActive;
  // Non-active machines are dead in the pool; revive, clear any stale drain
  // flag (a drained machine keeps it while off), then let queued work in.
  pool_.recover_node_at(nd.id, now);
  pool_.set_node_draining(nd.id, false);
  reconcile_slots();
  svc_.notify_capacity_changed();
}

void FleetController::drain(std::size_t n) {
  const double now = sim().now();
  // Highest ids first: the spot tail drains before on-demand machines, and
  // the always-on floor (lowest min_nodes ids) is reached last — the tracker
  // never asks below min_nodes anyway.
  for (std::size_t i = nodes_.size(); i-- > 0 && n > 0;) {
    Node& nd = nodes_[i];
    if (nd.state != NodeState::kActive) continue;
    ++nd.epoch;
    nd.state = NodeState::kDraining;
    pool_.set_node_draining(nd.id, true);
    ++stats_.nodes_drained;
    const std::uint64_t e = nd.epoch;
    sim().schedule_at(now + cfg_.drain_grace, [this, &nd, e] {
      if (!stopped_ && nd.epoch == e) finish_drain(nd);
    });
    --n;
  }
}

void FleetController::finish_drain(Node& nd) {
  // The drain flag stays SET through the off state (activation clears it):
  // clearing it before the kill lands would let schedulers dispatch onto a
  // machine with an execution under it.
  pool_.kill_node_at(nd.id, sim().now());
  ++nd.epoch;
  if (count_state(NodeState::kWarm) < cfg_.warm_target) {
    nd.state = NodeState::kWarm;
  } else {
    nd.state = NodeState::kOff;
    ++stats_.nodes_powered_off;
  }
  reconcile_slots();
}

void FleetController::preempt(Node& nd, double recover_at) {
  ++stats_.preemptions;
  // Revoking a machine that was serving work IS a chaos kill: in-flight
  // attempts die and lineage/checkpoints recover them. A machine revoked
  // while off/warm/provisioning simply never had work to lose.
  if (nd.state == NodeState::kActive || nd.state == NodeState::kDraining) {
    pool_.kill_node_at(nd.id, sim().now());
  }
  ++nd.epoch;  // stands down any pending activation / power-off timer
  nd.state = NodeState::kPreempted;
  const std::uint64_t e = nd.epoch;
  sim().schedule_at(recover_at, [this, &nd, e] {
    // Back on the market: powered off, eligible for the next scale-up.
    if (nd.epoch == e) {
      ++nd.epoch;
      nd.state = NodeState::kOff;
    }
  });
  reconcile_slots();
}

void FleetController::reconcile_slots() {
  const std::size_t desired =
      std::max<std::size_t>(1, count_state(NodeState::kActive) * cfg_.jobs_per_node);
  while (pool_.slots() < desired) {
    pool_.add_slot();
    ++stats_.slots_added;
  }
  while (pool_.slots() > desired && pool_.retire_idle_slot()) {
    ++stats_.slots_retired;
  }
}

}  // namespace hpbdc::fleet
