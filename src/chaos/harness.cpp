#include "chaos/harness.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "dataflow/context.hpp"
#include "obs/metrics.hpp"
#include "plan/cost.hpp"
#include "plan/lower.hpp"

namespace hpbdc::chaos {

namespace {

// Fixed bounds of the fault generator's draws.
constexpr std::size_t kMaxKills = 2;
constexpr double kMinDowntime = 0.8, kMaxDowntime = 3.0;
constexpr double kMaxLoss = 0.3;        // loss-burst probability ceiling
constexpr double kMaxJitter = 0.004;    // reorder-burst delivery jitter (s)
constexpr double kMaxExtraDelay = 0.12;  // heartbeat-delay burst (s); keep well
                                         // under the detector timeout
constexpr double kMinSpeed = 0.2, kMaxSpeed = 0.6;

/// The fault generator's knobs for one run; shared by the run itself and by
/// the shrinker's mask width, which must agree on the schedule length.
FaultGenOptions fault_options(const ChaosConfig& cfg) {
  FaultGenOptions fo;
  fo.nodes = cfg.cluster_nodes;
  fo.protect = 0;  // the driver
  if (cfg.ec_checkpoints) {
    fo.max_shard_losses = 2;
    fo.max_repair_kicks = 1;
  }
  return fo;
}

}  // namespace

SimCluster::SimCluster(std::size_t nodes, std::uint64_t loss_seed, bool ec)
    : net(sim, [&] {
        sim::NetworkConfig nc;
        nc.nodes = nodes;
        nc.topology = sim::Topology::kStar;
        nc.loss_seed = loss_seed;
        return nc;
      }()),
      comm(sim, net),
      dfs(comm, [ec] {
        sim::DfsConfig dfc;
        if (ec) {
          // RS(3, 2): anti-affine placement over >= 5 live nodes means a
          // single node outage costs at most one shard per stripe, well
          // inside the m = 2 tolerance. Repair runs in the background,
          // throttled, so it races reads and the dfs_repair_race fault.
          dfc.ec_data_shards = 3;
          dfc.ec_parity_shards = 2;
          dfc.auto_repair_delay = 0.5;
          dfc.repair_bandwidth_bps = 100e6;
        }
        return dfc;
      }()) {}

dist::DistConfig campaign_dist_config(std::uint64_t seed) {
  dist::DistConfig dc;
  dc.driver = 0;
  dc.slots_per_node = 2;
  dc.heartbeat_interval = 0.1;
  dc.heartbeat_timeout = 0.5;
  dc.heartbeat_jitter = 0.01;
  dc.attempt_timeout = 10.0;  // >> any genuine attempt at chaos sizes
  dc.max_task_attempts = 8;
  dc.speculate = true;  // injected stragglers should race speculative copies
  dc.seed = seed;
  return dc;
}

const CampaignKit<ChaosConfig>& batch_kit() {
  using C = ChaosConfig;
  static const CampaignKit<C> kit{
      {field("pseed", &C::plan_seed),
       field("fseed", &C::fault_seed),
       field("nodes", &C::plan_nodes, Show::kAlways, 1, kMaxCount),
       field("rows", &C::rows, Show::kAlways, 0, kMaxRows),
       field("tasks", &C::ntasks, Show::kAlways, 1, kMaxCount),
       field("cluster", &C::cluster_nodes, Show::kAlways, 2, kMaxCount),
       field("mask", &C::fault_mask, Show::kHex),
       field("bug", &C::inject_lineage_bug),
       field("tp", &C::transport, Show::kIfChanged),
       field("ec", &C::ec_checkpoints, Show::kIfChanged),
       field("ecbug", &C::inject_ec_placement_bug, Show::kIfChanged),
       field("cb", &C::cost_based, Show::kIfChanged)},
      {dim(Shrink::kAscending, &C::plan_nodes, 1),
       dim(Shrink::kMaskBits, &C::fault_mask, 0,
           [](const C& c) {
             return make_fault_plan(c.fault_seed, fault_options(c)).events.size();
           })},
      [](const C& c) { check_product("nodes*rows", {c.plan_nodes, c.rows}, kMaxRows); }};
  return kit;
}

std::string describe(const ChaosOutcome& out) {
  std::ostringstream os;
  os << "  plan: " << out.plan << "\n  optimized: " << out.optimized
     << " (rules=" << out.opt_stats.rules_applied()
     << " stages_eliminated=" << out.opt_stats.stages_eliminated << ")"
     << "\n  violation: " << out.violation
     << "\n  stats: launched=" << out.dist_stats.tasks_launched
     << " completed=" << out.dist_stats.tasks_completed
     << " retries=" << out.dist_stats.task_retries
     << " fetch_failures=" << out.dist_stats.fetch_failures
     << " stale=" << out.dist_stats.stale_events_ignored
     << " max_failures_one_task=" << out.dist_stats.max_failures_one_task
     << " makespan=" << out.makespan << "s\n";
  return os.str();
}

sim::FaultPlan make_fault_plan(std::uint64_t seed, const FaultGenOptions& opt) {
  Rng rng(mix_seed(seed, 0xFA017));
  sim::FaultPlan plan;
  auto pick_node = [&rng, &opt] {
    std::size_t n = rng.next_below(opt.nodes);
    while (n == opt.protect) n = rng.next_below(opt.nodes);
    return n;
  };
  // Kill/recover pairs in strictly sequential windows: at most one node down
  // at any time, and every kill recovers after a bounded downtime — the
  // survivability contract the differential oracle's success check rests on.
  if (opt.nodes >= 2) {
    const auto kills = rng.next_below(kMaxKills + 1);
    double cursor = 0.15;
    for (std::uint64_t i = 0; i < kills; ++i) {
      const double start =
          cursor + rng.next_double() * (opt.horizon / static_cast<double>(kills + 1));
      const double down =
          kMinDowntime + rng.next_double() * (kMaxDowntime - kMinDowntime);
      std::size_t node;
      if (opt.target_leader && rng.next_bool(0.6)) {
        node = sim::FaultInjector::kLeaderTarget;
      } else {
        node = pick_node();
      }
      plan.kill(start, node).recover(start + down, node);
      cursor = start + down + 0.2;
    }
  }
  if (rng.next_bool(0.7)) {
    const double t0 = 0.05 + rng.next_double() * opt.horizon * 0.7;
    const double p = 0.05 + rng.next_double() * (kMaxLoss - 0.05);
    plan.loss_burst(t0, t0 + 0.2 + rng.next_double() * 1.0, p);
  }
  if (rng.next_bool(0.6)) {
    const double t0 = 0.05 + rng.next_double() * opt.horizon * 0.7;
    const double jitter = 0.0005 + rng.next_double() * kMaxJitter;
    plan.reorder_burst(t0, t0 + 0.2 + rng.next_double() * 1.0, jitter);
  }
  if (rng.next_bool(0.5)) {
    const double t0 = 0.05 + rng.next_double() * opt.horizon * 0.7;
    const double extra = 0.02 + rng.next_double() * (kMaxExtraDelay - 0.02);
    plan.delay_burst(t0, t0 + 0.2 + rng.next_double() * 0.8, extra);
  }
  if (opt.nodes >= 2 && opt.max_stragglers > 0) {
    const auto slows = rng.next_below(opt.max_stragglers + 1);
    for (std::uint64_t i = 0; i < slows; ++i) {
      const std::size_t node = pick_node();
      const double t0 = 0.05 + rng.next_double() * opt.horizon * 0.6;
      const double speed =
          kMinSpeed + rng.next_double() * (kMaxSpeed - kMinSpeed);
      plan.slow(t0, node, speed).restore_speed(t0 + 1.0 + rng.next_double() * 2.0,
                                               node);
    }
  }
  if (opt.max_dfs_losses > 0) {
    const auto losses = rng.next_below(opt.max_dfs_losses + 1);
    for (std::uint64_t i = 0; i < losses; ++i) {
      plan.dfs_replica_loss(0.1 + rng.next_double() * opt.horizon);
    }
  }
  // EC draws come LAST: plans generated with the knobs off consume exactly
  // the historical RNG stream, keeping archived replay masks valid.
  if (opt.max_shard_losses > 0) {
    const auto losses = rng.next_below(opt.max_shard_losses + 1);
    for (std::uint64_t i = 0; i < losses; ++i) {
      plan.dfs_shard_loss_above_m(0.3 + rng.next_double() * opt.horizon);
    }
  }
  if (opt.max_repair_kicks > 0) {
    const auto kicks = rng.next_below(opt.max_repair_kicks + 1);
    for (std::uint64_t i = 0; i < kicks; ++i) {
      plan.dfs_repair_race(0.3 + rng.next_double() * opt.horizon);
    }
  }
  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const sim::FaultEvent& a, const sim::FaultEvent& b) { return a.at < b.at; });
  return plan;
}

std::vector<KillEvent> make_kill_schedule(std::uint64_t seed, std::size_t nodes,
                                          std::size_t protect, std::size_t kills,
                                          double horizon) {
  if (nodes < 2 || protect >= nodes) {
    throw std::invalid_argument("make_kill_schedule: need >= 2 nodes, protect in range");
  }
  if (horizon <= 0) {
    throw std::invalid_argument("make_kill_schedule: degenerate window");
  }
  Rng rng(mix_seed(seed, 0x5EACF));
  std::vector<KillEvent> out;
  double cursor = 0.15;
  for (std::size_t i = 0; i < kills; ++i) {
    KillEvent ev;
    ev.node = rng.next_below(nodes);
    while (ev.node == protect) ev.node = rng.next_below(nodes);
    ev.kill_time =
        cursor + rng.next_double() * (horizon / static_cast<double>(kills + 1));
    ev.recover_time = ev.kill_time + kMinDowntime +
                      rng.next_double() * (kMaxDowntime - kMinDowntime);
    cursor = ev.recover_time + 0.2;  // sequential windows: one node down max
    out.push_back(ev);
  }
  return out;
}

ChaosOutcome run_chaos_once(const ChaosConfig& cfg, Executor& pool) {
  ChaosOutcome out;

  const LogicalPlan raw = make_plan(cfg.plan_seed, cfg.plan_nodes, cfg.rows);
  out.plan = raw.describe();

  // ---- trusted side: fault-free shared-memory run + conservation checks --
  // The RAW plan is the reference; the optimizer never touches it.
  obs::MetricsRegistry ref_metrics;
  dataflow::Context::Options ctx_opts;
  ctx_opts.metrics = &ref_metrics;
  dataflow::Context ctx(pool, ctx_opts);
  const std::vector<Row> expected_rows = run_reference(raw, ctx);
  const Bytes expected = canonical_bytes(expected_rows);
  out.result_rows = expected_rows.size();

  const auto cval = [&ref_metrics](const char* name) {
    return ref_metrics.counter(name).value();
  };
  if (cval("dataflow.map.records_in") != cval("dataflow.map.records_out")) {
    out.fail("conservation: map records_in != records_out");
  }
  if (cval("dataflow.filter.records_out") > cval("dataflow.filter.records_in")) {
    out.fail("conservation: filter emitted more records than it read");
  }
  if (cval("shuffle.records_moved") > cval("shuffle.records_in")) {
    out.fail("conservation: shuffle moved more records than entered it");
  }

  // ---- optimizer under test: every backend executes the OPTIMIZED plan ---
  // Fault-free local run first: a mismatch here is an unsound rewrite,
  // isolated from any scheduling/recovery effect. A plain Context (no
  // metrics) keeps the conservation counters above untouched. With
  // cost_based set the plan under test additionally carries the stats
  // layer's physical hints (plan::cost_optimize).
  const LogicalPlan opt = plan::optimize(raw, &out.opt_stats);
  const LogicalPlan plan = cfg.cost_based ? plan::cost_optimize(raw) : opt;
  out.optimized = plan.describe();
  dataflow::Context opt_ctx(pool);
  if (canonical_bytes(plan::lower_local(plan, opt_ctx)) != expected) {
    out.fail("optimizer: optimized plan differs from the raw reference locally");
  }
  // Columnar backend oracle: the vectorized lowering of the plan under test
  // must reproduce the row reference bit-for-bit on every run.
  if (canonical_bytes(plan::lower_columnar(plan, pool)) != expected) {
    out.fail("columnar: vectorized result differs from the row reference");
  }

  // ---- system under test: dist runtime under the fault schedule ----------
  SimCluster cl(cfg.cluster_nodes, mix_seed(cfg.fault_seed, 1), cfg.ec_checkpoints);
  sim::Simulator& sim = cl.sim;
  sim::Dfs& dfs = cl.dfs;
  if (cfg.inject_ec_placement_bug) dfs.set_test_collapse_ec_placement(true);

  const dist::DistConfig dc =
      campaign_dist_config(mix_seed(cfg.plan_seed, cfg.fault_seed));
  dist::DistRuntime rt(cl.comm, dc, &dfs);
  if (cfg.inject_lineage_bug) rt.set_test_disable_lineage_recompute(true);

  const sim::FaultPlan faults = make_fault_plan(cfg.fault_seed, fault_options(cfg));
  out.fault_events = faults.events.size();

  sim::FaultTargets targets;
  targets.kill_node = [&rt, &sim](std::size_t n) { rt.kill_node_at(n, sim.now()); };
  targets.recover_node = [&rt, &sim](std::size_t n) {
    rt.recover_node_at(n, sim.now());
  };
  targets.set_node_speed = [&rt, &sim](std::size_t n, double s) {
    rt.set_node_speed_at(n, s, sim.now());
  };
  targets.net = &cl.net;
  targets.dfs = &dfs;
  sim::FaultInjector injector(sim, targets, mix_seed(cfg.fault_seed, 2));
  injector.arm(faults, cfg.fault_mask);

  bool done = false;
  dist::JobResult res;
  dist::DistStats at_done;
  // Push runs also flip eligible joins to broadcast lowering so the fault
  // schedule covers multicast streams; pull runs keep the historical
  // lowering and default options — the event stream stays bit-identical.
  dist::RuntimeOptions ro;
  ro.transport = cfg.transport;
  if (cfg.ec_checkpoints) {
    ro.checkpoint_policy = sim::StoragePolicy::kErasureCoded;
  }
  plan::LowerDistOptions lo;
  if (cfg.transport == dist::TransportKind::kPush) lo.broadcast_join_rows = 4096;
  rt.submit(make_dist_job(plan, cfg.ntasks, lo), ro,
            [&](const dist::JobResult& r) {
              res = r;
              done = true;
              at_done = rt.stats();
            });
  // Drive in slices so a finished job doesn't burn the whole horizon on
  // fault events still scheduled; after completion, a short grace window
  // surfaces any straggling task events for the quiescence check.
  while (!done && sim.now() < cfg.horizon) {
    sim.run_until(std::min(cfg.horizon, sim.now() + 5.0));
  }
  if (done) sim.run_until(sim.now() + 2.0);
  out.fired = injector.fired();
  out.dist_stats = rt.stats();

  // EC placement oracle (checked even when the job hung: the invariant is
  // about storage state, not completion): no node may hold live shards of
  // two different slots of one stripe — the anti-affinity guarantee the
  // (k, m) loss tolerance rests on.
  if (cfg.ec_checkpoints) {
    for (const auto& name : dfs.ec_file_names()) {
      for (std::size_t b = 0; b < dfs.block_count(name) && out.passed; ++b) {
        std::vector<std::size_t> live_nodes;
        for (const auto& holders : dfs.stripe_locations(name, b)) {
          for (auto n : holders) {
            if (dfs.node_down(n)) continue;
            if (std::find(live_nodes.begin(), live_nodes.end(), n) !=
                live_nodes.end()) {
              out.fail("ec_placement: two live shards of a stripe share a node");
            }
            live_nodes.push_back(n);
          }
        }
      }
    }
  }

  if (!done) {
    out.fail("liveness: job not done within the simulated horizon");
    return out;
  }
  out.makespan = res.makespan;
  if (!res.ok) {
    out.fail("success: survivable fault schedule aborted the job");
  } else if (canonical_bytes(rows_from_result(res)) != expected) {
    out.fail("differential: dist result differs from the fault-free reference");
  }
  if (at_done.max_failures_one_task > dc.max_task_attempts) {
    out.fail("budget: a task exceeded max_task_attempts charged failures");
  }
  // Quiescence: completion freezes the task counters; late events may only
  // move stale_events_ignored.
  if (out.dist_stats.tasks_launched != at_done.tasks_launched ||
      out.dist_stats.tasks_completed != at_done.tasks_completed) {
    out.fail("quiescence: task activity after job completion");
  }
  return out;
}

}  // namespace hpbdc::chaos
