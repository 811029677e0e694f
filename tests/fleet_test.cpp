// Tests for the elastic fleet subsystem (src/fleet) and the elastic half of
// dist::JobSlotPool: slot add/retire/resurrect lifecycle, fault fan-out to
// slots added mid-campaign, the closed-loop FleetController (scale-up on
// queue pressure, warm-pool activation, drain-then-power-off scale-down,
// spot preemption), and the 25-seed elasticity-aware chaos campaign with
// preemptions on. Its replay spec is a row of kit_test's codec table.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chaos/plan_gen.hpp"
#include "exec/thread_pool.hpp"
#include "fleet/campaign.hpp"
#include "fleet/fleet.hpp"
#include "serve/service.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace hpbdc::fleet {
namespace {

Executor& ref_pool() {
  static ThreadPool p(4);
  return p;
}

sim::NetworkConfig star(std::size_t nodes) {
  sim::NetworkConfig nc;
  nc.nodes = nodes;
  nc.topology = sim::Topology::kStar;
  return nc;
}

dist::DistConfig dist_cfg(std::uint64_t seed = 7) {
  dist::DistConfig dc;
  dc.driver = 0;
  dc.heartbeat_interval = 0.1;
  dc.heartbeat_timeout = 0.5;
  dc.heartbeat_jitter = 0.01;
  dc.attempt_timeout = 10.0;
  dc.max_task_attempts = 8;
  dc.seed = seed;
  return dc;
}

/// Simulated cluster + elastic slot pool, fresh per test.
struct FleetCluster {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  dist::JobSlotPool pool;

  explicit FleetCluster(std::size_t nodes, std::size_t slots,
                        dist::DistConfig dc = dist_cfg())
      : net(sim, star(nodes)), comm(sim, net), dfs(comm, sim::DfsConfig{}),
        pool(comm, dc, slots, &dfs) {}
};

// ---- elastic JobSlotPool ---------------------------------------------------------

TEST(ElasticSlotPool, RetireResurrectKeepsIndicesStable) {
  FleetCluster cl(5, 3);
  EXPECT_EQ(cl.pool.slots(), 3u);
  EXPECT_TRUE(cl.pool.retire_idle_slot());
  EXPECT_TRUE(cl.pool.retire_idle_slot());
  EXPECT_EQ(cl.pool.slots(), 1u);
  // The pool never shrinks to zero.
  EXPECT_FALSE(cl.pool.retire_idle_slot());
  // Resurrection reuses tombstones LIFO; no new runtime is built.
  EXPECT_EQ(cl.pool.add_slot(), 1u);
  EXPECT_EQ(cl.pool.add_slot(), 2u);
  EXPECT_EQ(cl.pool.slots(), 3u);
  // Growth past the original size constructs fresh slots at the end.
  EXPECT_EQ(cl.pool.add_slot(), 3u);
  EXPECT_EQ(cl.pool.slots(), 4u);
}

TEST(ElasticSlotPool, RetireSkipsBusySlots) {
  FleetCluster cl(5, 2);
  const std::size_t held = cl.pool.reserve_slot();
  EXPECT_TRUE(cl.pool.retire_idle_slot());   // the idle one
  EXPECT_FALSE(cl.pool.retire_idle_slot());  // only the busy one remains
  EXPECT_EQ(cl.pool.slots(), 1u);
  EXPECT_TRUE(cl.pool.saturated());
  cl.pool.release_slot(held);
  EXPECT_FALSE(cl.pool.saturated());
}

TEST(ElasticSlotPool, SlotAddedMidCampaignInheritsFaultState) {
  FleetCluster cl(6, 1);
  // A kill in the past and a recovery in the future, injected before the
  // new slot exists.
  cl.pool.kill_node_at(2, 1.0);
  cl.pool.recover_node_at(2, 5.0);
  cl.sim.run_until(2.0);
  const std::size_t i = cl.pool.add_slot();
  cl.sim.run_until(3.0);
  // The new slot's runtime sees node 2 dead NOW (current state applied at
  // creation); live_executors counts all 6 cluster nodes, driver included.
  EXPECT_EQ(cl.pool.slot_runtime(i).live_executors(), 5u);
  EXPECT_EQ(cl.pool.slot_runtime(0).live_executors(), 5u);
  // ...and alive after the still-future recovery replays onto it.
  cl.sim.run_until(6.0);
  EXPECT_EQ(cl.pool.slot_runtime(i).live_executors(), 6u);
  EXPECT_EQ(cl.pool.slot_runtime(0).live_executors(), 6u);
}

TEST(ElasticSlotPool, FaultFanOutReachesTombstonesAndResurrected) {
  FleetCluster cl(6, 2);
  ASSERT_TRUE(cl.pool.retire_idle_slot());
  // Fault injected while slot 1 is a tombstone: fan-out must still reach it
  // so its liveness view is current when it comes back.
  cl.pool.kill_node_at(3, 1.0);
  cl.sim.run_until(2.0);
  const std::size_t i = cl.pool.add_slot();
  EXPECT_EQ(i, 1u);
  cl.sim.run_until(2.5);
  EXPECT_EQ(cl.pool.slot_runtime(1).live_executors(), 5u);
  cl.pool.recover_node_at(3, 3.0);
  cl.sim.run_until(4.0);
  EXPECT_EQ(cl.pool.slot_runtime(1).live_executors(), 6u);
}

// ---- FleetController -------------------------------------------------------------

TEST(FleetController, ScalesUpOnQueuePressureAndBackDownWhenIdle) {
  FleetCluster cl(8, 1);  // driver + 7 workers; pool starts at 1 slot
  serve::ServeConfig sc;
  sc.bucket_rate = 1000;
  sc.bucket_burst = 1000;
  sc.tenant_queue_cap = 100;
  sc.global_queue_cap = 100;
  sc.backpressure_watermark = 1000;
  sc.cache_capacity = 0;
  sc.ntasks = 3;
  serve::JobService svc(cl.pool, sc);

  FleetConfig fc;
  fc.min_nodes = 1;
  fc.initial_nodes = 1;
  fc.jobs_per_node = 1;
  fc.control_interval = 0.25;
  fc.scale_up_cooldown = 0.5;
  fc.scale_down_cooldown = 1.5;
  fc.provision_delay = 0.5;
  fc.warm_activate_delay = 0.1;
  fc.warm_target = 1;
  fc.drain_grace = 0.5;
  FleetController ctrl(cl.pool, svc, fc);

  std::size_t completed = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    cl.sim.schedule_at(0.01 * static_cast<double>(i + 1), [&svc, &completed, i] {
      svc.submit({.tenant = 0, .plan = chaos::make_plan(100 + i, 4, 96)},
                 [&completed](const serve::Completion& c) {
                   if (c.status == serve::Status::kCompleted) completed++;
                 });
    });
  }
  ctrl.start();
  cl.sim.schedule_at(120.0, [&ctrl] { ctrl.stop(); });
  cl.sim.run_until(200.0);
  ASSERT_TRUE(cl.sim.idle());

  EXPECT_EQ(completed, 12u);
  const FleetStats& st = ctrl.stats();
  EXPECT_GE(st.scale_ups, 1u);
  EXPECT_GT(st.max_active, 1u);
  // The warm machine is the cheapest capacity, so the first scale-up
  // activates it before any cold boot.
  EXPECT_GE(st.warm_activations, 1u);
  // Demand is long gone by the stop: the fleet drained back to the floor.
  EXPECT_GE(st.scale_downs, 1u);
  EXPECT_EQ(ctrl.active_nodes(), fc.min_nodes);
  // Slot arithmetic balances across the whole elastic run.
  EXPECT_EQ(1u + st.slots_added, cl.pool.slots() + st.slots_retired);
  // Elastic cost is below an always-max-fleet bill over the same span.
  EXPECT_GT(st.node_seconds, 0.0);
  EXPECT_LT(st.node_seconds, 7.0 * 120.0);
}

TEST(FleetController, SpotPreemptionsFireAndJobsStillCompleteExactlyOnce) {
  FleetCluster cl(8, 4);
  serve::ServeConfig sc;
  sc.bucket_rate = 1000;
  sc.bucket_burst = 1000;
  sc.tenant_queue_cap = 100;
  sc.global_queue_cap = 100;
  sc.backpressure_watermark = 1000;
  sc.cache_capacity = 0;
  sc.ntasks = 3;
  serve::JobService svc(cl.pool, sc);

  FleetConfig fc;
  fc.min_nodes = 2;
  fc.initial_nodes = 4;
  fc.jobs_per_node = 1;
  fc.control_interval = 0.25;
  fc.spot_fraction = 0.7;
  fc.preempt_seed = 99;
  fc.preemptions = 3;
  fc.preempt_horizon = 6.0;
  FleetController ctrl(cl.pool, svc, fc);

  std::vector<std::size_t> fired(10, 0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    cl.sim.schedule_at(0.2 * static_cast<double>(i) + 0.01, [&svc, &fired, i] {
      svc.submit({.tenant = static_cast<serve::TenantId>(i % 3),
                  .plan = chaos::make_plan(200 + i, 4, 96)},
                 [&fired, i](const serve::Completion&) { fired[i]++; });
    });
  }
  ctrl.start();
  cl.sim.schedule_at(150.0, [&ctrl] { ctrl.stop(); });
  cl.sim.run_until(250.0);
  ASSERT_TRUE(cl.sim.idle());

  EXPECT_EQ(ctrl.stats().preemptions, 3u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], 1u) << "submission " << i;
  }
  const serve::ServeStats& st = svc.stats();
  EXPECT_EQ(st.completed + st.failed + st.shed, st.submitted);
}

TEST(FleetController, ValidatesConfig) {
  FleetCluster cl(4, 1);
  serve::JobService svc(cl.pool, serve::ServeConfig{});
  FleetConfig bad;
  bad.min_nodes = 5;  // only 3 workers exist
  bad.max_nodes = 3;
  EXPECT_THROW((FleetController{cl.pool, svc, bad}), std::invalid_argument);
  FleetConfig zero_interval;
  zero_interval.control_interval = 0;
  EXPECT_THROW((FleetController{cl.pool, svc, zero_interval}),
               std::invalid_argument);
}

// ---- elasticity-aware chaos campaign ---------------------------------------------

TEST(FleetCampaign, TwentyFiveSeedsPreserveExactlyOnceUnderPreemptions) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    FleetCampaignConfig cfg;
    cfg.seed = seed;
    cfg.tenants = 4 + static_cast<std::size_t>(seed % 3);
    cfg.jobs_per_tenant = 4 + static_cast<std::size_t>(seed % 2);
    cfg.kills = 1 + static_cast<std::size_t>(seed % 2);
    cfg.preemptions = 1 + static_cast<std::size_t>(seed % 3);
    const auto out = run_fleet_campaign_once(cfg, ref_pool());
    EXPECT_TRUE(out.passed) << campaign_kit().format(cfg) << ": " << out.violation;
    EXPECT_EQ(out.duplicates, 0u) << "seed=" << seed;
    EXPECT_EQ(out.lost, 0u) << "seed=" << seed;
    EXPECT_EQ(out.mismatches, 0u) << "seed=" << seed;
  }
}

TEST(FleetCampaign, OneSeedReproducesBitForBit) {
  FleetCampaignConfig cfg;
  cfg.seed = 11;
  const auto a = run_fleet_campaign_once(cfg, ref_pool());
  const auto b = run_fleet_campaign_once(cfg, ref_pool());
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.shed, b.stats.shed);
  EXPECT_EQ(a.fleet.scale_ups, b.fleet.scale_ups);
  EXPECT_EQ(a.fleet.preemptions, b.fleet.preemptions);
  EXPECT_EQ(a.fleet.slots_added, b.fleet.slots_added);
  EXPECT_DOUBLE_EQ(a.fleet.node_seconds, b.fleet.node_seconds);
}

}  // namespace
}  // namespace hpbdc::fleet
