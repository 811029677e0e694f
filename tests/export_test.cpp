// Snapshot export of every sim-clock layer's counters into an
// obs::MetricsRegistry. One table row per exporting layer: a small seeded
// scenario with a node kill (or message loss) runs to completion, then the
// layer exports twice. Each row spells out every name the layer exports
// (the names it bound as live counters before exports existed) with the
// *Stats field or level it must equal, so the exported registry must match
// that map exactly. The fault must have moved the counters it should, and the
// second export must change nothing.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chaos/plan_gen.hpp"
#include "dist/job.hpp"
#include "dist/runtime.hpp"
#include "dist/slots.hpp"
#include "dstream/runtime.hpp"
#include "dstream/streaming.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace hpbdc {
namespace {

constexpr std::uint64_t MiB = 1ULL << 20;

using Values = std::map<std::string, std::int64_t>;

/// What one scenario hands back: the values the export must show, and the
/// registry snapshots after the first and the second export.
struct Exported {
  Values expected;
  obs::MetricsSnapshot first, second;
};

struct Case {
  const char* layer;
  std::vector<std::string> nonzero;  // counters the scenario's fault moves
  std::function<Exported()> run;
};

Exported export_twice(const std::function<void(obs::MetricsRegistry&)>& exp,
                      Values expected) {
  obs::MetricsRegistry reg;
  Exported out;
  out.expected = std::move(expected);
  exp(reg);
  out.first = reg.snapshot();
  exp(reg);
  out.second = reg.snapshot();
  return out;
}

template <typename T>
std::int64_t v(T x) {
  return static_cast<std::int64_t>(x);
}

sim::NetworkConfig star(std::size_t nodes) {
  sim::NetworkConfig nc;
  nc.nodes = nodes;
  nc.topology = sim::Topology::kStar;
  return nc;
}

dist::DistConfig fast_detect(std::uint64_t seed) {
  dist::DistConfig dc;
  dc.seed = seed;
  dc.heartbeat_interval = 0.05;
  dc.heartbeat_timeout = 0.25;
  dc.heartbeat_jitter = 0.01;
  dc.attempt_timeout = 10.0;
  dc.max_task_attempts = 8;
  return dc;
}

dist::RuntimeOptions push_opts() {
  dist::RuntimeOptions ro;
  ro.transport = dist::TransportKind::kPush;
  ro.flow.credits_per_channel = 2;
  return ro;
}

serve::SubmitRequest request(serve::TenantId tenant, std::uint64_t plan_seed) {
  serve::SubmitRequest req;
  req.tenant = tenant;
  req.plan = chaos::make_plan(plan_seed, 4, 96);
  return req;
}

struct Fabric {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  explicit Fabric(std::size_t nodes, sim::DfsConfig fc = {})
      : net(sim, star(nodes)), comm(sim, net), dfs(comm, fc) {}
};

// ---- expected values, one map per *Stats struct ---------------------------------

Values dist_values(const dist::DistStats& st, std::size_t executors_live) {
  return {{"dist.tasks_launched", v(st.tasks_launched)},
          {"dist.task_retries", v(st.task_retries)},
          {"dist.tasks_recomputed", v(st.tasks_recomputed)},
          {"dist.shuffle_bytes", v(st.shuffle_bytes)},
          {"dist.shuffle_bytes_local", v(st.shuffle_bytes_local)},
          {"dist.shuffle_bytes_remote", v(st.shuffle_bytes_remote)},
          {"dist.locality_hits", v(st.locality_hits)},
          {"dist.locality_misses", v(st.locality_misses)},
          {"dist.speculative_launched", v(st.speculative_launched)},
          {"dist.checkpoint_restores", v(st.checkpoint_restores)},
          {"dist.stale_events_ignored", v(st.stale_events_ignored)},
          {"dist.max_failures_one_task", v(st.max_failures_one_task)},
          {"dist.executors_live", v(executors_live)}};
}

Values with_flow(Values out, const dist::flow::FlowStats& st, std::size_t in_flight) {
  out.insert({{"dist.flow.bytes_pushed", v(st.bytes_pushed)},
              {"dist.flow.credit_stalls", v(st.credit_stalls)},
              {"dist.flow.segments_pushed", v(st.segments_pushed)},
              {"dist.flow.multicast_segments", v(st.multicast_segments)},
              {"dist.flow.streams_broken", v(st.streams_broken)},
              {"dist.flow.overlap_wait_us", v(st.overlap_wait_s * 1e6)},
              {"dist.flow.segments_in_flight", v(in_flight)}});
  return out;
}

// ---- scenarios --------------------------------------------------------------------

Exported run_dist_runtime() {
  auto job = [] { return dist::synthetic_job(4, 8, 8 * MiB); };
  double kill_at = 0;
  {
    Fabric clean(6);
    dist::DistRuntime rt(clean.comm, fast_detect(17), &clean.dfs);
    dist::JobResult base;
    rt.submit(job(), push_opts(), [&base](const dist::JobResult& r) { base = r; });
    clean.sim.run();
    EXPECT_TRUE(base.ok);
    kill_at = base.stages.at(1).start + 0.01;  // s0's streams still draining
  }
  Fabric f(6);
  dist::DistRuntime rt(f.comm, fast_detect(17), &f.dfs);
  rt.kill_node_at(3, kill_at);
  rt.recover_node_at(3, kill_at + 2.0);
  bool ok = false;
  rt.submit(job(), push_opts(), [&ok](const dist::JobResult& r) { ok = r.ok; });
  f.sim.run();
  EXPECT_TRUE(ok);
  return export_twice([&rt](obs::MetricsRegistry& reg) { rt.export_metrics(reg); },
                      with_flow(dist_values(rt.stats(), rt.live_executors()),
                                rt.flow_stats(), rt.flow_segments_in_flight()));
}

Exported run_slot_pool() {
  Fabric f(6);
  dist::JobSlotPool pool(f.comm, fast_detect(5), 2, &f.dfs);
  pool.kill_node_at(3, 0.3);
  std::size_t ok = 0;
  const auto done = [&ok](const dist::JobResult& r) { ok += r.ok ? 1 : 0; };
  pool.submit(dist::synthetic_job(3, 6, 8 * MiB), push_opts(), done);
  pool.submit(dist::synthetic_job(3, 6, 8 * MiB), done);
  f.sim.run();
  EXPECT_EQ(ok, 2u);
  std::size_t in_flight = 0;
  for (std::size_t i = 0; i < pool.slots(); ++i) {
    in_flight += pool.slot_runtime(i).flow_segments_in_flight();
  }
  return export_twice(
      [&pool](obs::MetricsRegistry& reg) { pool.export_metrics(reg); },
      with_flow(dist_values(pool.aggregate_stats(), pool.live_executors()),
                pool.aggregate_flow_stats(), in_flight));
}

Exported run_stream_runtime() {
  plan::LogicalPlan p;
  p.nodes.resize(2);
  p.nodes[0].op = plan::OpKind::kSource;
  p.nodes[0].salt = 3;
  p.nodes[0].rows = 192;
  p.nodes[1].op = plan::OpKind::kReduceByKey;
  p.nodes[1].left = 0;
  p.sinks = {1};
  dstream::StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const dstream::StreamJobSpec spec = dstream::lower_streaming(p, opts);

  Fabric f(6);
  dstream::StreamRuntime rt(f.comm, dstream::StreamConfig{}, &f.dfs);
  rt.kill_node_at(1, 1.3);  // mid-window, mid-stream
  rt.recover_node_at(1, 3.5);
  bool ok = false;
  rt.submit(spec, push_opts(), [&ok](const dstream::StreamResult& r) { ok = r.ok; });
  f.sim.run_until(600.0);
  EXPECT_TRUE(ok);
  const dstream::StreamStats& st = rt.stats();
  return export_twice([&rt](obs::MetricsRegistry& reg) { rt.export_metrics(reg); },
                      {{"dstream.watermark_lag_ms", st.watermark_lag_ms},
                       {"dstream.epochs_completed", v(st.epochs_completed)},
                       {"dstream.events_late_dropped", v(st.events_late_dropped)},
                       {"dstream.events_emitted", v(st.events_emitted)},
                       {"dstream.rows_committed", v(st.rows_committed)},
                       {"dstream.recoveries", v(st.recoveries)},
                       {"dstream.backpressure_pauses", v(st.backpressure_pauses)}});
}

Exported run_job_service() {
  Fabric f(5);
  dist::JobSlotPool pool(f.comm, fast_detect(7), 2, &f.dfs);
  serve::JobService svc(pool, serve::ServeConfig{});
  pool.kill_node_at(3, 0.05);
  pool.recover_node_at(3, 1.5);
  // Twelve distinct plans in one instant from one tenant: the token bucket
  // admits its depth and sheds the rest as rate_limited.
  for (std::uint64_t i = 0; i < 12; ++i) {
    svc.submit(request(0, 300 + i), [](const serve::Completion&) {});
  }
  f.sim.run();
  const serve::ServeStats& st = svc.stats();
  EXPECT_EQ(st.completed + st.failed + st.shed, st.submitted);
  const auto shed = [&st](serve::Reject r) {
    return v(st.shed_by[static_cast<std::size_t>(r)]);
  };
  using serve::Reject;
  return export_twice([&svc](obs::MetricsRegistry& reg) { svc.export_metrics(reg); },
                      {{"serve.submitted", v(st.submitted)},
                       {"serve.admitted", v(st.admitted)},
                       {"serve.shed", v(st.shed)},
                       {"serve.shed.rate_limited", shed(Reject::kRateLimited)},
                       {"serve.shed.tenant_queue_full", shed(Reject::kTenantQueueFull)},
                       {"serve.shed.global_queue_full", shed(Reject::kGlobalQueueFull)},
                       {"serve.shed.backpressure", shed(Reject::kBackpressure)},
                       {"serve.shed.deadline_expired", shed(Reject::kDeadlineExpired)},
                       {"serve.completed", v(st.completed)},
                       {"serve.failed", v(st.failed)},
                       {"serve.cache_hit", v(st.cache_hits)},
                       {"serve.cache_miss", v(st.cache_misses)},
                       {"serve.dist_retries", v(st.dist_retries)},
                       {"serve.queue_depth", v(svc.queue_depth())},
                       {"serve.running", v(svc.running())},
                       {"serve.backpressure", svc.backpressured() ? 1 : 0}});
}

Exported run_fleet_controller() {
  constexpr std::size_t kNodes = 8;
  Fabric f(kNodes);
  dist::JobSlotPool pool(f.comm, fast_detect(7), 4, &f.dfs);
  serve::ServeConfig sc;
  sc.bucket_rate = 1000;
  sc.bucket_burst = 1000;
  sc.cache_capacity = 0;
  sc.ntasks = 3;
  serve::JobService svc(pool, sc);
  fleet::FleetConfig fc;
  fc.min_nodes = 2;
  fc.initial_nodes = 4;
  fc.control_interval = 0.25;
  fc.spot_fraction = 0.7;
  fc.preempt_seed = 99;
  fc.preemptions = 3;
  fc.preempt_horizon = 6.0;
  fleet::FleetController ctrl(pool, svc, fc);
  for (std::uint64_t i = 0; i < 10; ++i) {
    f.sim.schedule_at(0.2 * static_cast<double>(i) + 0.01, [&svc, i] {
      svc.submit(request(static_cast<serve::TenantId>(i % 3), 200 + i),
                 [](const serve::Completion&) {});
    });
  }
  ctrl.start();
  f.sim.schedule_at(150.0, [&ctrl] { ctrl.stop(); });
  f.sim.run_until(250.0);
  EXPECT_TRUE(f.sim.idle());
  using fleet::NodeState;
  std::map<NodeState, std::int64_t> in_state;
  for (std::size_t n = 1; n < kNodes; ++n) in_state[ctrl.node_state(n)]++;
  const fleet::FleetStats& st = ctrl.stats();
  return export_twice([&ctrl](obs::MetricsRegistry& reg) { ctrl.export_metrics(reg); },
                      {{"fleet.scale_ups", v(st.scale_ups)},
                       {"fleet.scale_downs", v(st.scale_downs)},
                       {"fleet.nodes_provisioned", v(st.nodes_provisioned)},
                       {"fleet.warm_activations", v(st.warm_activations)},
                       {"fleet.nodes_drained", v(st.nodes_drained)},
                       {"fleet.nodes_powered_off", v(st.nodes_powered_off)},
                       {"fleet.preemptions", v(st.preemptions)},
                       {"fleet.slots_added", v(st.slots_added)},
                       {"fleet.slots_retired", v(st.slots_retired)},
                       {"fleet.active_nodes", in_state[NodeState::kActive]},
                       {"fleet.warm_nodes", in_state[NodeState::kWarm]},
                       {"fleet.provisioning_nodes", in_state[NodeState::kProvisioning]},
                       {"fleet.draining_nodes", in_state[NodeState::kDraining]},
                       {"fleet.slots", v(pool.slots())}});
}

Exported run_network() {
  sim::Simulator sim;
  sim::NetworkConfig cfg = star(4);
  cfg.loss_probability = 0.2;
  sim::Network net(sim, cfg);
  for (int i = 0; i < 500; ++i) net.send(0, 1, 100, [] {});
  sim.run();
  const sim::NetworkStats& st = net.stats();
  return export_twice([&net](obs::MetricsRegistry& reg) { net.export_metrics(reg); },
                      {{"net.msgs_sent", v(st.messages)},
                       {"net.bytes_sent", v(st.bytes)},
                       {"net.msgs_dropped", v(st.dropped)}});
}

Exported run_dfs() {
  sim::DfsConfig fc;
  fc.ec_data_shards = 3;
  fc.ec_parity_shards = 2;
  fc.block_size = 4 * MiB;
  Fabric f(8, fc);
  sim::Dfs& dfs = f.dfs;
  dfs.write(1, "/rep", 16 * MiB, [](bool ok) { EXPECT_TRUE(ok); });
  dfs.write(1, "/ec", 16 * MiB, sim::StoragePolicy::kErasureCoded,
            [](bool ok) { EXPECT_TRUE(ok); });
  f.sim.run();
  // Kill a node holding data shards, read both files around it, repair.
  dfs.fail_node(dfs.stripe_locations("/ec", 0).at(0).at(0));
  dfs.read(2, "/rep", [](bool ok) { EXPECT_TRUE(ok); });
  dfs.read(2, "/ec", [](bool ok) { EXPECT_TRUE(ok); });
  f.sim.run();
  dfs.re_replicate([] {});
  f.sim.run();
  const sim::DfsStats& st = dfs.stats();
  return export_twice([&dfs](obs::MetricsRegistry& reg) { dfs.export_metrics(reg); },
                      {{"dfs.blocks_written", v(st.blocks_written)},
                       {"dfs.blocks_read", v(st.blocks_read)},
                       {"dfs.bytes_written", v(st.bytes_written)},
                       {"dfs.bytes_read", v(st.bytes_read)},
                       {"dfs.bytes_physical", v(st.bytes_physical)},
                       {"dfs.local_reads", v(st.local_reads)},
                       {"dfs.re_replications", v(st.re_replications)},
                       {"dfs.replicas_trimmed", v(st.replicas_trimmed)},
                       {"dfs.replicas_lost", v(st.replicas_lost)},
                       {"dfs.ec_blocks_written", v(st.ec_blocks_written)},
                       {"dfs.shards_written", v(st.shards_written)},
                       {"dfs.shards_lost", v(st.shards_lost)},
                       {"dfs.degraded_reads", v(st.degraded_reads)},
                       {"dfs.ec_shard_reads_same_rack", v(st.ec_shard_reads_same_rack)},
                       {"dfs.ec_shard_reads_cross_rack", v(st.ec_shard_reads_cross_rack)},
                       {"dfs.failed_reads", v(st.failed_reads)},
                       {"dfs.shards_repaired", v(st.shards_repaired)},
                       {"dfs.shards_trimmed", v(st.shards_trimmed)},
                       {"dfs.repair_bytes_read", v(st.repair_bytes_read)},
                       {"dfs.repair_bytes_written", v(st.repair_bytes_written)},
                       {"dfs.repair_passes", v(st.repair_passes)}});
}

// ---- the table ----------------------------------------------------------------------

const std::vector<Case>& cases() {
  static const std::vector<Case> table = {
      {"DistRuntime",
       {"dist.task_retries", "dist.tasks_recomputed", "dist.flow.segments_pushed",
        "dist.flow.credit_stalls"},
       run_dist_runtime},
      {"JobSlotPool",
       {"dist.task_retries", "dist.tasks_launched", "dist.flow.segments_pushed"},
       run_slot_pool},
      {"StreamRuntime",
       {"dstream.recoveries", "dstream.epochs_completed", "dstream.events_emitted",
        "dstream.rows_committed"},
       run_stream_runtime},
      {"JobService", {"serve.submitted", "serve.completed", "serve.shed.rate_limited"},
       run_job_service},
      {"FleetController", {"fleet.preemptions", "fleet.active_nodes", "fleet.slots"},
       run_fleet_controller},
      {"Network", {"net.msgs_sent", "net.msgs_dropped"}, run_network},
      {"Dfs", {"dfs.re_replications", "dfs.degraded_reads", "dfs.shards_repaired"},
       run_dfs},
  };
  return table;
}

class MetricsExport : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MetricsExport, SnapshotEqualsStatsAndIsIdempotent) {
  const Case& c = cases()[GetParam()];
  const Exported e = c.run();

  // Only gauges: the export is a snapshot, nothing accumulates.
  EXPECT_TRUE(e.first.counters.empty());
  EXPECT_TRUE(e.first.histograms.empty());
  Values got;
  for (const auto& [name, value] : e.first.gauges) got[name] = value;
  EXPECT_EQ(got, e.expected);
  for (const std::string& name : c.nonzero) {
    EXPECT_GT(got[name], 0) << name << " should have moved under the fault";
  }
  EXPECT_EQ(e.second.gauges, e.first.gauges) << "a second export changed the registry";
  EXPECT_TRUE(e.second.counters.empty());
}

INSTANTIATE_TEST_SUITE_P(Layers, MetricsExport,
                         ::testing::Range<std::size_t>(0, cases().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return std::string(cases()[info.param].layer);
                         });

}  // namespace
}  // namespace hpbdc
