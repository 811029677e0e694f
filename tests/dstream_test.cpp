// Tests for the distributed streaming subsystem (src/dstream): deterministic
// partitioned sources, plan lowering, fault-free parity with the local
// reference evaluation, windowed join pipelines, exactly-once recovery after
// a mid-window node kill (bit-identical committed output), credit-driven
// backpressure onset, the seeded restore bug being observable, the failure
// detector's kill-to-recovery latency bound, and the dstream metrics / epoch
// trace spans.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "chaos/plan_gen.hpp"
#include "dstream/runtime.hpp"
#include "dstream/streaming.hpp"
#include "obs/trace.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace hpbdc::dstream {
namespace {

sim::NetworkConfig star(std::size_t nodes) {
  sim::NetworkConfig nc;
  nc.nodes = nodes;
  nc.topology = sim::Topology::kStar;
  return nc;
}

/// One fully wired simulated cluster + streaming runtime; fresh per run.
struct Cluster {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  StreamRuntime rt;

  explicit Cluster(std::size_t nodes, StreamConfig sc = {},
                   sim::DfsConfig dfc = {})
      : net(sim, star(nodes)), comm(sim, net), dfs(comm, dfc),
        rt(comm, sc, &dfs) {}
};

dist::RuntimeOptions push_opts() {
  dist::RuntimeOptions ro;
  ro.transport = dist::TransportKind::kPush;
  return ro;
}

plan::LogicalPlan aggregate_plan(std::uint64_t salt, std::uint64_t rows) {
  plan::LogicalPlan p;
  p.nodes.resize(2);
  p.nodes[0].op = plan::OpKind::kSource;
  p.nodes[0].salt = salt;
  p.nodes[0].rows = rows;
  p.nodes[1].op = plan::OpKind::kReduceByKey;
  p.nodes[1].left = 0;
  p.sinks = {1};
  return p;
}

plan::LogicalPlan join_plan(std::uint64_t rows) {
  plan::LogicalPlan p;
  p.nodes.resize(4);
  p.nodes[0].op = plan::OpKind::kSource;
  p.nodes[0].salt = 11;
  p.nodes[0].rows = rows;
  p.nodes[1].op = plan::OpKind::kSource;
  p.nodes[1].salt = 23;
  p.nodes[1].rows = rows;
  p.nodes[2].op = plan::OpKind::kJoin;
  p.nodes[2].left = 0;
  p.nodes[2].right = 1;
  p.nodes[3].op = plan::OpKind::kDistinct;
  p.nodes[3].left = 2;
  p.sinks = {3};
  return p;
}

StreamResult run_to_completion(Cluster& c, const StreamJobSpec& spec,
                               dist::RuntimeOptions ro = push_opts(),
                               double horizon = 600.0) {
  StreamResult result;
  bool done = false;
  c.rt.submit(spec, ro, [&](const StreamResult& r) {
    result = r;
    done = true;
  });
  c.sim.run_until(horizon);
  EXPECT_TRUE(done) << "streaming job did not finish within the horizon";
  return result;
}

TEST(DstreamSource, PartitionsAreDeterministicAndCover) {
  StreamStage st;
  st.kind = StreamStage::Kind::kSource;
  st.salt = 5;
  st.rows = 500;
  StreamingOptions opts;
  std::uint64_t dropped = 0, kept = 0;
  double prev_run_total = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    const auto items = source_partition_items(st, opts, p, 3, &dropped);
    const auto again = source_partition_items(st, opts, p, 3);
    ASSERT_EQ(items.size(), again.size());
    double wm = -1e300;
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i].time, again[i].time);
      EXPECT_EQ(items[i].rows, again[i].rows);
      EXPECT_GE(items[i].wm_after, wm) << "per-partition watermark must be monotone";
      EXPECT_GE(items[i].time, items[i].wm_after)
          << "a surviving event can never be behind the watermark it advances";
      wm = items[i].wm_after;
      kept += items[i].rows.size();
    }
    prev_run_total += static_cast<double>(items.size());
  }
  EXPECT_EQ(kept + dropped, st.rows);
  EXPECT_GT(dropped, 0u) << "late_permille should drop a few very-late events";
  EXPECT_GT(prev_run_total, 0);
}

TEST(DstreamLower, ShapesAndValidation) {
  const auto plan = chaos::make_plan(7, 6, 64);
  StreamingOptions opts;
  const StreamJobSpec spec = lower_streaming(plan, opts);
  ASSERT_EQ(spec.stages.size(), plan.nodes.size() + 1);
  EXPECT_EQ(spec.stages.back().kind, StreamStage::Kind::kSink);
  EXPECT_EQ(spec.stages.back().parents, plan.sinks);

  StreamingOptions bad;
  bad.disorder = bad.lateness + 0.1;
  EXPECT_THROW(lower_streaming(plan, bad), std::invalid_argument);
  EXPECT_THROW(lower_streaming(plan::LogicalPlan{}, opts), std::invalid_argument);
}

TEST(DstreamRuntime, FaultFreeMatchesReference) {
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(3, 192), opts);
  const Bytes want = canonical_stream_bytes(reference_streaming(spec));

  Cluster c(5);
  const StreamResult r = run_to_completion(c, spec);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(canonical_stream_bytes(r.rows()), want);
  EXPECT_GE(c.rt.stats().epochs_completed, 1u);
  EXPECT_GT(c.rt.stats().windows_fired, 0u);
  EXPECT_EQ(c.rt.stats().recoveries, 0u);
}

TEST(DstreamRuntime, BackToBackJobsMatchAFreshRuntime) {
  // A reused runtime (JobService keeps one) must run every job exactly as a
  // fresh one would: no liveness loops left over from earlier jobs, and no
  // checkpoint name collisions with an earlier job's epochs.
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(3, 192), opts);

  Cluster fresh(5);
  const StreamResult want = run_to_completion(fresh, spec);
  ASSERT_TRUE(want.ok);
  const StreamStats want_stats = fresh.rt.stats();
  ASSERT_GT(want_stats.checkpoints_written, 0u);

  // Each job is submitted from the previous job's completion callback.
  constexpr std::size_t kJobs = 4;
  Cluster c(5);
  std::vector<StreamResult> results;
  std::vector<StreamStats> stats;
  std::function<void()> submit_next = [&] {
    c.rt.submit(spec, push_opts(), [&](const StreamResult& r) {
      results.push_back(r);
      stats.push_back(c.rt.stats());
      if (results.size() < kJobs) submit_next();
    });
  };
  submit_next();
  c.sim.run_until(600.0);
  ASSERT_EQ(results.size(), kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    SCOPED_TRACE(::testing::Message() << "job " << j + 1);
    ASSERT_TRUE(results[j].ok);
    EXPECT_NEAR(results[j].makespan, want.makespan, 1e-9);
    EXPECT_EQ(stats[j].epochs_completed, want_stats.epochs_completed);
    EXPECT_EQ(stats[j].checkpoints_written, want_stats.checkpoints_written);
    EXPECT_EQ(stats[j].heartbeats, want_stats.heartbeats);
    EXPECT_EQ(stats[j].ckpt_write_failures, 0u);
  }
}

TEST(DstreamRuntime, GeneratedPlanMatchesReference) {
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(chaos::make_plan(19, 6, 96), opts);
  const Bytes want = canonical_stream_bytes(reference_streaming(spec));

  Cluster c(6);
  const StreamResult r = run_to_completion(c, spec);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(canonical_stream_bytes(r.rows()), want);
}

TEST(DstreamRuntime, JoinPipelineMatchesReference) {
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(join_plan(128), opts);
  const auto reference = reference_streaming(spec);
  ASSERT_FALSE(reference.empty()) << "join test plan should produce output";
  const Bytes want = canonical_stream_bytes(reference);

  Cluster c(5);
  const StreamResult r = run_to_completion(c, spec);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(canonical_stream_bytes(r.rows()), want);
}

TEST(DstreamRuntime, PullTransportParity) {
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(3, 192), opts);
  const Bytes want = canonical_stream_bytes(reference_streaming(spec));

  Cluster c(5);
  dist::RuntimeOptions pull;  // default transport: kPull
  const StreamResult r = run_to_completion(c, spec, pull);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(canonical_stream_bytes(r.rows()), want);
}

TEST(DstreamRuntime, KillMidWindowRecoversBitIdentical) {
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(9, 256), opts);
  const Bytes want = canonical_stream_bytes(reference_streaming(spec));

  Cluster c(6);
  c.rt.kill_node_at(1, 1.3);       // mid-window, mid-stream
  c.rt.recover_node_at(1, 3.5);
  const StreamResult r = run_to_completion(c, spec);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(c.rt.stats().recoveries, 1u);
  EXPECT_GE(c.rt.stats().epochs_completed, 1u);
  EXPECT_EQ(canonical_stream_bytes(r.rows()), want)
      << "exactly-once recovery must yield bit-identical committed output";
}

TEST(DstreamRuntime, KillIsDetectedWithinTimeoutPlusInterval) {
  // The membership service's monitor ticks every heartbeat_interval and
  // declares a worker dead once it has been silent for heartbeat_timeout, so
  // the coordinator starts its recovery no later than one tick past the
  // timeout — wherever the kill falls between two beats.
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(3, 192), opts);
  const StreamConfig sc;
  for (const double kill_at : {1.3, 1.37, 1.44, 2.01}) {
    SCOPED_TRACE(::testing::Message() << "kill at " << kill_at);
    Cluster c(6, sc);
    obs::TraceSession trace;
    c.rt.set_trace(&trace);
    c.rt.kill_node_at(1, kill_at);
    c.rt.recover_node_at(1, 3.5);
    ASSERT_TRUE(run_to_completion(c, spec).ok);
    EXPECT_EQ(c.rt.stats().recoveries, 1u);
    const std::vector<obs::TraceEvent> events = trace.events();
    const auto rec = std::find_if(events.begin(), events.end(), [](const auto& ev) {
      return ev.category == "dstream" && ev.name == "recovery";
    });
    ASSERT_NE(rec, events.end());
    const double latency = static_cast<double>(rec->ts_us) / 1e6 - kill_at;
    EXPECT_GE(latency, sc.heartbeat_timeout - sc.heartbeat_interval);
    EXPECT_LE(latency, sc.heartbeat_timeout + sc.heartbeat_interval);
  }
}

TEST(DstreamRuntime, EcCheckpointsRecoverBitIdenticalThroughOutage) {
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(9, 256), opts);
  const Bytes want = canonical_stream_bytes(reference_streaming(spec));

  // RS(3, 2) over 6 nodes: the killed node costs each stripe at most one
  // shard, so the recovery read during the outage degrades, never stalls.
  sim::DfsConfig dfc;
  dfc.ec_data_shards = 3;
  dfc.ec_parity_shards = 2;
  Cluster c(6, {}, dfc);
  c.rt.kill_node_at(1, 1.3);
  c.rt.recover_node_at(1, 3.5);
  dist::RuntimeOptions ro = push_opts();
  ro.checkpoint_policy = sim::StoragePolicy::kErasureCoded;
  const StreamResult r = run_to_completion(c, spec, ro);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(c.rt.stats().recoveries, 1u);
  EXPECT_EQ(canonical_stream_bytes(r.rows()), want)
      << "EC checkpoint recovery must stay exactly-once";
  const std::vector<std::string> files = c.dfs.file_names();
  const auto ckpt = std::find_if(files.begin(), files.end(), [](const std::string& n) {
    return n.starts_with("stream-ckpt-");
  });
  ASSERT_NE(ckpt, files.end()) << "no epoch checkpoint reached the DFS";
  EXPECT_EQ(c.dfs.file_policy(*ckpt), sim::StoragePolicy::kErasureCoded)
      << "the job's RuntimeOptions::checkpoint_policy must reach the checkpoint";
  const auto& ds = c.dfs.stats();
  EXPECT_GT(ds.ec_blocks_written, 0u) << "checkpoints should stripe, not copy";
  EXPECT_EQ(ds.blocks_written, ds.ec_blocks_written)
      << "every checkpoint block should use the configured EC policy";
}

TEST(DstreamRuntime, SeededRestoreBugIsObservable) {
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(9, 256), opts);
  const Bytes want = canonical_stream_bytes(reference_streaming(spec));

  StreamConfig sc;
  sc.buggy_restore = true;
  Cluster c(6, sc);
  // Late enough that at least one checkpoint completed (offset > 0), so the
  // buggy restore actually skips an event.
  c.rt.kill_node_at(1, 1.6);
  c.rt.recover_node_at(1, 3.8);
  const StreamResult r = run_to_completion(c, spec);
  ASSERT_TRUE(r.ok);
  ASSERT_GE(c.rt.stats().recoveries, 1u);
  EXPECT_NE(canonical_stream_bytes(r.rows()), want)
      << "the seeded off-by-one restore bug must corrupt the output";
}

TEST(DstreamRuntime, BackpressurePausesSourcesUnderSlowConsumer) {
  StreamingOptions opts;
  opts.rate = 4000.0;  // offered load far beyond what the operator can absorb
  opts.window = 0.5;
  StreamConfig sc;
  sc.event_cost = 2e-3;  // operator needs ~4x the source interarrival time
  sc.max_buffered_segments = 2;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(5, 2000), opts);
  const Bytes want = canonical_stream_bytes(reference_streaming(spec));

  Cluster c(5, sc);
  dist::RuntimeOptions ro = push_opts();
  ro.flow.segment_bytes = 16 * 4096;  // 16-event segments
  ro.flow.credits_per_channel = 2;
  const StreamResult r = run_to_completion(c, spec, ro);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(c.rt.stats().backpressure_pauses, 0u);
  EXPECT_GT(c.rt.stats().credit_stalls, 0u);
  EXPECT_EQ(canonical_stream_bytes(r.rows()), want)
      << "backpressure must never change the result, only the timing";
}

TEST(DstreamObs, EpochTraceSpans) {
  StreamingOptions opts;
  opts.rate = 48.0;
  opts.window = 0.5;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(3, 192), opts);

  Cluster c(5);
  obs::TraceSession trace;
  c.rt.set_trace(&trace);
  const StreamResult r = run_to_completion(c, spec);
  ASSERT_TRUE(r.ok);

  EXPECT_GT(c.rt.stats().events_emitted, 0u);
  EXPECT_GT(c.rt.stats().rows_committed, 0u);

  std::uint64_t epoch_spans = 0;
  for (const auto& ev : trace.events()) {
    if (ev.category == "dstream" && ev.name.rfind("epoch-", 0) == 0) ++epoch_spans;
  }
  EXPECT_EQ(epoch_spans, c.rt.stats().epochs_completed)
      << "every completed epoch should appear as a Chrome-trace span";
}

TEST(DstreamRuntime, RejectsConcurrentJobsAndCoordinatorKill) {
  StreamingOptions opts;
  opts.rate = 64.0;
  const StreamJobSpec spec = lower_streaming(aggregate_plan(3, 64), opts);
  Cluster c(4);
  EXPECT_THROW(c.rt.kill_node_at(0, 1.0), std::invalid_argument);
  c.rt.submit(spec, push_opts(), [](const StreamResult&) {});
  EXPECT_TRUE(c.rt.busy());
  EXPECT_THROW(c.rt.submit(spec, push_opts(), [](const StreamResult&) {}),
               std::logic_error);
  c.sim.run_until(600.0);
  EXPECT_FALSE(c.rt.busy());
}

}  // namespace
}  // namespace hpbdc::dstream
