// Tests for the push-based flow shuffle (src/dist/flow) behind the
// ShuffleTransport seam: the shared CreditWindow's FIFO and credit rules,
// credit exhaustion and resume under small windows, multicast vs unicast
// bytes-on-wire for the broadcast stage of a lowered one-dimension star
// join, readers blocking ahead of in-flight streams (compute/transfer
// overlap), push/pull result parity against lower_local, lineage recovery
// after killing a node holding in-flight segments, replay-spec
// round-tripping of the transport knob, and RuntimeOptions threading
// through JobSlotPool and the serve layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chaos/harness.hpp"
#include "chaos/plan_gen.hpp"
#include "dist/flow.hpp"
#include "dist/runtime.hpp"
#include "dist/slots.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "plan/bigbench.hpp"
#include "plan/lower.hpp"
#include "serve/service.hpp"

namespace hpbdc::dist {
namespace {

constexpr std::uint64_t MiB = 1ULL << 20;

sim::NetworkConfig star(std::size_t nodes) {
  sim::NetworkConfig nc;
  nc.nodes = nodes;
  nc.topology = sim::Topology::kStar;
  return nc;
}

DistConfig fast_detect_config() {
  DistConfig dc;
  dc.seed = 17;
  dc.heartbeat_interval = 0.05;
  dc.heartbeat_timeout = 0.25;
  dc.heartbeat_jitter = 0.01;
  return dc;
}

RuntimeOptions push_opts() {
  RuntimeOptions ro;
  ro.transport = TransportKind::kPush;
  return ro;
}

/// One fully wired simulated cluster + runtime; fresh per run.
struct Cluster {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  DistRuntime rt;

  explicit Cluster(sim::NetworkConfig nc, DistConfig dc = {})
      : net(sim, nc), comm(sim, net), dfs(comm, sim::DfsConfig{}),
        rt(comm, dc, &dfs) {}

  JobResult run(JobSpec job, const RuntimeOptions& opts = {}) {
    JobResult out;
    rt.submit(std::move(job), opts, [&out](const JobResult& r) { out = r; });
    sim.run();
    return out;
  }
};

Bytes result_bytes(const JobResult& res) {
  BufWriter w;
  for (const auto& blocks : res.output)
    for (const auto& b : blocks) w.write_bytes(b);
  return w.take();
}

// ---- credit window ---------------------------------------------------------------

/// A window item: a data segment draws a credit, a barrier does not.
struct WinItem {
  int id = 0;
  bool barrier = false;
};

struct WindowProbe {
  CreditWindow<WinItem> window;
  std::vector<int> sent;

  bool pump() {
    return window.pump([this](WinItem it) { sent.push_back(it.id); },
                       [](const WinItem& it) { return !it.barrier; });
  }
};

TEST(CreditWindow, CreditFreeItemNeverOvertakesStarvedHead) {
  WindowProbe w;
  w.window.arm(1);
  EXPECT_FALSE(w.window.push({1, false}));
  EXPECT_FALSE(w.pump());
  w.window.push({2, false});          // no credit left: stalls at the head
  w.window.push({3, true});           // barrier behind it
  EXPECT_TRUE(w.pump());              // stopped on a credit
  EXPECT_EQ(w.sent, (std::vector<int>{1}));  // the barrier did not overtake
  EXPECT_EQ(w.window.queued(), 2u);
  w.window.grant();
  EXPECT_FALSE(w.pump());
  EXPECT_EQ(w.sent, (std::vector<int>{1, 2, 3}));
  // A barrier at the head leaves without a credit.
  w.window.push({4, true});
  EXPECT_FALSE(w.pump());
  EXPECT_EQ(w.sent, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(w.window.in_flight(), 1u);
}

TEST(CreditWindow, PushWaitsBehindQueuedItemsEvenWithCredit) {
  WindowProbe w;
  w.window.arm(2);
  EXPECT_FALSE(w.window.push({1, false}));
  EXPECT_TRUE(w.window.push({2, false}));  // credit free, but 1 is ahead
  EXPECT_FALSE(w.pump());
  EXPECT_EQ(w.sent, (std::vector<int>{1, 2}));
  EXPECT_EQ(w.window.in_flight(), 2u);
  EXPECT_TRUE(w.window.push({3, false}));  // no credit
}

TEST(CreditWindow, GrantNeverLiftsCreditsAboveArmedWindow) {
  WindowProbe w;
  w.window.arm(2);
  w.window.grant();  // stray returns on a full window
  w.window.grant();
  EXPECT_EQ(w.window.in_flight(), 0u);
  for (int i = 1; i <= 3; ++i) w.window.push({i, false});
  EXPECT_TRUE(w.pump());
  EXPECT_EQ(w.sent, (std::vector<int>{1, 2}));
  w.window.grant();
  w.window.grant();
  w.window.grant();
  EXPECT_FALSE(w.pump());
  EXPECT_EQ(w.window.in_flight(), 1u);  // 2 credits at most, 1 spent
}

TEST(CreditWindow, ArmDropsTheQueue) {
  WindowProbe w;
  w.window.arm(1);
  for (int i = 1; i <= 3; ++i) w.window.push({i, false});
  EXPECT_TRUE(w.pump());
  EXPECT_EQ(w.window.queued(), 2u);
  EXPECT_EQ(w.window.in_flight(), 1u);
  w.window.arm(3);
  EXPECT_EQ(w.window.queued(), 0u);
  EXPECT_EQ(w.window.in_flight(), 0u);
  EXPECT_FALSE(w.window.push({4, false}));
  EXPECT_FALSE(w.pump());
  EXPECT_EQ(w.sent, (std::vector<int>{1, 4}));
}

// ---- flow control ----------------------------------------------------------------

TEST(Flow, CreditExhaustionStallsThenResumes) {
  // 16 segments per 4 MiB stream against a 2-credit window: pushes must
  // stall on credits and drain as acks return, without wedging the job.
  RuntimeOptions ro = push_opts();
  ro.flow.credits_per_channel = 2;

  Cluster pull(star(6));
  const auto base = pull.run(synthetic_job(3, 8, 4 * MiB));
  ASSERT_TRUE(base.ok);

  Cluster push(star(6));
  const auto res = push.run(synthetic_job(3, 8, 4 * MiB), ro);
  ASSERT_TRUE(res.ok);
  const auto& fs = push.rt.flow_stats();
  EXPECT_GT(fs.segments_pushed, 0u);
  EXPECT_GT(fs.credit_stalls, 0u);
  EXPECT_GT(fs.streams_completed, 0u);
  EXPECT_EQ(fs.streams_broken, 0u);  // fault-free run
  // Lineage fingerprints are content-checkable: same answer both transports.
  EXPECT_EQ(result_bytes(res), result_bytes(base));
}

TEST(Flow, ResetRearmsEveryChannel) {
  // reset() re-arms channels lazily, on first touch: every channel must
  // come back with a full window and an empty queue, whether the new job
  // changes credits_per_channel or repeats the previous epoch value.
  sim::Simulator sim;
  sim::Network net(sim, star(4));
  sim::Comm comm(sim, net);
  const Bytes block(8);
  flow::FlowFabric fab(
      comm, {[](std::size_t) { return true; },
             [&block](std::size_t, std::size_t, std::size_t, std::uint32_t) {
               return &block;
             }});
  const std::vector<std::pair<std::size_t, std::size_t>> chans = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 1}};
  FlowOptions opts;
  opts.segment_bytes = 1024;
  opts.credits_per_channel = 2;
  fab.reset(opts, 1);
  std::size_t task = 0;
  for (const auto& [src, dst] : chans) fab.push_block(src, dst, 0, task++, 0, 5 * 1024);
  EXPECT_EQ(fab.segments_in_flight(), 2 * chans.size());
  EXPECT_EQ(fab.stats().credit_stalls, 3 * chans.size());  // queued, never sent

  // A wider window: the fresh push sends all three segments at once.
  opts.credits_per_channel = 3;
  fab.reset(opts, 2);
  EXPECT_EQ(fab.segments_in_flight(), 0u);
  std::uint64_t stalls = fab.stats().credit_stalls;
  fab.push_block(0, 1, 0, task++, 0, 3 * 1024);
  EXPECT_EQ(fab.stats().credit_stalls, stalls);
  EXPECT_EQ(fab.segments_in_flight(), 3u);
  fab.push_block(0, 1, 0, task++, 0, 1024);  // past the window: queues
  EXPECT_EQ(fab.stats().credit_stalls, stalls + 1);

  // The same epoch again still re-arms every channel.
  fab.reset(opts, 2);
  EXPECT_EQ(fab.segments_in_flight(), 0u);
  stalls = fab.stats().credit_stalls;
  for (const auto& [src, dst] : chans) {
    fab.push_block(src, dst, 0, task++, 0, 3 * 1024);
    EXPECT_EQ(fab.stats().credit_stalls, stalls) << src << "->" << dst;
  }
  EXPECT_EQ(fab.segments_in_flight(), 3 * chans.size());

  // Queued segments died with their reset: 10 + 3 + 15 were ever sent.
  sim.run();
  EXPECT_EQ(fab.stats().segments_pushed, 2 * chans.size() + 3 + 3 * chans.size());
  EXPECT_EQ(fab.segments_in_flight(), 0u);  // every ack came home
}

TEST(Flow, ReaderAheadOfWriterBlocksUntilStreamCompletes) {
  // Consumers launch the moment the last parent announces, while multi-MiB
  // streams are still on the wire: collects must block on in-flight streams
  // and wake when they complete (the compute/transfer overlap).
  Cluster cl(star(6));
  const auto res = cl.run(synthetic_job(3, 8, 8 * MiB), push_opts());
  ASSERT_TRUE(res.ok);
  const auto& fs = cl.rt.flow_stats();
  EXPECT_GT(fs.waits_satisfied, 0u);
  EXPECT_GT(fs.overlap_wait_s, 0.0);
}

// ---- broadcast / multicast -------------------------------------------------------

/// A one-dimension star query: `nbuild` distinct-key dimension rows joined
/// against `nprobe` fact rows keyed in the dimension's domain, so every
/// probe row matches exactly once.
plan::LogicalPlan join_plan(std::uint64_t nbuild, std::uint64_t nprobe,
                            std::uint64_t salt) {
  return plan::star_query(
      {.fact_salt = salt, .fact_rows = nprobe, .fact_domain = nbuild,
       .dims = {{.salt = salt + 1, .rows = nbuild, .domain = nbuild}},
       .udf_stages = 0, .final_reduce = false},
      {0});
}

/// The join lowered with its dimension as a broadcast build side.
JobSpec broadcast_join(const plan::LogicalPlan& p, std::size_t ntasks) {
  return plan::lower_dist(p, ntasks, {.broadcast_join_rows = p.nodes[1].rows});
}

/// Rows in one canonical order, so runs compare exactly.
std::vector<plan::Row> sorted_rows(std::vector<plan::Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<plan::Row> local_rows(const plan::LogicalPlan& p) {
  ThreadPool pool{2};
  dataflow::Context ctx{pool};
  return sorted_rows(plan::lower_local(p, ctx));
}

TEST(Flow, MulticastMovesFewerBytesThanUnicastForBroadcastStage) {
  const plan::LogicalPlan p = join_plan(512, 8192, 99);
  const JobSpec bj = broadcast_join(p, 8);
  ASSERT_EQ(std::count_if(bj.stages.begin(), bj.stages.end(),
                          [](const StageSpec& st) { return st.broadcast; }),
            1);

  Cluster uni(star(6));
  JobSpec unicast = bj;
  for (StageSpec& st : unicast.stages) st.broadcast = false;  // per-child copies
  const auto ures = uni.run(unicast, push_opts());
  ASSERT_TRUE(ures.ok);
  EXPECT_EQ(uni.rt.flow_stats().multicast_segments, 0u);

  Cluster mc(star(6));
  const auto mres = mc.run(bj, push_opts());
  ASSERT_TRUE(mres.ok);
  EXPECT_GT(mc.rt.flow_stats().multicast_segments, 0u);

  // Identical join, strictly fewer bytes on the wire: the build side rides
  // one multicast stream per producer task instead of one copy per child.
  const auto rows = sorted_rows(plan::rows_from_result(mres));
  EXPECT_EQ(rows, local_rows(p));
  EXPECT_EQ(rows, sorted_rows(plan::rows_from_result(ures)));
  EXPECT_LT(mc.net.stats().bytes, uni.net.stats().bytes);
}

TEST(Flow, PushMatchesPullOnBroadcastJoin) {
  const plan::LogicalPlan p = join_plan(256, 4096, 7);
  Cluster pull(star(5));
  const auto pres = pull.run(broadcast_join(p, 6));
  Cluster push(star(5));
  const auto sres = push.run(broadcast_join(p, 6), push_opts());
  ASSERT_TRUE(pres.ok);
  ASSERT_TRUE(sres.ok);
  const auto rows = sorted_rows(plan::rows_from_result(sres));
  EXPECT_EQ(rows.size(), 4096u);  // every probe row matches exactly once
  EXPECT_EQ(rows, sorted_rows(plan::rows_from_result(pres)));
  EXPECT_EQ(rows, local_rows(p));
}

// ---- fault tolerance -------------------------------------------------------------

TEST(Flow, KillingNodeHoldingInFlightSegmentsRecoversBitIdentical) {
  auto job = [] { return synthetic_job(4, 8, 8 * MiB); };

  Cluster clean(star(6), fast_detect_config());
  const auto base = clean.run(job(), push_opts());
  ASSERT_TRUE(base.ok);
  ASSERT_EQ(clean.rt.stats().task_retries, 0u);
  // Kill right after stage s1 starts: s0's streams are published and still
  // draining toward their consumers, so the dead node holds both buffered
  // segments (as a target) and stream sources (as a producer).
  ASSERT_GE(base.stages.size(), 2u);
  ASSERT_GE(base.stages[1].start, 0.0);
  const double kill_at = base.stages[1].start + 0.01;

  Cluster faulty(star(6), fast_detect_config());
  faulty.rt.kill_node_at(3, kill_at);
  faulty.rt.recover_node_at(3, kill_at + 2.0);
  const auto res = faulty.run(job(), push_opts());
  ASSERT_TRUE(res.ok);
  const auto& st = faulty.rt.stats();
  EXPECT_GE(st.executors_declared_dead, 1u);
  EXPECT_GE(st.tasks_recomputed, 1u);  // lineage rebuilt the lost outputs
  // Bit-identical lineage fingerprints despite recomputation over a fabric
  // that lost buffered segments with the node.
  EXPECT_EQ(result_bytes(res), result_bytes(base));
}

TEST(Flow, ChaosDifferentialOracleHoldsUnderPush) {
  // The full chaos harness (differential + quiescence oracles) with the
  // push transport and broadcast lowering enabled; seeds chosen small so
  // this stays a smoke, the 50-seed campaign runs in CI.
  ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    chaos::ChaosConfig cfg;
    cfg.plan_seed = seed;
    cfg.fault_seed = seed * 7 + 1;
    cfg.plan_nodes = 3 + static_cast<std::size_t>(seed % 4);
    cfg.rows = 128;
    cfg.transport = TransportKind::kPush;
    const auto out = chaos::run_chaos_once(cfg, pool);
    EXPECT_TRUE(out.passed) << "seed " << seed << ": " << out.violation
                            << "\nreplay: " << chaos::batch_kit().format(cfg);
  }
}

// ---- replay spec -----------------------------------------------------------------

TEST(Flow, ReplaySpecCarriesTransportOnlyForPush) {
  chaos::ChaosConfig cfg;
  cfg.plan_seed = 3;
  cfg.fault_seed = 9;
  const std::string pull_spec = chaos::batch_kit().format(cfg);
  EXPECT_EQ(pull_spec.find("tp="), std::string::npos);  // archived specs intact
  EXPECT_EQ(chaos::batch_kit().parse(pull_spec).transport, TransportKind::kPull);

  cfg.transport = TransportKind::kPush;
  const std::string push_spec = chaos::batch_kit().format(cfg);
  EXPECT_NE(push_spec.find(",tp=1"), std::string::npos);
  const auto back = chaos::batch_kit().parse(push_spec);
  EXPECT_EQ(back.transport, TransportKind::kPush);
  EXPECT_EQ(chaos::batch_kit().format(back), push_spec);
}

// ---- options threading -----------------------------------------------------------

TEST(Flow, SlotPoolCarriesRuntimeOptionsPerJob) {
  sim::Simulator sim;
  sim::Network net(sim, star(6));
  sim::Comm comm(sim, net);
  sim::Dfs dfs(comm, sim::DfsConfig{});
  DistConfig dc;
  dc.seed = 5;
  JobSlotPool pool(comm, dc, 2, &dfs);

  JobResult push_res, pull_res;
  pool.submit(synthetic_job(3, 6, 2 * MiB), push_opts(),
              [&push_res](const JobResult& r) { push_res = r; });
  pool.submit(synthetic_job(3, 6, 2 * MiB),
              [&pull_res](const JobResult& r) { pull_res = r; });
  sim.run();
  ASSERT_TRUE(push_res.ok);
  ASSERT_TRUE(pull_res.ok);
  EXPECT_EQ(result_bytes(push_res), result_bytes(pull_res));
  // Exactly one of the two concurrent jobs streamed through the fabric.
  std::uint64_t pushed = 0;
  for (std::size_t i = 0; i < pool.slots(); ++i) {
    pushed += pool.slot_runtime(i).flow_stats().segments_pushed;
  }
  EXPECT_GT(pushed, 0u);
  // The local/remote shuffle split partitions the total, across both paths.
  const DistStats agg = pool.aggregate_stats();
  EXPECT_EQ(agg.shuffle_bytes_local + agg.shuffle_bytes_remote,
            agg.shuffle_bytes);
}

TEST(Flow, ServeCarriesTransportDownToTheExecutor) {
  sim::Simulator sim;
  sim::Network net(sim, star(6));
  sim::Comm comm(sim, net);
  sim::Dfs dfs(comm, sim::DfsConfig{});
  DistConfig dc;
  dc.seed = 11;
  dc.heartbeat_interval = 0.1;
  dc.heartbeat_timeout = 0.5;
  JobSlotPool pool(comm, dc, 2, &dfs);
  serve::ServeConfig sc;
  sc.cache_capacity = 0;  // force both submissions through the executors
  serve::JobService svc(pool, sc);

  const auto plan = chaos::make_plan(5, 4, 128);
  serve::Completion push_done, pull_done;
  serve::SubmitRequest preq;
  preq.tenant = 1;
  preq.plan = plan;
  preq.runtime = push_opts();
  svc.submit(preq, [&push_done](const serve::Completion& c) { push_done = c; });
  serve::SubmitRequest qreq;
  qreq.tenant = 2;
  qreq.plan = plan;
  svc.submit(qreq, [&pull_done](const serve::Completion& c) { pull_done = c; });
  sim.run();

  ASSERT_EQ(push_done.status, serve::Status::kCompleted);
  ASSERT_EQ(pull_done.status, serve::Status::kCompleted);
  EXPECT_EQ(plan::canonical_bytes(push_done.rows),
            plan::canonical_bytes(pull_done.rows));

  ThreadPool ref(4);
  dataflow::Context ctx(ref);
  EXPECT_EQ(plan::canonical_bytes(push_done.rows),
            plan::canonical_bytes(plan::lower_local(plan, ctx)));
}

}  // namespace
}  // namespace hpbdc::dist
