// Tests for the distributed dataflow runtime (src/dist): parity with the
// shared-memory dataflow engine (bit-for-bit), lineage-based recovery from a
// mid-job node kill, checkpoint-truncated recomputation, straggler
// speculation, DFS-block locality, whole-run determinism under a fixed
// seed, and a JobSlotPool's one membership service shared by every slot.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "algos/terasort.hpp"
#include "algos/textgen.hpp"
#include "algos/wordcount.hpp"
#include "dist/jobs.hpp"
#include "dist/runtime.hpp"
#include "dist/slots.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"

namespace hpbdc::dist {
namespace {

constexpr std::uint64_t MiB = 1ULL << 20;

sim::NetworkConfig star(std::size_t nodes) {
  sim::NetworkConfig nc;
  nc.nodes = nodes;
  nc.topology = sim::Topology::kStar;
  return nc;
}

sim::NetworkConfig fat_tree_16() {
  sim::NetworkConfig nc;
  nc.nodes = 16;
  nc.topology = sim::Topology::kFatTree;
  nc.hosts_per_rack = 4;
  nc.racks_per_pod = 2;
  return nc;
}

/// One fully wired simulated cluster + runtime; fresh per run so repeated
/// runs start from identical state.
struct Cluster {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  DistRuntime rt;

  explicit Cluster(sim::NetworkConfig nc, DistConfig dc = {},
                   sim::DfsConfig fc = {})
      : net(sim, nc), comm(sim, net), dfs(comm, fc), rt(comm, dc, &dfs) {}

  JobResult run(JobSpec job) {
    JobResult out;
    rt.submit(std::move(job), [&out](const JobResult& r) { out = r; });
    sim.run();
    return out;
  }
};

std::vector<std::vector<std::string>> partition_lines(
    const std::vector<std::string>& lines, std::size_t nparts) {
  std::vector<std::vector<std::string>> parts(nparts);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    parts[i % nparts].push_back(lines[i]);
  }
  return parts;
}

// ---- parity with the shared-memory engine ----------------------------------------

TEST(DistRuntime, WordCountMatchesDataflowBitForBit) {
  Rng rng(7);
  algos::TextGenConfig tc;
  tc.vocabulary = 300;
  const auto lines = algos::generate_text(tc, 400, rng);
  auto parts = std::make_shared<std::vector<std::vector<std::string>>>(
      partition_lines(lines, 8));

  DistConfig dc;
  dc.seed = 42;
  Cluster cl(star(8), dc);
  obs::TraceSession trace;
  cl.rt.bind_trace(trace);
  const auto res = cl.run(wordcount_job(parts, 5));
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.makespan, 0.0);
  const auto& st = cl.rt.stats();
  EXPECT_EQ(st.task_retries, 0u);
  EXPECT_EQ(st.tasks_recomputed, 0u);
  EXPECT_EQ(st.executors_declared_dead, 0u);
  EXPECT_EQ(st.tasks_completed, 13u);  // 8 map + 5 reduce

  // The trace holds per-task and per-stage spans.
  std::size_t task_spans = 0, stage_spans = 0;
  for (const auto& ev : trace.events()) {
    task_spans += ev.category == "task" ? 1 : 0;
    stage_spans += ev.category == "stage" ? 1 : 0;
  }
  EXPECT_EQ(task_spans, 13u);
  EXPECT_EQ(stage_spans, 2u);

  // Same computation on the shared-memory engine.
  ThreadPool pool{4};
  dataflow::Context ctx{pool};
  auto ds = dataflow::Dataset<std::string>::parallelize(ctx, lines, 8);
  auto engine_rows = algos::word_count(ds, 5).collect();
  std::sort(engine_rows.begin(), engine_rows.end());

  EXPECT_EQ(to_bytes(wordcount_collect(res)), to_bytes(engine_rows));
}

TEST(DistRuntime, TeraSortMatchesDataflowBitForBit) {
  Rng rng(11);
  auto records = algos::generate_tera_records(3000, rng);
  auto parts = std::make_shared<std::vector<std::vector<algos::TeraRecord>>>();
  parts->resize(6);
  for (std::size_t i = 0; i < records.size(); ++i) {
    (*parts)[i % 6].push_back(records[i]);
  }

  DistConfig dc;
  dc.seed = 5;
  Cluster cl(star(8), dc);
  const auto res = cl.run(terasort_job(parts, 4));
  ASSERT_TRUE(res.ok);
  auto got = terasort_collect(res);
  ASSERT_EQ(got.size(), records.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), tera_less));

  ThreadPool pool{4};
  dataflow::Context ctx{pool};
  auto engine = algos::terasort(ctx, records, 4).collect();
  std::sort(engine.begin(), engine.end(), tera_less);
  std::sort(got.begin(), got.end(), tera_less);  // canonical order for ties
  EXPECT_EQ(to_bytes(got), to_bytes(engine));
}

// ---- fault tolerance -------------------------------------------------------------

DistConfig fast_detect_config() {
  DistConfig dc;
  dc.seed = 1234;
  dc.slots_per_node = 1;
  dc.heartbeat_interval = 0.05;
  dc.heartbeat_timeout = 0.25;
  dc.heartbeat_jitter = 0.01;
  return dc;
}

TEST(DistRuntime, NodeKillRecoversViaLineageWithSameResult) {
  Rng rng(3);
  algos::TextGenConfig tc;
  tc.vocabulary = 200;
  const auto lines = algos::generate_text(tc, 200, rng);
  auto parts = std::make_shared<std::vector<std::vector<std::string>>>(
      partition_lines(lines, 16));
  // 64 MiB simulated scan per map task stretches the job so the kill and
  // its detection land mid-flight.
  auto make_job = [&] { return wordcount_job(parts, 32, {}, 64 * MiB); };

  Cluster clean(star(8), fast_detect_config());
  const auto base = clean.run(make_job());
  ASSERT_TRUE(base.ok);
  ASSERT_EQ(clean.rt.stats().task_retries, 0u);

  Cluster faulty(star(8), fast_detect_config());
  faulty.rt.kill_node_at(5, 0.6 * base.makespan);
  const auto res = faulty.run(make_job());
  ASSERT_TRUE(res.ok);
  const auto& st = faulty.rt.stats();
  EXPECT_GE(st.executors_declared_dead, 1u);
  EXPECT_GE(st.tasks_recomputed, 1u);  // node 5's finished map outputs were lost
  EXPECT_GT(res.makespan, base.makespan);
  // Bit-for-bit the same answer despite the recomputation.
  EXPECT_EQ(to_bytes(wordcount_collect(res)), to_bytes(wordcount_collect(base)));
}

TEST(DistRuntime, KilledNodeRecoversAndRejoins) {
  auto dc = fast_detect_config();
  Cluster cl(star(8), dc);
  cl.rt.kill_node_at(3, 0.2);
  cl.rt.recover_node_at(3, 0.8);
  const auto res = cl.run(synthetic_job(3, 16, 8 * MiB));
  ASSERT_TRUE(res.ok);
  EXPECT_GE(cl.rt.stats().executors_declared_dead, 1u);
  EXPECT_EQ(cl.rt.live_executors(), 8u);  // node 3 re-registered via heartbeat
}

TEST(DistRuntime, IdleKillAndRecoveryCountNoBeat) {
  // Once the job has finished the beat loops are stopped, so a recovery has
  // no detector to report to: it must not send a beat that the observer
  // would count under the finished job's generation.
  Cluster cl(star(8), fast_detect_config());
  ASSERT_TRUE(cl.run(synthetic_job(3, 16, 8 * MiB)).ok);
  const std::uint64_t beats = cl.rt.stats().heartbeats_received;
  EXPECT_GT(beats, 0u);
  cl.rt.kill_node_at(3, cl.sim.now() + 1.0);
  cl.rt.recover_node_at(3, cl.sim.now() + 2.0);
  cl.sim.run();
  EXPECT_EQ(cl.rt.stats().heartbeats_received, beats);
  // The next job restarts the beats, and every executor is live.
  ASSERT_TRUE(cl.run(synthetic_job(3, 16, 8 * MiB)).ok);
  EXPECT_GT(cl.rt.stats().heartbeats_received, beats);
  EXPECT_EQ(cl.rt.live_executors(), 8u);
}

sim::SimTime stage_end(const obs::TraceSession& trace, const std::string& stage) {
  for (const auto& ev : trace.events()) {
    if (ev.category == "stage" && ev.name == stage) {
      return static_cast<double>(ev.ts_us + ev.dur_us) / 1e6;
    }
  }
  ADD_FAILURE() << "no stage span " << stage;
  return 0;
}

TEST(DistRuntime, CheckpointRecomputesStrictlyLessThanLineage) {
  // 4-stage chain; the checkpointed variant persists s1. A node killed
  // during s3 costs the plain variant a recompute cascade down to s0, while
  // the checkpointed variant restarts from the s1 checkpoint.
  struct Variant {
    std::uint64_t recomputed = 0;
    Bytes result;
  };
  auto run_variant = [](std::size_t ckpt_every) {
    auto job = [ckpt_every] { return synthetic_job(4, 8, 4 * MiB, ckpt_every); };
    DistConfig dc = fast_detect_config();
    dc.slots_per_node = 2;
    dc.compute_bps = 50e6;  // long stages: the checkpoint write finishes in s2
    sim::DfsConfig fc;
    fc.disk_bandwidth_bps = 2e9;

    Cluster clean(star(8), dc, fc);
    obs::TraceSession trace;
    clean.rt.bind_trace(trace);
    const auto base = clean.run(job());
    EXPECT_TRUE(base.ok);
    const sim::SimTime kill_at = stage_end(trace, "s2") + 0.01;

    Cluster faulty(star(8), dc, fc);
    faulty.rt.kill_node_at(3, kill_at);
    const auto res = faulty.run(job());
    EXPECT_TRUE(res.ok);
    Variant v;
    v.recomputed = faulty.rt.stats().tasks_recomputed;
    if (ckpt_every > 0) {
      EXPECT_GE(faulty.rt.stats().checkpoints_written, 1u);
      EXPECT_GE(faulty.rt.stats().checkpoint_restores, 1u);
    }
    BufWriter w;
    for (const auto& blocks : res.output)
      for (const auto& b : blocks) w.write_bytes(b);
    v.result = w.take();
    return v;
  };

  const Variant plain = run_variant(0);
  const Variant ckpt = run_variant(2);
  EXPECT_GE(plain.recomputed, 1u);
  EXPECT_LT(ckpt.recomputed, plain.recomputed);
  EXPECT_EQ(plain.result, ckpt.result);  // recovery never changes the answer
}

/// Random node churn: every node but the driver dies after exponential gaps
/// of mean `mtbf` and recovers `downtime` later, until `horizon`. The gaps
/// come from one stream seeded by the master seed, drawn in kill order.
sim::FaultPlan churn_plan(std::size_t nodes, const DistConfig& dc, double mtbf,
                          double downtime, double horizon) {
  Rng rng(mix_seed(dc.seed, 2));
  std::vector<double> next_kill(nodes, horizon);
  for (std::size_t n = 0; n < nodes; ++n) {
    if (n != dc.driver) next_kill[n] = rng.next_exponential(1.0 / mtbf);
  }
  sim::FaultPlan plan;
  for (auto t = std::min_element(next_kill.begin(), next_kill.end()); *t < horizon;
       t = std::min_element(next_kill.begin(), next_kill.end())) {
    const auto n = static_cast<std::size_t>(t - next_kill.begin());
    plan.kill(*t, n).recover(*t + downtime, n);
    *t += downtime + rng.next_exponential(1.0 / mtbf);
  }
  return plan;
}

TEST(DistRuntime, SameSeedRunsAreIdentical) {
  auto run_once = [] {
    auto nc = star(8);
    nc.loss_probability = 0.01;  // lossy control plane, fixed loss_seed
    nc.loss_seed = 999;
    DistConfig dc = fast_detect_config();
    dc.slots_per_node = 2;
    // Longer than any genuine attempt (fetch queueing included) so only
    // genuinely lost control RPCs get requeued.
    dc.attempt_timeout = 10.0;
    dc.max_task_attempts = 10;
    Cluster cl(nc, dc);
    // Random failures drawn from the master seed.
    sim::FaultTargets targets;
    targets.kill_node = [&cl](std::size_t n) { cl.rt.kill_node_at(n, cl.sim.now()); };
    targets.recover_node = [&cl](std::size_t n) {
      cl.rt.recover_node_at(n, cl.sim.now());
    };
    sim::FaultInjector injector(cl.sim, targets);
    injector.arm(churn_plan(nc.nodes, dc, 6.0, 0.5, 60.0));
    // A light job whose per-attempt work stays well under attempt_timeout even
    // with disk/NIC contention, so the failure churn is survivable: ~a dozen
    // node kill/recover cycles and a few lineage recomputes per run.
    const auto res = cl.run(synthetic_job(3, 8, 4 * MiB));
    EXPECT_TRUE(res.ok);
    EXPECT_GE(cl.rt.stats().executors_declared_dead, 1u);
    EXPECT_GE(cl.rt.stats().tasks_recomputed, 1u);
    return std::pair<JobResult, DistStats>(res, cl.rt.stats());
  };
  const auto [r1, s1] = run_once();
  const auto [r2, s2] = run_once();
  EXPECT_EQ(r1.makespan, r2.makespan);  // exact: same seed, same event order
  EXPECT_EQ(s1.tasks_launched, s2.tasks_launched);
  EXPECT_EQ(s1.task_retries, s2.task_retries);
  EXPECT_EQ(s1.tasks_recomputed, s2.tasks_recomputed);
  EXPECT_EQ(s1.executors_declared_dead, s2.executors_declared_dead);
  EXPECT_EQ(s1.heartbeats_received, s2.heartbeats_received);
  BufWriter w1, w2;
  for (const auto& blocks : r1.output)
    for (const auto& b : blocks) w1.write_bytes(b);
  for (const auto& blocks : r2.output)
    for (const auto& b : blocks) w2.write_bytes(b);
  EXPECT_EQ(w1.take(), w2.take());
}

TEST(DistRuntime, SpeculationBeatsStragglersOnMakespan) {
  auto run_once = [](bool speculate) {
    DistConfig dc;
    dc.seed = 77;
    dc.slots_per_node = 2;
    dc.straggler_fraction = 0.3;
    dc.straggler_speed = 0.1;
    dc.speculate = speculate;
    Cluster cl(star(8), dc);
    const auto res = cl.run(synthetic_job(1, 24, 16 * MiB));
    EXPECT_TRUE(res.ok);
    return std::pair<double, DistStats>(res.makespan, cl.rt.stats());
  };
  const auto [slow, slow_stats] = run_once(false);
  const auto [fast, fast_stats] = run_once(true);
  EXPECT_EQ(slow_stats.speculative_launched, 0u);
  EXPECT_GE(fast_stats.speculative_launched, 1u);
  EXPECT_LT(fast, slow);
}

TEST(DistRuntime, InputStagePrefersDfsBlockLocality) {
  DistConfig dc;
  dc.seed = 9;
  Cluster cl(fat_tree_16(), dc);
  bool written = false;
  cl.dfs.write(0, "/input", 16 * 64 * MiB, [&](bool ok) { written = ok; });
  cl.sim.run();
  ASSERT_TRUE(written);

  const auto res = cl.run(synthetic_job(1, 16, MiB, 0, 64 * MiB, "/input"));
  ASSERT_TRUE(res.ok);
  const auto& st = cl.rt.stats();
  EXPECT_EQ(st.locality_hits + st.locality_misses, st.tasks_launched);
  EXPECT_GT(st.locality_hits, st.locality_misses);
}

// ---- chaos-harness-motivated regression scenarios --------------------------------

TEST(DistRuntime, KillingSoleHolderOfAllMapOutputsRecomputesTheStage) {
  // Pin every map task to node 1 via DFS locality (first replica of every
  // input block lives on the writer), so node 1 ends up the only holder of
  // the whole map stage's shuffle outputs. Killing it right after the stage
  // completes forces a full-stage lineage rollback; the input stays readable
  // through each block's second replica.
  auto dc = fast_detect_config();
  dc.slots_per_node = 8;  // node 1 can hold every map task at once
  sim::DfsConfig fc;
  fc.replication = 2;
  auto make_cluster = [&] {
    auto cl = std::make_unique<Cluster>(star(8), dc, fc);
    bool written = false;
    cl->dfs.write(1, "/pin", 4 * fc.block_size, [&](bool ok) { written = ok; });
    cl->sim.run();
    EXPECT_TRUE(written);
    return cl;
  };
  auto make_job = [&] { return synthetic_job(2, 4, 4 * MiB, 0, 64 * MiB, "/pin"); };

  auto clean = make_cluster();
  obs::TraceSession trace;
  clean->rt.bind_trace(trace);
  const auto base = clean->run(make_job());
  ASSERT_TRUE(base.ok);
  ASSERT_EQ(clean->rt.stats().locality_hits, 4u);  // all maps ran on node 1

  auto faulty = make_cluster();
  faulty->rt.kill_node_at(1, stage_end(trace, "s0") + 0.01);
  const auto res = faulty->run(make_job());
  ASSERT_TRUE(res.ok);
  const auto& st = faulty->rt.stats();
  EXPECT_GE(st.executors_declared_dead, 1u);
  EXPECT_GE(st.tasks_recomputed, 4u);  // the whole map stage came back
  BufWriter wa, wb;
  for (const auto& blocks : base.output)
    for (const auto& b : blocks) wa.write_bytes(b);
  for (const auto& blocks : res.output)
    for (const auto& b : blocks) wb.write_bytes(b);
  EXPECT_EQ(wa.take(), wb.take());
}

TEST(DistRuntime, CheckpointWriteRacesHolderDeath) {
  // Slow DFS disks keep the s1 checkpoint's replication pipeline in flight
  // when a holder of s1 outputs dies: the driver already snapshotted the
  // stage's blocks, so the write must complete and recovery must still
  // produce the fault-free answer from checkpoint restores and/or lineage.
  auto job = [] { return synthetic_job(4, 8, 4 * MiB, /*checkpoint_every=*/2); };
  DistConfig dc = fast_detect_config();
  dc.slots_per_node = 2;
  dc.compute_bps = 50e6;
  sim::DfsConfig fc;
  fc.disk_bandwidth_bps = 50e6;  // 8x4MiB checkpoint: write spans stage s2

  Cluster clean(star(8), dc, fc);
  obs::TraceSession trace;
  clean.rt.bind_trace(trace);
  const auto base = clean.run(job());
  ASSERT_TRUE(base.ok);

  Cluster faulty(star(8), dc, fc);
  faulty.rt.kill_node_at(3, stage_end(trace, "s1") + 0.05);
  const auto res = faulty.run(job());
  ASSERT_TRUE(res.ok);
  const auto& st = faulty.rt.stats();
  EXPECT_GE(st.checkpoints_written, 1u);  // the racing write still landed
  EXPECT_GE(st.tasks_recomputed + st.checkpoint_restores, 1u);
  BufWriter wa, wb;
  for (const auto& blocks : base.output)
    for (const auto& b : blocks) wa.write_bytes(b);
  for (const auto& blocks : res.output)
    for (const auto& b : blocks) wb.write_bytes(b);
  EXPECT_EQ(wa.take(), wb.take());
}

TEST(DistRuntime, SpeculationRacesAGenuineMidJobStraggler) {
  // A node turns straggler mid-stage (set_node_speed_at, not the static
  // straggler_fraction config): LATE must launch a backup that races the
  // genuine slow attempt, and winning must beat the no-speculation run.
  auto run_once = [](bool speculate, bool slowdown) {
    DistConfig dc;
    dc.seed = 77;
    dc.slots_per_node = 2;
    dc.speculate = speculate;
    Cluster cl(star(8), dc);
    if (slowdown) cl.rt.set_node_speed_at(5, 0.08, 0.15);
    const auto res = cl.run(synthetic_job(1, 24, 16 * MiB));
    EXPECT_TRUE(res.ok);
    return std::pair<double, DistStats>(res.makespan, cl.rt.stats());
  };
  const auto [healthy, healthy_stats] = run_once(true, false);
  const auto [unaided, unaided_stats] = run_once(false, true);
  const auto [raced, raced_stats] = run_once(true, true);
  EXPECT_EQ(unaided_stats.speculative_launched, 0u);
  EXPECT_GE(raced_stats.speculative_launched, 1u);
  EXPECT_GE(raced_stats.speculative_won, 1u);  // the backup beat the straggler
  EXPECT_LT(raced, unaided);
  EXPECT_GT(raced, healthy);  // the straggler still cost something
}

TEST(DistRuntime, CheckpointChargesSimulatedNotRealBytes) {
  // synthetic_job blocks are 8-byte lineage fingerprints with a simulated
  // size override — the DFS write for a checkpointed stage must charge the
  // simulated total (what F10/F11 sweep against), not the real Bytes size.
  Cluster cl(star(6));
  const std::size_t ntasks = 4;
  const auto res = cl.run(synthetic_job(/*nstages=*/3, ntasks,
                                        /*block_sim_bytes=*/MiB,
                                        /*checkpoint_every=*/1));
  ASSERT_TRUE(res.ok);
  ASSERT_GE(cl.rt.stats().checkpoints_written, 2u);  // stages 0 and 1
  const std::uint64_t expected = ntasks * ntasks * MiB;  // per stage
  std::size_t ckpt_files = 0;
  for (const auto& name : cl.dfs.file_names()) {
    if (name.rfind("/.ckpt/", 0) != 0) continue;
    ++ckpt_files;
    EXPECT_EQ(cl.dfs.file_size(name), expected) << name;
  }
  EXPECT_EQ(ckpt_files, 2u);
}

TEST(DistRuntime, SinkFilePersistsErasureCodedAndReadsBackBitIdentical) {
  Rng rng(11);
  algos::TextGenConfig tc;
  tc.vocabulary = 200;
  const auto lines = algos::generate_text(tc, 300, rng);
  auto parts = std::make_shared<std::vector<std::vector<std::string>>>(
      partition_lines(lines, 6));

  DistConfig dc;
  dc.seed = 9;
  Cluster cl(star(8), dc);
  JobSpec job = wordcount_job(parts, 4);
  job.sink_file = "/job/wc.out";
  RuntimeOptions opts;
  opts.sink_policy = sim::StoragePolicy::kErasureCoded;
  JobResult res;
  cl.rt.submit(std::move(job), opts, [&res](const JobResult& r) { res = r; });
  cl.sim.run();
  ASSERT_TRUE(res.ok);
  EXPECT_TRUE(res.sink_ok);  // sink landed BEFORE the done callback fired
  EXPECT_EQ(cl.rt.stats().sink_writes, 1u);
  ASSERT_TRUE(cl.dfs.exists("/job/wc.out"));
  EXPECT_EQ(cl.dfs.file_policy("/job/wc.out"),
            sim::StoragePolicy::kErasureCoded);

  std::vector<std::uint8_t> expect;
  for (const auto& task_blocks : res.output) {
    for (const Bytes& b : task_blocks) {
      for (const std::byte v : b) expect.push_back(static_cast<std::uint8_t>(v));
    }
  }
  sim::ReadStatus status{};
  std::vector<std::uint8_t> got;
  cl.dfs.read_ex(0, "/job/wc.out",
                 [&](sim::ReadStatus s, const std::vector<std::uint8_t>& d) {
                   status = s;
                   got = d;
                 });
  cl.sim.run();
  EXPECT_EQ(status, sim::ReadStatus::kOk);
  EXPECT_EQ(got, expect);

  // Lose a data shard: the EC read degrades but stays bit-identical — the
  // point of choosing kErasureCoded for cold job artifacts.
  ASSERT_TRUE(cl.dfs.lose_shard("/job/wc.out", 0, 0));
  status = sim::ReadStatus::kUnavailable;
  got.clear();
  cl.dfs.read_ex(0, "/job/wc.out",
                 [&](sim::ReadStatus s, const std::vector<std::uint8_t>& d) {
                   status = s;
                   got = d;
                 });
  cl.sim.run();
  EXPECT_EQ(status, sim::ReadStatus::kDegraded);
  EXPECT_EQ(got, expect);
}

TEST(DistRuntime, RejectsBadJobs) {
  DistConfig dc;
  Cluster cl(star(4), dc);
  EXPECT_THROW(cl.rt.submit(JobSpec{}, nullptr), std::invalid_argument);
  JobSpec cyclic;
  StageSpec st;
  st.name = "s";
  st.ntasks = 1;
  st.parents = {0};  // self-reference: not topologically ordered
  st.run = [](std::size_t, const std::vector<std::vector<Bytes>>&) {
    return std::vector<Bytes>{};
  };
  cyclic.stages = {st};
  EXPECT_THROW(cl.rt.submit(std::move(cyclic), nullptr), std::invalid_argument);
  EXPECT_THROW(cl.rt.kill_node_at(0, 1.0), std::invalid_argument);  // driver
}

// ---- a JobSlotPool's shared membership service --------------------------------

struct PoolCluster {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  JobSlotPool pool;

  PoolCluster(std::size_t nodes, std::size_t slots, DistConfig dc = fast_detect_config())
      : net(sim, star(nodes)), comm(sim, net), dfs(comm, sim::DfsConfig{}),
        pool(comm, dc, slots, &dfs) {}
};

/// Three stages of 16 tasks, each first-stage task scanning 64 MiB: about a
/// second per stage on 8 nodes with one attempt per node per slot.
JobSpec long_job() { return synthetic_job(3, 16, 8 * MiB, 0, 64 * MiB); }

/// Launch times of the task spans a traced runtime recorded on `node`.
std::vector<double> task_starts_on(const obs::TraceSession& trace, std::size_t node) {
  std::vector<double> out;
  for (const auto& ev : trace.events()) {
    if (ev.category == "task" && ev.tid == node + 1) {
      out.push_back(static_cast<double>(ev.ts_us) / 1e6);
    }
  }
  return out;
}

TEST(JobSlotPool, ConcurrentSameNameJobsWriteDistinctCheckpoints) {
  PoolCluster cl(8, 2, DistConfig{});
  std::size_t ok = 0;
  for (int j = 0; j < 2; ++j) {
    cl.pool.submit(synthetic_job(4, 4, 1 * MiB, 1),
                   [&ok](const JobResult& r) { ok += r.ok ? 1 : 0; });
  }
  cl.sim.run();
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(cl.pool.aggregate_stats().checkpoints_written, 6u);
  std::size_t ckpts = 0;
  for (const std::string& name : cl.dfs.file_names()) {
    ckpts += name.starts_with("/.ckpt/") ? 1 : 0;
  }
  EXPECT_EQ(ckpts, 6u) << "both jobs' three stage checkpoints, none overwritten";
}

TEST(JobSlotPool, KillIsDeclaredOnceAndFailsEveryBusySlot) {
  PoolCluster cl(8, 3);
  std::size_t ok = 0;
  const auto done = [&ok](const JobResult& r) { ok += r.ok ? 1 : 0; };
  cl.pool.submit(long_job(), done);  // slot 0
  cl.pool.submit(long_job(), done);  // slot 1
  cl.pool.kill_node_at(3, 0.5);
  cl.sim.run_until(1.0);
  ASSERT_EQ(cl.pool.aggregate_stats().executors_declared_dead, 1u);
  EXPECT_GE(cl.pool.slot_runtime(0).stats().task_retries, 1u);
  EXPECT_GE(cl.pool.slot_runtime(1).stats().task_retries, 1u);
  // The idle slot 2 and a slot added after the death both start with node 3
  // dead: their jobs never wait on it and nobody declares it again.
  EXPECT_EQ(cl.pool.slot_runtime(2).live_executors(), 7u);
  const std::size_t added = cl.pool.add_slot();
  EXPECT_EQ(cl.pool.slot_runtime(added).live_executors(), 7u);
  cl.pool.submit(long_job(), done);  // slot 2
  cl.pool.submit(long_job(), done);  // the added slot
  cl.sim.run();
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(cl.pool.aggregate_stats().executors_declared_dead, 1u);
  EXPECT_EQ(cl.pool.slot_runtime(2).stats().task_retries, 0u);
  EXPECT_EQ(cl.pool.slot_runtime(added).stats().task_retries, 0u);
  EXPECT_EQ(cl.pool.live_executors(), 7u);
}

TEST(JobSlotPool, RecoveredNodeRejoinsEverySlot) {
  PoolCluster cl(8, 2);
  obs::TraceSession trace[2];
  std::size_t ok = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    cl.pool.slot_runtime(i).bind_trace(trace[i]);
    cl.pool.submit(long_job(), [&ok](const JobResult& r) { ok += r.ok ? 1 : 0; });
  }
  cl.pool.kill_node_at(3, 0.3);
  cl.pool.recover_node_at(3, 0.9);
  cl.sim.run_until(0.85);
  ASSERT_EQ(cl.pool.aggregate_stats().executors_declared_dead, 1u);
  EXPECT_EQ(cl.pool.live_executors(), 7u);
  cl.sim.run();
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(cl.pool.live_executors(), 8u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(::testing::Message() << "slot " << i);
    EXPECT_EQ(cl.pool.slot_runtime(i).live_executors(), 8u);
    const std::vector<double> starts = task_starts_on(trace[i], 3);
    EXPECT_TRUE(std::any_of(starts.begin(), starts.end(),
                            [](double t) { return t > 0.9; }))
        << "the slot never placed work on the re-registered node";
  }
}

TEST(JobSlotPool, SimRunReturnsOnceThePoolDrains) {
  PoolCluster cl(8, 2);
  std::size_t ok = 0;
  const auto done = [&ok](const JobResult& r) { ok += r.ok ? 1 : 0; };
  cl.pool.submit(synthetic_job(3, 8, 4 * MiB), done);
  cl.pool.submit(synthetic_job(3, 8, 4 * MiB), done);
  cl.sim.run_until(1000.0);
  EXPECT_TRUE(cl.sim.idle()) << "heartbeats must stop once no job runs";
  EXPECT_EQ(ok, 2u);
  const std::uint64_t beats = cl.pool.aggregate_stats().heartbeats_received;
  EXPECT_GT(beats, 0u);
  // A later job restarts the beats, and they stop again after it.
  cl.pool.submit(synthetic_job(3, 8, 4 * MiB), done);
  cl.sim.run_until(2000.0);
  EXPECT_TRUE(cl.sim.idle());
  EXPECT_EQ(ok, 3u);
  EXPECT_GT(cl.pool.aggregate_stats().heartbeats_received, beats);
}

}  // namespace
}  // namespace hpbdc::dist
