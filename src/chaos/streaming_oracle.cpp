#include "chaos/streaming_oracle.hpp"

#include <sstream>
#include <vector>

#include "chaos/harness.hpp"
#include "chaos/plan_gen.hpp"
#include "dstream/runtime.hpp"
#include "dstream/streaming.hpp"

namespace hpbdc::chaos {

namespace {

/// Windowing knobs shared by every oracle run: a ~4 s stream (rows / rate)
/// of tumbling half-second windows, so a kill schedule over (0, 3) always
/// lands mid-stream and usually mid-window.
dstream::StreamingOptions stream_opts(const StreamChaosConfig& cfg) {
  dstream::StreamingOptions o;
  o.ntasks = cfg.ntasks;
  o.rate = 48.0;
  o.window = 0.5;
  return o;
}

struct RunResult {
  bool done = false;
  dstream::StreamResult result;
  dstream::StreamStats stats;
};

/// One distributed execution on a fresh simulated cluster, with an optional
/// kill schedule applied through the runtime's ground-truth fault hooks.
RunResult run_distributed(const StreamChaosConfig& cfg,
                          const dstream::StreamJobSpec& spec,
                          const std::vector<KillEvent>& kills) {
  SimCluster cl(cfg.cluster_nodes, sim::NetworkConfig{}.loss_seed, cfg.ec_checkpoints);
  dstream::StreamConfig sc;
  sc.buggy_restore = cfg.inject_restore_bug;
  dstream::StreamRuntime rt(cl.comm, sc, &cl.dfs);
  for (const KillEvent& k : kills) {
    rt.kill_node_at(k.node, k.kill_time);
    rt.recover_node_at(k.node, k.recover_time);
  }
  dist::RuntimeOptions ro;
  ro.transport = cfg.transport;
  if (cfg.ec_checkpoints) ro.checkpoint_policy = sim::StoragePolicy::kErasureCoded;
  RunResult rr;
  rt.submit(spec, ro, [&](const dstream::StreamResult& r) {
    rr.result = r;
    rr.done = true;
    rr.stats = rt.stats();
  });
  cl.sim.run_until(cfg.horizon);
  if (!rr.done) rr.stats = rt.stats();
  return rr;
}

}  // namespace

const CampaignKit<StreamChaosConfig>& stream_kit() {
  using C = StreamChaosConfig;
  static const CampaignKit<C> kit{
      {field("spseed", &C::plan_seed),
       field("skseed", &C::kill_seed),
       field("nodes", &C::plan_nodes, Show::kAlways, 1, kMaxCount),
       field("rows", &C::rows, Show::kAlways, 0, kMaxRows),
       field("tasks", &C::ntasks, Show::kAlways, 1, kMaxCount),
       field("cluster", &C::cluster_nodes, Show::kAlways, 2, kMaxCount),
       field("kills", &C::kills, Show::kAlways, 0, kMaxCount),
       field("bug", &C::inject_restore_bug, Show::kIfChanged),
       field("tp", &C::transport, Show::kIfChanged),
       field("ec", &C::ec_checkpoints, Show::kIfChanged)},
      {dim(Shrink::kAscending, &C::plan_nodes, 1), dim(Shrink::kAscending, &C::kills)},
      [](const C& c) { check_product("nodes*rows", {c.plan_nodes, c.rows}, kMaxRows); }};
  return kit;
}

std::string describe(const StreamChaosOutcome& out) {
  std::ostringstream os;
  os << "  plan: " << out.plan << "\n  violation: " << out.violation
     << "\n  stats: rows=" << out.result_rows
     << " epochs=" << out.epochs_completed << " recoveries=" << out.recoveries
     << " kills=" << out.kills_scheduled << " makespan=" << out.makespan
     << "s\n";
  return os.str();
}

StreamChaosOutcome run_stream_chaos_once(const StreamChaosConfig& cfg) {
  StreamChaosOutcome out;
  const LogicalPlan plan = make_plan(cfg.plan_seed, cfg.plan_nodes, cfg.rows);
  out.plan = plan.describe();
  const dstream::StreamJobSpec spec = lower_streaming(plan, stream_opts(cfg));

  const Bytes want =
      dstream::canonical_stream_bytes(dstream::reference_streaming(spec));

  // Fault-free distributed run: catches lowering/runtime bugs independent of
  // recovery, and doubles as the bit-identical baseline for the faulted run.
  const RunResult clean = run_distributed(cfg, spec, {});
  if (!clean.done) {
    out.fail("liveness: fault-free run exceeded the horizon");
    return out;
  }
  const Bytes clean_bytes = dstream::canonical_stream_bytes(clean.result.rows());
  if (clean_bytes != want) {
    out.fail("fault-free distributed output differs from reference");
    return out;
  }

  // Kills land in (0, 3): the stream runs ~4 s, so every kill hits a live
  // window. Downtimes use the harness bounds (min 0.8 s), which keep each
  // outage comfortably above the runtime's heartbeat timeout.
  const std::vector<KillEvent> kills = make_kill_schedule(
      cfg.kill_seed, cfg.cluster_nodes, /*protect=*/0, cfg.kills, /*horizon=*/3.0);
  out.kills_scheduled = kills.size();
  const RunResult faulted = run_distributed(cfg, spec, kills);
  out.epochs_completed = faulted.stats.epochs_completed;
  out.recoveries = faulted.stats.recoveries;
  out.makespan = faulted.result.makespan;
  out.result_rows = faulted.result.committed.size();
  if (!faulted.done) {
    out.fail("liveness: faulted run exceeded the horizon");
    return out;
  }
  if (faulted.stats.epochs_completed == 0) {
    out.fail("progress: faulted run completed zero epochs");
    return out;
  }
  const Bytes faulted_bytes =
      dstream::canonical_stream_bytes(faulted.result.rows());
  if (faulted_bytes != want) {
    out.fail("faulted output differs from reference (exactly-once broken)");
  }
  if (faulted_bytes != clean_bytes) {
    out.fail("faulted output not bit-identical to the fault-free run");
  }
  return out;
}

}  // namespace hpbdc::chaos
