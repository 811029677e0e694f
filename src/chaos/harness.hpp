#pragma once
// The chaos harness proper: ties a random logical plan (plan_gen) to a
// random fault schedule (sim::FaultPlan) on a simulated cluster, runs the
// dist runtime under fire, and checks a differential oracle against the
// fault-free shared-memory execution. Every run also exercises the plan
// optimizer (plan/optimizer.hpp): the UNOPTIMIZED plan on the shared-memory
// engine is the trusted reference, and the OPTIMIZED plan executes on every
// backend — locally fault-free (any mismatch is an unsound rewrite), on the
// vectorized columnar backend (plan::lower_columnar; a mismatch is a
// columnar kernel bug), and on the dist runtime under faults (a mismatch is
// a rewrite or recovery bug). With cost_based set, the plan under test is
// plan::cost_optimize's output instead, so the stats/cost layer's physical
// hints (build side, skew salting, filter reorder) face the same oracles.
// The checks, in order:
//   * liveness — the job completes within a generous simulated horizon,
//   * success  — the survivable fault schedule never aborts the job,
//   * equality — the result row multiset is bit-for-bit the reference's,
//   * budget   — no task consumed more than max_task_attempts charged
//                failures,
//   * quiescence — tasks_launched/completed freeze at job completion (late
//                events only move the stale_events_ignored counter),
//   * conservation — on the reference run, map records_in == records_out,
//                filters never grow, shuffles never move more records than
//                entered them.
// On violation the campaign kit (chaos/kit.hpp) shrinks the plan to its
// smallest failing node count, then delta-debugs the fault-event mask, and
// emits a one-line `pseed=` replay spec that chaos_test and chaos_demo accept
// for exact reproduction.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/kit.hpp"
#include "chaos/plan_gen.hpp"
#include "dist/runtime.hpp"
#include "plan/optimizer.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace hpbdc::chaos {

/// Everything one chaos run derives from; (plan_seed, fault_seed, sizes,
/// fault_mask) is the whole replay state — see batch_kit.
struct ChaosConfig {
  std::uint64_t plan_seed = 1;
  std::uint64_t fault_seed = 1;
  std::size_t plan_nodes = 5;
  std::uint64_t rows = 256;       // rows per source node
  std::size_t ntasks = 4;         // tasks per dist stage
  std::size_t cluster_nodes = 6;  // node 0 hosts the driver
  std::uint64_t fault_mask = ~std::uint64_t{0};  // bit i arms fault event i
  double horizon = 600.0;  // liveness watchdog (simulated seconds)
  /// Seeded-bug hook: disable lineage recompute in the runtime so the
  /// harness has a known-broken target to catch and shrink.
  bool inject_lineage_bug = false;
  /// Shuffle transport for the dist side. Push runs additionally lower
  /// eligible joins as broadcast (plan::LowerDistOptions) so kills land on
  /// nodes holding in-flight flow segments, unicast and multicast both.
  dist::TransportKind transport = dist::TransportKind::kPull;
  /// Store stage checkpoints erasure coded (RS(3,2), background repair on)
  /// and extend the fault schedule with shard-loss-above-m and repair-race
  /// events. Adds the EC placement oracle: no two live shards of a stripe
  /// may ever share a node.
  bool ec_checkpoints = false;
  /// Seeded-bug hook: collapse EC shard placement onto a single node
  /// (Dfs::set_test_collapse_ec_placement), the known-broken target the
  /// ec= replay round-trip catches and shrinks. Implies ec_checkpoints
  /// semantics only when ec_checkpoints is also set.
  bool inject_ec_placement_bug = false;
  /// Run plan::cost_optimize instead of plan::optimize as the plan under
  /// test: its stats-driven physical hints (join build side, skew-salt
  /// fanout, selectivity-ordered filters) must be invisible to every
  /// backend's result multiset.
  bool cost_based = false;
};

struct FaultGenOptions {
  std::size_t nodes = 6;
  std::size_t protect = 0;  // never killed/slowed (the driver)
  double horizon = 5.0;     // events land in (0, horizon)
  std::size_t max_stragglers = 2;
  std::size_t max_dfs_losses = 2;
  /// Kill the current leader instead of a fixed node (Raft harness).
  bool target_leader = false;
  /// EC fault classes; both default 0 so legacy plans (and their replay
  /// masks) stay byte-identical — the generator draws for these AFTER every
  /// pre-existing draw.
  std::size_t max_shard_losses = 0;  // dfs_shard_loss_above_m events
  std::size_t max_repair_kicks = 0;  // dfs_repair_race events
};

/// Seed-deterministic fault schedule. Survivability guarantees baked into
/// the generator (the oracle depends on them): at most one node down at a
/// time, every kill paired with a bounded-downtime recovery, loss bursts
/// bounded in rate and duration, delay bursts below the failure-detector
/// timeout, and DFS losses never dropping a block's last replica (enforced
/// at fire time). At most 64 events so the shrink mask covers them all.
sim::FaultPlan make_fault_plan(std::uint64_t seed, const FaultGenOptions& opt);

/// One executor kill with its paired recovery, as plain data.
struct KillEvent {
  std::size_t node = 0;
  double kill_time = 0;
  double recover_time = 0;
};

/// Seed-deterministic executor-kill schedule for service-level campaigns
/// (src/serve): exactly `kills` kill/recover pairs in strictly sequential
/// windows (at most one node down at any time), never touching `protect`,
/// spread over (0, horizon). Same survivability contract and downtimes
/// (0.8–3 s) as the kill pairs of make_fault_plan, but returned as data so
/// callers driving a dist::JobSlotPool — where a kill must fan out across
/// every slot — can apply it through kill_node_at/recover_node_at.
std::vector<KillEvent> make_kill_schedule(std::uint64_t seed, std::size_t nodes,
                                          std::size_t protect, std::size_t kills,
                                          double horizon);

/// The simulated cluster every campaign runs on: `nodes` machines on a star
/// fabric (node 0 hosts the driver) with a Dfs, which with `ec` stores files
/// RS(3, 2) with throttled background repair.
struct SimCluster {
  SimCluster(std::size_t nodes, std::uint64_t loss_seed, bool ec);
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
};

/// The dist runtime knobs the batch and serve campaigns share: driver on
/// node 0, a 0.5 s failure detector, an 8-failure task budget, speculation.
dist::DistConfig campaign_dist_config(std::uint64_t seed);

struct ChaosOutcome : Outcome {
  std::string plan;       // LogicalPlan::describe() of the raw plan
  std::string optimized;  // describe() of the optimized plan actually run
  plan::OptimizerStats opt_stats;  // per-rule application counts
  std::size_t fault_events = 0;    // schedule size before masking
  std::array<std::uint64_t, sim::kFaultKindCount> fired{};
  dist::DistStats dist_stats;
  std::size_t result_rows = 0;
  double makespan = 0;
};

/// One full differential run. `pool` executes the reference side.
ChaosOutcome run_chaos_once(const ChaosConfig& cfg, Executor& pool);

/// Four-line summary: plan, optimized plan, violation, dist stats.
std::string describe(const ChaosOutcome& out);

/// The batch campaign's field table and shrink dimensions. Specs read
/// "pseed=3,fseed=9,nodes=5,rows=256,tasks=4,cluster=6,mask=0x1f,bug=0";
/// ",tp=1" / ",ec=1" / ",ecbug=1" / ",cb=1" appear only for non-default
/// configs (push transport, EC checkpoints, planted EC placement bug,
/// cost-based plan), so archived specs stay byte-identical. Shrinking finds
/// the smallest failing plan-node count (plans are prefix-stable), then
/// clears fault-mask bits to a fixpoint. The check bounds nodes*rows by
/// kMaxRows.
const CampaignKit<ChaosConfig>& batch_kit();

}  // namespace hpbdc::chaos
