#pragma once
// Distributed dataflow runtime on the simulated cluster: a driver (hosted at
// rank cfg.driver) splits a stage DAG into per-partition tasks and schedules
// them onto executors on every cluster node, with
//   * DFS-block locality preference for input stages,
//   * shuffle movement delegated to a per-job ShuffleTransport
//     (transport.hpp): classic pull-from-registry, or the push-based flow
//     shuffle (flow.hpp), selected via RuntimeOptions at submit,
//   * failure detection by a subscribed sim::Membership service (its own,
//     or a JobSlotPool's shared one), bounded task retry,
//     lineage-based recomputation of shuffle outputs lost to a node death,
//     optional stage checkpointing to the DFS that truncates lineage, and
//     LATE-style straggler speculation (cluster::LatePolicy, in
//     src/cluster/speculation.hpp).
//
// The runtime is entirely event-driven on the single-threaded Simulator, so
// every run is deterministic: heartbeat jitter and straggler assignment
// derive sub-seeds from DistConfig::seed, network loss determinism comes from
// NetworkConfig::loss_seed, and node faults arrive through kill_node_at.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/speculation.hpp"
#include "common/rng.hpp"
#include "dist/job.hpp"
#include "dist/options.hpp"
#include "dist/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/membership.hpp"
#include "sim/simulator.hpp"

namespace hpbdc::dist {

struct DistConfig {
  std::size_t driver = 0;        // rank hosting the driver (never killed)
  std::size_t slots_per_node = 2;
  // Failure detection.
  double heartbeat_interval = 0.5;
  double heartbeat_timeout = 2.0;   // silence before an executor is declared dead
  double heartbeat_jitter = 0.05;   // uniform [0, jitter) added per beat
  double attempt_timeout = 120.0;   // re-queue attempts running longer than this
  std::size_t max_task_attempts = 4;
  // Cost model.
  double compute_bps = 250e6;       // task processing rate at node speed 1.0
  double disk_bandwidth_bps = 200e6;
  // Stragglers: a seeded random fraction of nodes runs at reduced speed.
  double straggler_fraction = 0.0;
  double straggler_speed = 0.25;
  // LATE-style speculation (policy shared with cluster::LatePolicy).
  bool speculate = false;
  /// Master seed: stragglers and heartbeat jitter derive sub-seeds from this
  /// single value.
  std::uint64_t seed = 1;
};

struct DistStats {
  std::uint64_t tasks_launched = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t task_retries = 0;        // re-launches after attempt failure
  std::uint64_t tasks_recomputed = 0;    // re-launches of previously-done tasks
  std::uint64_t speculative_launched = 0;
  std::uint64_t speculative_won = 0;
  std::uint64_t shuffle_bytes = 0;        // simulated bytes fetched (local + remote)
  std::uint64_t shuffle_bytes_local = 0;  // same-node serves: no wire traffic
  std::uint64_t shuffle_bytes_remote = 0; // crossed the fabric (the honest number)
  std::uint64_t fetch_failures = 0;
  std::uint64_t locality_hits = 0;       // input task placed on a block replica
  std::uint64_t locality_misses = 0;
  // Counts of the membership service, shared by a JobSlotPool's slots.
  std::uint64_t heartbeats_received = 0;
  std::uint64_t executors_declared_dead = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_restores = 0;  // blocks re-read from a checkpoint
  std::uint64_t sink_writes = 0;          // sink_file outputs persisted to the DFS
  // Invariant evidence for the chaos harness (src/chaos):
  std::uint64_t stale_events_ignored = 0;    // task events after job completion
  std::uint64_t max_failures_one_task = 0;   // high-water charged failures
};

class DistRuntime : private sim::Membership::Subscriber {
 public:
  using JobDoneFn = std::function<void(const JobResult&)>;

  /// dfs is optional: without it there is no input locality and stage
  /// checkpointing is silently disabled. Without `members` the runtime
  /// builds its own membership service from cfg's heartbeat_* fields;
  /// otherwise it subscribes to the given one, which must outlive it.
  DistRuntime(sim::Comm& comm, DistConfig cfg, sim::Dfs* dfs = nullptr,
              sim::Membership* members = nullptr);

  /// Snapshot the dist.* counters, the live-executor level and the push
  /// fabric's dist.flow.* counters into `reg` as gauges. Call after (or
  /// during) a run; exporting twice in a row changes nothing.
  void export_metrics(obs::MetricsRegistry& reg) const;
  /// Record per-stage and per-task spans with *simulated-time* timestamps;
  /// the session's write_chrome_json() renders them directly.
  void bind_trace(obs::TraceSession& session);

  /// Run one job to completion; `done` fires (in simulated time) with the
  /// result. One job at a time; submit again after completion. The two-arg
  /// form runs with default RuntimeOptions (pull transport — byte-identical
  /// to the pre-transport-redesign runtime).
  void submit(JobSpec job, JobDoneFn done);
  void submit(JobSpec job, const RuntimeOptions& opts, JobDoneFn done);

  /// Failure-injection hooks for tests/benches (driver node is immortal).
  /// They act on the membership service, so on a shared service the node
  /// dies for every subscriber.
  void kill_node_at(std::size_t node, sim::SimTime t) {
    members_->set_alive_at(node, false, t);
  }
  void recover_node_at(std::size_t node, sim::SimTime t) {
    members_->set_alive_at(node, true, t);
  }
  /// Change a node's compute speed factor at time t (straggler injection;
  /// affects attempts whose compute starts after t).
  void set_node_speed_at(std::size_t node, double speed, sim::SimTime t);
  /// Drain control (the fleet layer's graceful-shrink half): a draining
  /// executor receives NO new task attempts — scheduling and speculation
  /// skip it — while attempts already running there finish normally and its
  /// shuffle outputs stay fetchable. Lineage recomputation covers whatever
  /// a later power-off takes with it. Takes effect immediately; idempotent.
  void set_node_draining(std::size_t node, bool draining);
  /// Test hook (chaos harness): disable lineage rollback of lost map
  /// outputs, the intentionally seeded bug the harness must catch. Affected
  /// jobs spin on fetch failures until the hard attempt cap aborts them.
  void set_test_disable_lineage_recompute(bool disable) {
    test_no_lineage_ = disable;
  }

  DistStats stats() const;
  const DistConfig& config() const noexcept { return cfg_; }
  /// Options of the current (or most recent) job.
  const RuntimeOptions& options() const noexcept { return opts_; }
  /// The transport the current (or most recent) job runs on.
  const ShuffleTransport& transport() const noexcept { return *transport_; }
  /// Flow-fabric counters of the push transport (zeros until a push job ran).
  const flow::FlowStats& flow_stats() const noexcept { return push_->fabric().stats(); }
  /// Push-fabric unicast segments sent and not yet acked.
  std::size_t flow_segments_in_flight() const {
    return push_->fabric().segments_in_flight();
  }
  std::size_t live_executors() const { return members_->live(); }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  enum class TStatus { Pending, Running, Done };

  // Shuffle outputs live in the ShuffleTransport now (see transport.hpp for
  // the ownership contract); ExecState keeps only scheduler-visible state.
  struct ExecState {
    double speed = 1.0;
    bool draining = false;           // fleet shrink: no NEW attempts here
    std::size_t busy = 0;            // driver-side slot accounting
    sim::Disk disk;
    explicit ExecState(const DistConfig& cfg)
        : disk(cfg.disk_bandwidth_bps) {}
  };

  struct TaskState {
    TStatus status = TStatus::Pending;
    std::size_t attempts = 0;  // total launches, including benign requeues
    std::size_t failures = 0;  // only failures charged against max_task_attempts
    std::vector<std::uint64_t> live_attempts;
    std::size_t output_node = kNone;
    std::vector<std::uint64_t> out_sim_sizes;  // per child partition
    std::uint64_t total_out_sim = 0;
    bool ever_done = false;  // a re-launch after this is a lineage recompute
  };

  struct StageState {
    std::size_t done = 0;
    bool checkpointed = false;  // checkpoint durable in the DFS
    sim::SimTime start = -1;
    sim::SimTime end = -1;
  };

  struct Attempt {
    std::size_t stage = 0, task = 0, node = 0;
    sim::SimTime launched = 0;
    bool speculative = false;
    bool cancelled = false;
  };

  // ---- message plumbing ----------------------------------------------------
  enum MsgType : std::uint8_t {
    kLaunch = 1, kCancel, kTaskDone, kTaskFailed, kFetchFailed,
  };
  void on_exec_msg(std::size_t node, const Bytes& payload);
  void send_to_exec(std::size_t node, Bytes payload);
  void send_to_driver(std::size_t node, std::uint64_t body, Bytes payload);

  // ---- executor side (runs "at" a node, touching only its state) ----------
  void exec_start(std::uint64_t attempt_id);
  void exec_compute(std::uint64_t attempt_id,
                    std::shared_ptr<std::vector<std::vector<Bytes>>> inputs,
                    std::uint64_t bytes_in);
  bool attempt_dead(std::uint64_t attempt_id) const;

  // ---- driver side ---------------------------------------------------------
  void schedule();
  void launch(std::size_t stage, std::size_t task, std::size_t node, bool spec);
  void on_task_done(std::uint64_t attempt_id);
  // charge_budget: true when the failure is the task's own doing (an executor
  // reported it failed, or the attempt timed out). Requeues caused by executor
  // death or lost upstream map outputs are the cluster's fault and do not eat
  // into max_task_attempts — otherwise failure churn aborts healthy jobs.
  void on_attempt_failed(std::uint64_t attempt_id, bool charge_budget);
  void on_fetch_failed(std::uint64_t attempt_id, std::size_t pstage,
                       std::size_t ptask);
  void invalidate_outputs_on(std::size_t node);
  bool stage_retired(std::size_t s) const;
  bool stage_available(std::size_t s) const;
  void maybe_checkpoint(std::size_t s);
  void finish(bool ok);
  /// The driver may place work on a node it believes alive that really is.
  bool usable(std::size_t node) const {
    return members_->alive(node) && !members_->declared_dead(node);
  }

  // ---- membership events (sim::Membership::Subscriber) ---------------------
  void on_liveness(std::size_t node, bool alive) override;
  void on_declared_dead(std::size_t node) override;
  void on_rejoined(std::size_t node) override;
  void on_monitor_tick() override;  // the hung-attempt sweep
  void speculate();

  std::string ckpt_file(std::size_t stage) const;
  ShuffleTransport::Env make_transport_env();
  sim::Simulator& sim() { return comm_.simulator(); }
  void trace_span(const std::string& name, const std::string& cat,
                  sim::SimTime start, sim::SimTime end, std::uint32_t tid,
                  std::uint64_t items);

  sim::Comm& comm_;
  DistConfig cfg_;
  sim::Dfs* dfs_;
  int tag_exec_, tag_drv_;

  // Both transports exist for the runtime's lifetime (handler/tag layout
  // stays deterministic); transport_ points at the active one per job.
  std::unique_ptr<PullTransport> pull_;
  std::unique_ptr<PushTransport> push_;
  ShuffleTransport* transport_ = nullptr;
  RuntimeOptions opts_;

  std::unique_ptr<sim::Membership> own_members_;  // standalone runtimes only
  sim::Membership* members_ = nullptr;
  std::vector<ExecState> execs_;
  cluster::LatePolicy late_;

  // Active job state. epoch_ bumps per submit so that stale scheduled
  // continuations (DFS checkpoint callbacks) from a finished job
  // recognize themselves and stand down.
  bool active_ = false;
  std::uint64_t epoch_ = 0;
  JobSpec job_;
  JobDoneFn done_cb_;
  sim::SimTime submit_time_ = 0;
  std::vector<StageState> stages_;
  std::vector<std::vector<TaskState>> tasks_;  // [stage][task]
  std::map<std::uint64_t, Attempt> attempts_;
  std::uint64_t next_attempt_id_ = 1;
  std::map<std::size_t, std::vector<std::vector<Bytes>>> ckpt_data_;  // stage -> per-task blocks
  JobResult result_;
  std::size_t result_received_ = 0;

  DistStats stats_;
  obs::TraceSession* trace_ = nullptr;
  bool test_no_lineage_ = false;
};

/// Write the dist.* gauges DistRuntime and JobSlotPool export: the DistStats
/// counters plus dist.executors_live.
void export_metrics(obs::MetricsRegistry& reg, const DistStats& st,
                    std::size_t executors_live);

}  // namespace hpbdc::dist
