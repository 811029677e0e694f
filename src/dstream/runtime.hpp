#pragma once
// Distributed streaming runtime over the simulated cluster: the continuous
// counterpart of dist::DistRuntime. One StreamRuntime runs ONE streaming job
// at a time on a sim::Comm fabric (+ optional sim::Dfs for checkpoint
// durability), with the coordinator (JobManager) on a protected node and
// every other node hosting stage tasks.
//
// Data plane — push-based, credit-paced (the flow-shuffle idiom from
// src/dist/flow applied to a continuous stream): producers buffer events per
// hash-partitioned channel, seal segments of `segment_bytes`-derived size,
// and send them the moment credits allow; consumers return a credit only
// after PROCESSING a segment, so a slow operator starves its producers of
// credits and the stall cascades upstream until the sources pause — real,
// measurable backpressure (stats().backpressure_pauses, the F14 onset
// metric). Per-channel sequence numbers give FIFO delivery; a generation
// fence on every message drops cross-recovery strays.
//
// Control plane — aligned-barrier (Chandy–Lamport with channel blocking)
// epochs:
//
//   coordinator --trigger(n)--> sources: seal buffers, enqueue barrier(n)
//       carrying the source watermark BEHIND all buffered data
//   operator: first barrier(n) on a channel BLOCKS it (segments buffer,
//       credits withheld); when barrier(n) has arrived on every input:
//         W_n := min over inputs of the barrier watermarks
//         fire windows with end <= W_n (results are epoch-n data,
//         emitted BEFORE the forwarded barrier)
//         snapshot operator state -> ack(coordinator), forward barrier(n, W_n)
//         unblock channels, replay buffered segments
//   coordinator: all acks in -> checkpoint state+offsets to the Dfs; on
//       durable write, epoch n COMPLETES: the sink's buffered epochs <= n
//       commit to the job output exactly once, then epoch n+1 triggers.
//
// Exactly-once recovery: the runtime's sim::Membership heartbeat service
// (built from StreamConfig's heartbeat_* fields; see sim/membership.hpp)
// declares a silent node dead; the coordinator then bumps the generation
// fence, reassigns its tasks to live nodes, restores EVERY task
// from the last completed checkpoint (sources rewind to recorded offsets),
// and discards the sink's uncommitted epoch buffers; re-fired windows land
// in re-buffered epochs, so the committed multiset is bit-identical to a
// fault-free run — the invariant the streaming chaos oracle
// (src/chaos/streaming_oracle) enforces.

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/stream.hpp"
#include "dist/options.hpp"
#include "dstream/streaming.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/membership.hpp"

namespace hpbdc::dstream {

struct StreamConfig {
  std::size_t coordinator = 0;     // JobManager + sink host; never killed
  double heartbeat_interval = 0.15;
  double heartbeat_timeout = 0.6;  // silence before a worker is declared dead
  double event_cost = 4e-6;        // operator compute per event, seconds
  std::size_t max_buffered_segments = 8;  // per-channel cap before sources pause
  /// Seeded-bug hook for the streaming chaos harness (mirrors
  /// DistConfig-style fault seeding): a recovery restores each source one
  /// event PAST its recorded offset, silently losing an event — the exact
  /// class of off-by-one the differential oracle exists to catch.
  bool buggy_restore = false;
};

struct StreamStats {
  std::uint64_t events_emitted = 0;       // source rows put on channels
  std::uint64_t events_processed = 0;     // rows applied at operators/sink
  std::uint64_t events_late_dropped = 0;  // source-side watermark drops
  std::uint64_t segments_sent = 0;
  std::uint64_t segment_acks = 0;
  std::uint64_t credit_stalls = 0;        // channel pump blocked on credits
  std::uint64_t backpressure_pauses = 0;  // source generation pauses
  std::uint64_t barriers_forwarded = 0;
  std::uint64_t epochs_triggered = 0;
  std::uint64_t epochs_completed = 0;
  std::uint64_t epochs_aborted = 0;       // rewound by recoveries
  std::uint64_t checkpoints_written = 0;
  std::uint64_t ckpt_write_failures = 0;
  std::uint64_t windows_fired = 0;
  std::uint64_t rows_committed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t restores_sent = 0;
  std::uint64_t stale_dropped = 0;        // generation-fenced messages
  std::uint64_t heartbeats = 0;           // beats the coordinator received
  // Sim-time lag of the sink watermark behind the clock at the most recent
  // epoch completion, in whole milliseconds (0 until a finite watermark).
  std::int64_t watermark_lag_ms = 0;
};

/// One exactly-once committed output row, stamped with its commit time (per-
/// window latency for F14 = committed_at − row.time, since aggregate rows
/// are timed at their window end).
struct CommittedRow {
  TimedRow row;
  double committed_at = 0;
};

struct StreamResult {
  bool ok = false;
  std::string error;
  double makespan = 0;
  std::vector<CommittedRow> committed;
  std::vector<TimedRow> rows() const {
    std::vector<TimedRow> out;
    out.reserve(committed.size());
    for (const CommittedRow& c : committed) out.push_back(c.row);
    return out;
  }
};

class StreamRuntime : private sim::Membership::Subscriber {
 public:
  using DoneFn = std::function<void(const StreamResult&)>;
  /// Fires at every epoch completion (serve charges per-epoch DRF usage here).
  using EpochFn = std::function<void(std::uint64_t epoch, double sink_watermark)>;

  StreamRuntime(sim::Comm& comm, StreamConfig cfg, sim::Dfs* dfs = nullptr);

  /// Start a streaming job; throws std::logic_error while one is running.
  /// `opts` supplies the data-plane knobs: kPush runs the credit-paced flow
  /// channels as configured; kPull degrades to effectively unbounded credits
  /// (segmented, unpaced) — streaming is inherently push-shaped, so serve
  /// submits streaming jobs with the push transport selected.
  void submit(StreamJobSpec spec, const dist::RuntimeOptions& opts, DoneFn done,
              EpochFn on_epoch = nullptr);

  bool busy() const noexcept { return running_; }

  /// Ground-truth fault injection (same contract as DistRuntime): the
  /// coordinator only learns about a kill through heartbeat silence.
  void kill_node_at(std::size_t node, sim::SimTime t) {
    members_.set_alive_at(node, false, t);
  }
  void recover_node_at(std::size_t node, sim::SimTime t) {
    members_.set_alive_at(node, true, t);
  }

  /// Snapshot the current job's stats into `reg` as dstream.* gauges:
  /// watermark_lag_ms, epochs_completed, events_late_dropped,
  /// events_emitted, rows_committed, recoveries, backpressure_pauses.
  /// Exporting twice in a row changes nothing.
  void export_metrics(obs::MetricsRegistry& reg) const;

  /// Epoch + recovery spans on the SIMULATED clock (ts_us = sim seconds
  /// * 1e6), mirroring dist::DistRuntime's trace convention.
  void set_trace(obs::TraceSession* trace) noexcept { trace_ = trace; }

  const StreamStats& stats() const noexcept { return stats_; }
  const StreamConfig& config() const noexcept { return cfg_; }
  std::uint64_t epochs_completed() const noexcept { return stats_.epochs_completed; }
  double sink_watermark() const noexcept { return sink_wm_; }

 private:
  // ---- operator instantiations over the shared dataflow::stream logic ----
  struct RowKeyFn {
    std::uint64_t operator()(const plan::Row& r) const noexcept { return r.first; }
  };
  struct RowCombineFn {
    void operator()(std::uint64_t& a, const plan::Row& r) const noexcept {
      a = plan::reduce_combine(a, r.second);
    }
  };
  struct RowIdentityFn {
    plan::Row operator()(const plan::Row& r) const noexcept { return r; }
  };
  struct RowCountFn {
    void operator()(std::uint64_t& a, const plan::Row&) const noexcept { ++a; }
  };
  struct TimedRowKeyFn {
    std::uint64_t operator()(const TimedRow& t) const noexcept { return t.row.first; }
  };
  using SumAggregator =
      dataflow::stream::WindowedAggregator<plan::Row, std::uint64_t, std::uint64_t,
                                           RowKeyFn, RowCombineFn>;
  using DistinctAggregator =
      dataflow::stream::WindowedAggregator<plan::Row, plan::Row, std::uint64_t,
                                           RowIdentityFn, RowCountFn>;
  using RowWindowJoin = dataflow::stream::WindowJoin<TimedRow, TimedRow, std::uint64_t,
                                                     TimedRowKeyFn, TimedRowKeyFn>;

  struct Edge {
    std::size_t src_stage = 0;
    std::size_t dst_stage = 0;
    std::size_t side = 0;      // parent index at dst (join: 0 = left, 1 = right)
    std::size_t ch_base = 0;   // first channel index of this edge's grid
  };

  /// One in-flight channel item: a sealed data segment or a barrier.
  struct QItem {
    bool barrier = false;
    std::uint64_t epoch = 0;
    double wm = 0;
    std::vector<TimedRow> events;
  };

  /// One data channel. Its sealed items pace through the dist::CreditWindow
  /// that the push fabric's channels share; a barrier is the credit-free item.
  struct Channel {
    std::size_t edge = 0;
    std::size_t src_gid = 0, dst_gid = 0;
    // Sender side.
    std::vector<TimedRow> open;         // accumulating segment
    dist::CreditWindow<QItem> window;   // sealed, awaiting credits
    std::uint64_t next_seq = 0;
    // Receiver side.
    std::uint64_t expect_seq = 0;
    std::map<std::uint64_t, QItem> stash;  // defensive reorder buffer
    bool blocked = false;                  // barrier-aligned, epoch boundary
    std::uint64_t barrier_epoch = 0;
    double barrier_wm = 0;
    std::deque<QItem> backlog;             // segments held while blocked
  };

  struct Task {
    std::size_t stage = 0, local = 0, gid = 0;
    std::size_t node = 0;
    double busy_until = 0;    // serialized operator compute timeline
    std::size_t aligned = 0;  // input channels blocked on the current barrier
    std::vector<std::size_t> in_channels;
    // Source state.
    std::vector<SourceItem> items;
    std::size_t offset = 0;
    double src_wm = -std::numeric_limits<double>::infinity();
    bool paused = false;
    // Operator state (at most one non-null, by stage kind).
    std::unique_ptr<SumAggregator> agg;
    std::unique_ptr<DistinctAggregator> dis;
    std::unique_ptr<RowWindowJoin> join;
    // Sink state.
    std::vector<TimedRow> epoch_buf;
    std::map<std::uint64_t, std::vector<TimedRow>> pending;  // uncommitted epochs
  };

  sim::Simulator& sim() noexcept { return comm_.simulator(); }
  std::size_t stage_ntasks(std::size_t stage) const;
  std::size_t first_gid(std::size_t stage) const { return stage_first_gid_[stage]; }
  std::size_t ch_index(const Edge& e, std::size_t src_local,
                       std::size_t dst_local) const;
  bool fence_ok(std::uint64_t fence) const noexcept { return fence == fence_; }

  // Data plane.
  void emit(Task& t, const TimedRow& ev);
  void seal(Channel& ch);
  void pump(std::size_t ch_idx);
  void send_item(std::size_t ch_idx, QItem item);
  void on_data(std::size_t rank, const Bytes& payload);
  void deliver(std::size_t ch_idx, QItem item);
  void enqueue_work(std::size_t ch_idx, QItem item);
  void service(std::size_t ch_idx, QItem& item);
  void apply_segment(Task& t, std::size_t side, const std::vector<TimedRow>& events);
  bool backpressured(const Task& t) const;
  void maybe_resume_source(std::size_t src_gid);
  void source_pump(std::size_t gid);
  void enqueue_barrier(Task& t, std::uint64_t epoch, double wm);

  // Barriers, snapshots, epochs.
  void complete_barrier(Task& t);
  Bytes snapshot(const Task& t) const;
  void restore_task(Task& t, const Bytes& state);
  void trigger_epoch(std::uint64_t epoch);
  void on_task_ack(std::uint64_t epoch, std::size_t gid, double wm, Bytes state);
  void complete_epoch(std::uint64_t epoch);
  void schedule_next_trigger();
  void finish_job(bool ok, std::string error);

  // Failure detection and recovery.
  void on_ctrl(std::size_t rank, const Bytes& payload);
  void on_declared_dead(std::size_t node) override;
  void start_recovery();
  void read_checkpoint(std::uint64_t fence);
  void send_restores();
  void on_restore_ack(std::size_t gid);

  sim::Comm& comm_;
  StreamConfig cfg_;
  sim::Dfs* dfs_;
  sim::Membership members_;
  int tag_data_ = 0, tag_ctrl_ = 0;

  // Job state (valid while running_).
  bool running_ = false;
  StreamJobSpec spec_;
  dist::RuntimeOptions opts_;
  DoneFn done_;
  EpochFn on_epoch_;
  double start_ = 0;
  std::size_t events_per_segment_ = 64;
  std::size_t init_credits_ = 4;
  std::uint64_t fence_ = 0;  // bumped per submit AND per recovery
  std::uint64_t submits_ = 0;  // jobs submitted; names their checkpoints
  std::uint64_t beats_at_submit_ = 0;  // members_.stats().heartbeats then
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<Channel> channels_;
  std::vector<std::size_t> stage_first_gid_;
  std::vector<std::vector<std::size_t>> stage_out_edges_;
  std::size_t sink_gid_ = 0;

  // Coordinator state.
  bool recovering_ = false;
  std::uint64_t epoch_ = 0;          // last triggered epoch
  std::uint64_t last_completed_ = 0; // 0 = the implicit initial checkpoint
  double epoch_t0_ = 0;              // trigger time of the current epoch
  double sink_wm_ = -std::numeric_limits<double>::infinity();
  double sink_wm_pending_ = -std::numeric_limits<double>::infinity();
  std::map<std::size_t, Bytes> acks_;        // gid -> state, current epoch
  std::map<std::size_t, Bytes> ckpt_state_;  // last COMPLETED checkpoint
  std::string ckpt_file_;
  std::size_t restore_acks_ = 0;
  std::vector<CommittedRow> committed_;
  std::size_t reassign_rr_ = 0;

  StreamStats stats_;
  obs::TraceSession* trace_ = nullptr;
};

}  // namespace hpbdc::dstream
