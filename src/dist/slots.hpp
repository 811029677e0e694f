#pragma once
// Concurrent job slots for the distributed runtime. A DistRuntime runs ONE
// job at a time by design (its scheduling state is per-job); JobSlotPool
// turns the same simulated cluster into a K-way job executor by hosting K
// independent DistRuntime instances over one Comm. Every slot sees the same
// node ids and shares the simulated network fabric (NIC/link contention is
// real across jobs) and the optional DFS; per-slot task protocols use
// distinct Comm tags, so messages never cross-deliver. Cluster membership
// is the pool's, not the slots': ONE sim::Membership heartbeat service per
// pool, to which every slot subscribes. A node kill takes the executor down
// for all in-flight jobs at once, exactly like a machine death under a
// multi-job service; the death is declared once and fanned out to every
// slot, and each slot keeps only its own hung-attempt sweep.
//
// This is the execution backend of the serve layer (src/serve): saturation
// (`busy() == slots()`) is the backpressure signal the service propagates
// upstream, and per-job completion callbacks free the slot before they fire
// so a scheduler can dispatch the next queued job from inside the callback.
//
// The pool is ELASTIC: the fleet layer (src/fleet) grows it with add_slot()
// and shrinks it with retire_idle_slot(). Slots are never erased or
// reordered — submit callbacks capture slot indices — so a retired slot is
// a tombstone that later add_slot() calls resurrect before constructing
// anything new. Tombstones stay subscribed, and a genuinely NEW slot reads
// liveness from the shared service, so it starts with every dead node dead;
// the pool applies the current draining state of every node to it.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dist/runtime.hpp"

namespace hpbdc::dist {

class JobSlotPool {
 public:
  /// The membership service takes its heartbeat settings and seed from cfg;
  /// slot i's runtime derives its seed from cfg.seed and i, so the whole
  /// pool is pinned by one seed.
  JobSlotPool(sim::Comm& comm, DistConfig cfg, std::size_t slots,
              sim::Dfs* dfs = nullptr);

  /// Slots in rotation (excludes retired tombstones).
  std::size_t slots() const noexcept { return active_; }
  std::size_t busy() const noexcept { return busy_; }
  bool saturated() const noexcept { return busy_ == active_; }

  /// Grow the pool by one slot and return its index. Resurrects the most
  /// recently retired tombstone when one exists (its runtime's fault state
  /// is already current — fan-out never stopped); otherwise constructs a
  /// new runtime subscribed to the pool's membership service.
  std::size_t add_slot();

  /// Shrink the pool by one slot: tombstone the highest-indexed IDLE slot.
  /// Returns false when every slot is busy or only one active slot remains
  /// (the pool never shrinks to zero). Callers drain first — a retired slot
  /// holds no job, so nothing is lost.
  bool retire_idle_slot();

  /// Run `job` on a free slot; throws std::logic_error when saturated (check
  /// saturated() first — the serve layer queues instead of submitting). The
  /// slot is freed BEFORE `done` runs, so the callback may submit again.
  /// The two-arg form uses default RuntimeOptions (pull transport); the
  /// three-arg form carries per-job transport/flow knobs down to the slot's
  /// DistRuntime.
  void submit(JobSpec job, DistRuntime::JobDoneFn done);
  void submit(JobSpec job, const RuntimeOptions& opts, DistRuntime::JobDoneFn done);

  /// Take a slot out of rotation without running a batch job on it — the
  /// serve layer parks a long-lived STREAMING job here so admission control
  /// and the saturation/backpressure signals see one executor slot held for
  /// the job's whole lifetime (epochs, not a single run). Returns the slot
  /// index; throws std::logic_error when saturated. release_slot() returns
  /// it to rotation (idempotence is NOT provided; release exactly once).
  std::size_t reserve_slot();
  void release_slot(std::size_t i);

  /// Fault injection through the membership service, which fans each kill
  /// and recovery out to the DFS and every slot when it fires.
  void kill_node_at(std::size_t node, sim::SimTime t) {
    membership_.set_alive_at(node, false, t);
  }
  void recover_node_at(std::size_t node, sim::SimTime t) {
    membership_.set_alive_at(node, true, t);
  }

  /// Drain control, fanned out to every slot immediately: a draining node
  /// receives no NEW task attempts in any slot while running attempts
  /// finish (see DistRuntime::set_node_draining). The fleet layer's
  /// graceful half of removing a machine.
  void set_node_draining(std::size_t node, bool draining);

  /// Snapshot the pool into `reg` under the names a single DistRuntime
  /// exports: aggregate_stats(), aggregate_flow_stats(), live_executors()
  /// and the flow segments in flight summed over slots. Every slot ever
  /// added is covered; exporting twice in a row changes nothing.
  void export_metrics(obs::MetricsRegistry& reg) const;

  /// Element-wise sum of every slot's DistStats (tombstones included —
  /// their history happened); the membership counts are the service's own,
  /// counted once.
  DistStats aggregate_stats() const;
  /// Element-wise sum of every slot's push-fabric FlowStats.
  flow::FlowStats aggregate_flow_stats() const;

  std::size_t live_executors() const { return membership_.live(); }
  const DistConfig& config() const noexcept { return cfg_; }
  DistRuntime& slot_runtime(std::size_t i) { return slots_.at(i)->rt; }
  sim::Simulator& simulator() noexcept { return comm_.simulator(); }
  std::size_t cluster_nodes() const noexcept { return comm_.nranks(); }

 private:
  struct Slot {
    DistRuntime rt;
    bool busy = false;
    bool retired = false;
    Slot(sim::Comm& comm, const DistConfig& cfg, sim::Dfs* dfs,
         sim::Membership& members)
        : rt(comm, cfg, dfs, &members) {}
  };

  Slot& make_slot(std::size_t index);

  sim::Comm& comm_;
  DistConfig cfg_;
  sim::Dfs* dfs_;
  sim::Membership membership_;  // before slots_: they subscribe to it
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::size_t> retired_;  // tombstone indices, LIFO
  std::size_t active_ = 0;
  std::size_t busy_ = 0;
  std::vector<bool> draining_;  // per node: what a brand new slot starts from
};

}  // namespace hpbdc::dist
