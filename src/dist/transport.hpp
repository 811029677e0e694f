#pragma once
// ShuffleTransport: the explicit seam between the dist runtime's scheduler
// and the mechanism that moves map output to its consumers. Before this
// redesign the contract was implicit — runtime.cpp wrote BlockSets straight
// into ExecState::outputs and hand-rolled fetch RPCs inside exec_start() —
// which made the shuffle strategy unswappable. The two implementations:
//
//   PullTransport  classic registry: publish() records the BlockSet at the
//                  producer, collect() fetches every parent block with a
//                  source-disk read + network transfer once the consumer
//                  starts. Event-for-event identical to the pre-redesign
//                  runtime — replay specs and seeded runs stay bit-exact.
//   PushTransport  flow shuffle (src/dist/flow): publish() additionally
//                  streams the blocks to the consumers' nodes as credit-
//                  paced segments, and collect() serves locally-buffered
//                  streams immediately, waits (bounded) on in-flight ones,
//                  and falls back to origin fetches for the rest.
//
// ## Ownership & lifetime contract
//
//   - The transport OWNS every published BlockSet. publish() transfers the
//     producing attempt's output in; the runtime reads it back only through
//     find(), whose pointer stays valid until the block is dropped by
//     node_killed / node_recovered (that node's memory is gone) or the next
//     begin_job (previous job's epoch is fenced off).
//   - The driver's bookkeeping (TaskState::output_node, sizes) remains the
//     runtime's; the transport never mutates scheduler state. Everything it
//     needs from the driver arrives through Env's read-only hooks, which
//     must outlive the transport's use of them (in practice: the runtime
//     owns both and destroys the transport first).
//   - collect() must deliver EXACTLY ONE terminal callback per request:
//     on_ready(bytes) once every parent block is materialized in `inputs`,
//     or on_missing(ps, pt) on the first unrecoverable block — after which
//     the transport abandons the request's remaining work. Callbacks fire
//     in simulated time, possibly synchronously inside collect() itself
//     (empty parent plan, or a sync-detected missing block).
//   - Abandonment: the transport checks Env::attempt_dead before touching a
//     request's state from a scheduled event; a request whose attempt died
//     simply evaporates (its shared input buffer keeps stragglers safe).
//   - begin_job() is the epoch fence. All stores, streams, and in-flight
//     credit state from the previous job are invalid after it; transports
//     drop them rather than let a stale event cross jobs.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/serialize.hpp"
#include "dist/flow.hpp"
#include "dist/job.hpp"
#include "dist/options.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"

namespace hpbdc::dist {

/// One task attempt's shuffle output: real block content per child
/// partition plus the simulated sizes the cost model moves.
struct BlockSet {
  std::vector<Bytes> blocks;
  std::vector<std::uint64_t> sim_sizes;
  std::uint64_t total_sim = 0;
};

class ShuffleTransport {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Read-only view of runtime state, plus accounting sinks. The single
  /// simulated process makes driver state visible "executor-side" exactly as
  /// the pre-redesign code read it; the hooks document which slices the
  /// shuffle path actually depends on.
  struct Env {
    sim::Comm* comm = nullptr;
    std::size_t driver = 0;
    std::function<bool(std::size_t node)> node_alive;
    std::function<sim::Disk&(std::size_t node)> disk;
    std::function<bool(std::uint64_t attempt_id)> attempt_dead;
    struct ParentOutput {
      bool done = false;
      std::size_t node = kNone;  // recorded holder (kNone while pending)
      const std::vector<std::uint64_t>* sim_sizes = nullptr;  // per child
    };
    std::function<ParentOutput(std::size_t stage, std::size_t task)> parent_output;
    std::function<bool(std::size_t stage)> stage_checkpointed;
    /// Closest live replica of stage's checkpoint to `near`, kNone if the
    /// checkpoint is absent/unreadable.
    std::function<std::size_t(std::size_t stage, std::size_t near)> ckpt_replica;
    std::function<Bytes(std::size_t stage, std::size_t task, std::size_t child)>
        ckpt_block;
    /// Stats sinks (DistStats live runtime-side).
    std::function<void(std::uint64_t bytes, bool local, bool from_ckpt)> count_fetch;
    std::function<void()> count_fetch_failure;
  };

  /// One consumer attempt's input-gathering request (see contract above).
  struct CollectRequest {
    std::uint64_t attempt_id = 0;
    std::size_t node = 0;   // consumer's executor
    std::size_t stage = 0;  // consumer stage (parents come from the JobSpec)
    std::size_t task = 0;
    /// [parent index][parent task] — sized by the transport, shared so that
    /// straggling deliveries after abandonment write into harmless memory.
    std::shared_ptr<std::vector<std::vector<Bytes>>> inputs;
    std::function<void(std::uint64_t shuffle_bytes)> on_ready;
    std::function<void(std::size_t pstage, std::size_t ptask)> on_missing;
  };

  explicit ShuffleTransport(Env env);
  virtual ~ShuffleTransport() = default;

  /// Fence a new job epoch; `job` must outlive it. Drops all prior state.
  virtual void begin_job(const JobSpec* job, std::uint64_t epoch,
                         const RuntimeOptions& opts);

  /// Take ownership of an attempt's output: record it for find()/collect(),
  /// spill it to the producer's local disk, then fire `announced` (the
  /// runtime's kTaskDone report, which re-checks attempt liveness itself).
  virtual void publish(std::uint64_t attempt_id, std::size_t node, std::size_t stage,
                       std::size_t task, BlockSet bs, std::function<void()> announced);

  /// Gather every parent block of req's task into req.inputs.
  virtual void collect(CollectRequest req) = 0;

  /// Published output of (stage, task) at `node`, or nullptr. Pointer valid
  /// until that node's store is dropped (see lifetime contract).
  const BlockSet* find(std::size_t node, std::size_t stage, std::size_t task) const;

  /// Scheduling hint: where this task's input will (mostly) be resident.
  /// kNone = no preference — the pull transport always says kNone, keeping
  /// the scheduler's behavior byte-identical.
  virtual std::size_t preferred_node(std::size_t stage, std::size_t task) const;

  virtual void node_killed(std::size_t node);
  virtual void node_recovered(std::size_t node);

 protected:
  struct Ctx {
    CollectRequest req;
    std::size_t pending = 0;
    bool failed = false;
    std::uint64_t bytes = 0;  // precomputed shuffle volume for on_ready
  };

  struct Resolved {
    std::size_t src = kNone;
    bool ckpt = false;
  };

  static std::uint64_t out_key(std::size_t stage, std::size_t task) {
    return (static_cast<std::uint64_t>(stage) << 32) | task;
  }

  /// Where block (ps, pt) can be fetched from right now: the recorded
  /// holder's registry copy, else a live checkpoint replica, else nowhere.
  Resolved resolve_origin(std::size_t ps, std::size_t pt, std::size_t near) const;

  /// One origin fetch: source-disk read, network transfer, then copy the
  /// real bytes out of the source store (or checkpoint) at delivery time.
  /// Decrements ctx->pending; fires on_ready at zero; routes a source lost
  /// mid-flight to fail_collect.
  void fetch_one(const std::shared_ptr<Ctx>& ctx, std::size_t src,
                 std::uint64_t bytes, bool from_ckpt, std::size_t pi, std::size_t ps,
                 std::size_t pt);

  /// First unrecoverable block wins; the rest of the request is abandoned.
  void fail_collect(const std::shared_ptr<Ctx>& ctx, std::size_t ps, std::size_t pt);

  Env env_;
  const JobSpec* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::vector<std::map<std::uint64_t, BlockSet>> store_;  // [node][stage<<32|task]
};

/// Classic pull-from-registry shuffle (the pre-redesign behavior, verbatim).
class PullTransport final : public ShuffleTransport {
 public:
  explicit PullTransport(Env env) : ShuffleTransport(std::move(env)) {}
  void collect(CollectRequest req) override;
};

/// Push-flow shuffle over FlowFabric (see flow.hpp for the fabric's own
/// invariants). Publish streams blocks toward a deterministic per-partition
/// target node; the scheduler is nudged to place consumers there.
class PushTransport final : public ShuffleTransport {
 public:
  explicit PushTransport(Env env);
  void begin_job(const JobSpec* job, std::uint64_t epoch,
                 const RuntimeOptions& opts) override;
  void publish(std::uint64_t attempt_id, std::size_t node, std::size_t stage,
               std::size_t task, BlockSet bs, std::function<void()> announced) override;
  void collect(CollectRequest req) override;
  std::size_t preferred_node(std::size_t stage, std::size_t task) const override;
  void node_killed(std::size_t node) override;
  void node_recovered(std::size_t node) override;

  const flow::FlowFabric& fabric() const noexcept { return fabric_; }
  /// Deterministic home of consumer partition `t`: non-driver nodes round-
  /// robin. Producers stream there and the scheduler prefers to place the
  /// consumer there, so most reads are local buffer hits.
  std::size_t partition_target(std::size_t t) const;

 private:
  void start_streams(std::size_t node, std::size_t stage, std::size_t task);
  flow::FlowFabric fabric_;
  std::vector<std::size_t> targets_;  // non-driver ranks, in order
};

}  // namespace hpbdc::dist
