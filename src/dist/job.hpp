#pragma once
// Logical job model for the distributed dataflow runtime (src/dist): a DAG
// of stages separated by wide (shuffle) boundaries, mirroring the
// narrow/wide dependency model of src/dataflow. A stage is `ntasks`
// independent tasks; task t consumes, from every parent stage, the t-th
// output block of each parent task (a hash/range-partitioned shuffle), and
// produces one output block per child partition. Blocks are real serialized
// Bytes — the runtime moves and recomputes actual data, so results can be
// compared bit-for-bit against the shared-memory engine — while the
// *simulated* size of a block may be overridden so benches can model
// multi-GiB shuffles without allocating them (the Comm::send_sized
// convention).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "sim/time.hpp"

namespace hpbdc::dist {

/// inputs[p][m] = block produced for this task by parent p's task m.
using TaskFn = std::function<std::vector<Bytes>(
    std::size_t task, const std::vector<std::vector<Bytes>>& inputs)>;

struct StageSpec {
  std::string name;
  std::size_t ntasks = 1;
  /// Indices of earlier stages this one shuffles from (wide dependencies).
  std::vector<std::size_t> parents;
  TaskFn run;
  /// Simulated bytes of stage-external input (DFS block / scan) charged per
  /// task before compute, even when `run` synthesizes the data itself.
  std::uint64_t input_bytes_per_task = 0;
  /// DFS file providing block-level locality: block t feeds task t. Empty =
  /// no locality preference.
  std::string input_file;
  /// Persist this stage's outputs to the DFS on completion, truncating
  /// lineage: later losses restore from the checkpoint instead of
  /// recomputing the stage's ancestors.
  bool checkpoint = false;
  /// Optional override of the simulated size of output block `child` of
  /// task `task` (the actual Bytes stay small). Unset = real byte size.
  std::function<std::uint64_t(std::size_t task, std::size_t child)> sim_out_bytes;
  /// Broadcast distribution: every output block of a task is the task's FULL
  /// row set (all children identical), so consumers take the union across
  /// parent tasks instead of a partition. The push transport moves such
  /// stages with ONE multicast stream per task instead of N unicast copies;
  /// the pull transport still fetches per-child copies (the baseline the
  /// flow bench compares against).
  bool broadcast = false;
};

struct JobSpec {
  std::string name = "job";
  /// Topologically ordered; every stage must be an ancestor of the final
  /// stage, whose output blocks are shipped to the driver as the result.
  std::vector<StageSpec> stages;
  /// Non-empty = persist the final stage's concatenated output blocks to
  /// the DFS under this name before the done callback fires, using
  /// RuntimeOptions::sink_policy for durability. Requires a Dfs; without
  /// one the sink is skipped (JobResult::sink_ok stays false).
  std::string sink_file;
};

struct JobResult {
  bool ok = false;
  /// Sink write durable in the DFS (meaningful only when the JobSpec named a
  /// sink_file and the job succeeded; false otherwise).
  bool sink_ok = false;
  sim::SimTime makespan = 0;
  /// output[t] = result-stage task t's blocks, in task order.
  std::vector<std::vector<Bytes>> output;
  /// Per-stage wall-clock (simulated): first launch to last completion.
  /// Benches read shuffle-stage makespans from here (start/end are -1 for
  /// stages that never ran, e.g. on a failed job).
  struct StageSpan {
    std::string name;
    sim::SimTime start = -1;
    sim::SimTime end = -1;
  };
  std::vector<StageSpan> stages;
};

}  // namespace hpbdc::dist
