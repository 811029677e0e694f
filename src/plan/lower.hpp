#pragma once
// The three physical lowerings of a plan::LogicalPlan: row-at-a-time on the
// shared-memory dataflow engine (lower_local), staged on the distributed
// runtime (lower_dist), and vectorized batch-at-a-time over column blocks
// (lower_columnar). All consume raw, rule-optimized, and cost-optimized
// plans alike — fused nodes run their pipeline in one pass (map_partitions
// locally, one dist stage remotely, tight per-column loops columnar) and
// combine_output inserts a per-partition/per-task map-side combine before
// the boundary — so the chaos differential oracle can execute any plan on
// every backend and compare it bit-for-bit against the raw reference.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataflow/dataset.hpp"
#include "dist/job.hpp"
#include "exec/executor.hpp"
#include "plan/plan.hpp"

namespace hpbdc::plan {

/// Execute on the shared-memory dataflow engine and collect the sink union.
std::vector<Row> lower_local(const LogicalPlan& plan, dataflow::Context& ctx);

/// Execute on the vectorized columnar backend: every node materializes as a
/// column-major RowBlock, narrow ops run as tight in-place loops with
/// chunked compaction, joins as one hash join over the cost model's
/// build_left side, and joins and reduces index by key directly when
/// key_upper_bounds() proves the domain small (kDenseReduceMaxDomain).
/// Returns the sink union — the same row multiset as lower_local for every
/// plan.
std::vector<Row> lower_columnar(const LogicalPlan& plan, Executor& ex);

/// Key-domain ceiling for the dense reduce accumulator and the key-indexed
/// join table; wider domains fall back to the sort-based grouped reduction
/// and the hashed join table.
inline constexpr std::uint64_t kDenseReduceMaxDomain = 1u << 16;

/// Physical choices for lower_dist beyond the plan itself.
struct LowerDistOptions {
  /// When > 0, a join whose LEFT input is a source-rooted node (kSource, or
  /// kFused with a source head) with at most this many source rows, feeding
  /// ONLY that join and not a sink, lowers as a BROADCAST join: the left
  /// stage replicates its full per-task row set to every child
  /// (StageSpec::broadcast) instead of hash-partitioning, and the join
  /// probes the replicated build side against its hash partition of the
  /// right side. Exact: every key's right rows still land in one task, and
  /// the build side holds ALL left rows of those keys, so each task emits
  /// precisely its partition of the reference join — in the same row order
  /// as the partitioned lowering. 0 disables (the historical lowering,
  /// byte-identical).
  std::uint64_t broadcast_join_rows = 0;
};

/// The plan as a dist-runtime job: one stage per plan node (a fused node is
/// ONE stage for its whole pipeline) plus a final collect stage over the
/// sinks. Every stage hash-partitions its output by key with a fixed task
/// count, so the key-based operators (reduce, join, distinct) are exact
/// per-partition.
dist::JobSpec lower_dist(const LogicalPlan& plan, std::size_t ntasks,
                         const LowerDistOptions& opts = {});

/// Final rows of a dist run of lower_dist (unsorted).
std::vector<Row> rows_from_result(const dist::JobResult& res);

}  // namespace hpbdc::plan
