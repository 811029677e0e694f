#pragma once
// Streaming job model for the distributed streaming runtime (src/dstream).
// A plan::LogicalPlan lowers onto a streaming STAGE DAG: one stage per plan
// node plus a single-task sink stage, every stage running `ntasks` parallel
// tasks with hash-partitioned channels between them. Stateful operators are
// WINDOWED versions of the batch semantics over tumbling event-time windows:
//
//   kReduceByKey -> per-(window, key) reduce_combine sum, emitted at window
//                   close as a row {key, sum} timed at the window end
//   kDistinct    -> per-window row dedup, each distinct row emitted once at
//                   window close, timed at the window end
//   kJoin        -> symmetric hash join per tumbling window; each (left,
//                   right) pair emits join_rows(...) timed at
//                   max(left.time, right.time)
//   narrow ops   -> stateless per-event pipelines (plan::apply_steps)
//   kSortBy      -> multiset identity (streams are unordered multisets)
//
// Sources are SEEDED and PARTITIONED: partition p of P owns the global event
// indices j ≡ p (mod P) of a plan::source_rows stream, with a deterministic
// bounded event-time jitter plus occasional deliberately very-late events.
// Each partition runs its own bounded-lateness watermark and drops events
// older than it AT THE SOURCE; because the drop decision is a pure function
// of (salt, partition stream), two runs — fault-free or killed-and-recovered
// — drop exactly the same events. The emit-check also establishes the
// completeness invariant the barrier protocol needs: an event emitted after
// a barrier carrying watermark W always has time >= W, so a window fired at
// a barrier can never see another contribution.
//
// reference_streaming() evaluates the same spec as plain local code —
// timing-free, window semantics only — and is the trusted side of the
// streaming differential oracle (src/chaos/streaming_oracle).

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "plan/plan.hpp"

namespace hpbdc::dstream {

/// One event on a streaming channel: an event time plus a (key, value) row.
struct TimedRow {
  double time = 0;
  plan::Row row{};
  friend bool operator==(const TimedRow&, const TimedRow&) = default;
};

/// Windowing + source-shape knobs of a streaming job. Defaults keep the
/// source jitter strictly inside the lateness bound, so only the
/// deliberately very-late events (late_permille) are ever dropped.
struct StreamingOptions {
  std::size_t ntasks = 2;      // parallel tasks per stage (and source partitions)
  double rate = 64.0;          // source events per simulated second (per source)
  double window = 1.0;         // tumbling window size, event-time seconds
  double lateness = 0.3;       // bounded-lateness watermark bound at sources
  double disorder = 0.2;       // max backward event-time jitter (< lateness)
  std::uint64_t late_permille = 31;  // odds/1000 of a very-late (dropped) event
  double very_late = 2.0;      // backward jump of a very-late event
  friend bool operator==(const StreamingOptions&, const StreamingOptions&) = default;
};

/// One streaming stage. `steps` is a pure narrow pipeline (plan::apply_steps
/// with first = 0); for source stages it runs on each generated row, for
/// stateless stages on each input event. kJoin stages have parents
/// {left, right}; every other kind has at most one parent.
struct StreamStage {
  enum class Kind : std::uint8_t {
    kSource,     // seeded partitioned generator (+ optional narrow steps)
    kStateless,  // per-event narrow pipeline (identity when steps is empty)
    kAggregate,  // windowed keyed reduce_combine
    kDistinct,   // windowed row dedup
    kJoin,       // windowed symmetric hash join
    kSink,       // single-task collector on the coordinator
  };
  Kind kind = Kind::kStateless;
  std::vector<std::size_t> parents;  // stage indices, upstream of this one
  std::uint64_t salt = 0;            // kSource: generator salt
  std::uint64_t rows = 0;            // kSource: events in the stream
  std::vector<plan::NarrowStep> steps;
};

/// A lowered streaming job: stages.back() is always the sink.
struct StreamJobSpec {
  std::string name = "stream";
  StreamingOptions opts;
  std::vector<StreamStage> stages;
};

/// Lower a logical plan to a streaming stage DAG: stage i mirrors plan node
/// i (narrow chains stay per-event, stateful ops become their windowed
/// counterparts above), plus an appended sink stage fed by the plan sinks.
/// combine_output hints are ignored — map-side combine is a batch shuffle
/// optimization and a semantic no-op here.
StreamJobSpec lower_streaming(const plan::LogicalPlan& plan,
                              const StreamingOptions& opts);

/// One source emission: the (possibly multi-row, after flat_map steps)
/// output of a single surviving raw event.
struct SourceItem {
  double time = 0;      // event time of every row in `rows`
  double emit_at = 0;   // earliest relative sim time to emit (rate pacing)
  double wm_after = 0;  // partition watermark after this emission
  std::vector<plan::Row> rows;
};

/// Deterministic event stream of partition `part` of `nparts` for a source
/// stage: applies the per-partition bounded-lateness drop and the stage's
/// narrow steps. `late_dropped`, when non-null, accumulates the source-side
/// drops (the dstream.events_late_dropped metric).
std::vector<SourceItem> source_partition_items(const StreamStage& stage,
                                               const StreamingOptions& opts,
                                               std::size_t part, std::size_t nparts,
                                               std::uint64_t* late_dropped = nullptr);

/// Timing-free local evaluation of the whole spec: the reference side of the
/// streaming differential oracle. Exact — window contents are a pure
/// function of the (deterministic) source streams, never of arrival timing.
std::vector<TimedRow> reference_streaming(const StreamJobSpec& spec);

/// Canonical fingerprint of a streamed result multiset: sort by (time bits,
/// row) and serialize. Two runs agree iff these bytes are identical.
Bytes canonical_stream_bytes(std::vector<TimedRow> rows);

}  // namespace hpbdc::dstream

namespace hpbdc {

template <>
struct Serde<dstream::TimedRow> {
  static void write(BufWriter& w, const dstream::TimedRow& v) {
    w.write_pod(v.time);
    Serde<plan::Row>::write(w, v.row);
  }
  static dstream::TimedRow read(BufReader& r) {
    dstream::TimedRow v;
    v.time = r.read_pod<double>();
    v.row = Serde<plan::Row>::read(r);
    return v;
  }
};

}  // namespace hpbdc
