#pragma once
// Speculative execution for MapReduce-style jobs (experiment F8): a job of
// independent tasks runs on a cluster where some nodes are stragglers
// (degraded to a fraction of nominal speed). Without mitigation, job
// completion is gated by the slowest task instance; with speculation, a
// backup copy of a slow task is launched on a free node once the task's
// expected remaining time (at its node's speed) exceeds the typical task
// duration by a threshold — the MapReduce/LATE policy shape. First copy to
// finish wins; the other is killed.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace hpbdc::cluster {

/// Reusable LATE-style speculation policy: tracks completed task durations
/// and decides whether a running copy deserves a backup. Shared by the
/// self-contained F8 simulation below and the distributed runtime
/// (src/dist), so both speculate with identical logic.
class LatePolicy {
 public:
  /// A copy merits a backup once its remaining time exceeds this many
  /// median task durations.
  static constexpr double kThreshold = 1.5;

  /// `default_duration` stands in for the median before any task completes;
  /// pass 0 to refuse speculation until real durations exist.
  explicit LatePolicy(double default_duration = 0.0) : default_(default_duration) {}

  void record(double duration) { durations_.push_back(duration); }

  /// Median completed duration (default_duration until one exists).
  double median() const {
    if (durations_.empty()) return default_;
    auto v = durations_;
    std::nth_element(v.begin(),
                     v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
  }

  /// A copy whose estimated remaining (or elapsed-beyond-expectation) time
  /// is `t` merits a backup once t exceeds threshold * median.
  bool exceeds(double t) const {
    const double med = median();
    return med > 0 && t > kThreshold * med;
  }

 private:
  double default_;
  std::vector<double> durations_;
};

struct SpeculationConfig {
  std::size_t nodes = 20;
  std::size_t tasks = 200;
  double task_work = 10.0;          // seconds at nominal speed
  double task_work_cv = 0.2;        // per-task size variation (lognormal-ish)
  double straggler_fraction = 0.1;  // fraction of nodes degraded
  double straggler_speed = 0.2;     // degraded nodes run at this speed
  bool speculate = true;
  std::uint64_t seed = 1;
};

struct SpeculationResult {
  double makespan = 0;
  double total_node_seconds = 0;  // work actually executed (incl. killed copies)
  std::size_t backups_launched = 0;
  std::size_t backups_won = 0;    // backup finished before the original
  double wasted_seconds = 0;      // execution time of losing copies
};

/// Run the job to completion under the configured policy.
SpeculationResult simulate_speculation(const SpeculationConfig& cfg);

}  // namespace hpbdc::cluster
