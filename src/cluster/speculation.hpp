#pragma once
// LATE-style speculative execution policy for MapReduce-style jobs: a
// backup copy of a slow task is launched on a free node once the task's
// expected remaining time exceeds the typical task duration by a
// threshold. First copy to finish wins; the other is killed.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace hpbdc::cluster {

/// LATE-style speculation policy: tracks completed task durations and
/// decides whether a running copy deserves a backup. The distributed
/// runtime (src/dist) speculates through it.
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

}  // namespace hpbdc::cluster
