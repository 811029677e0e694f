#pragma once
// Reactive autoscaling for elastic cloud services: a target-tracking policy
// (the shape of AWS/GCP target-utilization scaling) with scale-up/down
// cooldowns and capacity limits. fleet::FleetController runs it on every
// control tick; the fleet owns boot lag, teardown and cost accounting.

#include <cstddef>
#include <cstdint>

namespace hpbdc::cluster {

/// Target tracking with scale up/down cooldowns and instance bounds. The
/// tracker is pure decision logic: callers own booting queues, teardown,
/// and accounting.
class TargetTracker {
 public:
  enum class Action : std::uint8_t { kHold, kUp, kDown };
  struct Decision {
    Action action = Action::kHold;
    std::size_t desired = 0;  // clamped target instance count
    std::size_t order = 0;    // kUp: instances to provision now
  };

  TargetTracker(double capacity_per_instance, double target_utilization,
                std::size_t min_instances, std::size_t max_instances,
                double scale_up_cooldown, double scale_down_cooldown);

  /// One evaluation at time `now` against offered `load`:
  ///   desired = clamp(ceil(load / (capacity * target)), min, max)
  /// Scale up (by desired - running - booting) when above the provisioned
  /// count and the up-cooldown allows; scale down to desired only when
  /// nothing is booting and the down-cooldown allows. Cooldown clocks
  /// advance only on the decision actually taken.
  Decision decide(double now, double load, std::size_t running,
                  std::size_t booting);

 private:
  double capacity_per_instance_;
  double target_utilization_;
  std::size_t min_instances_;
  std::size_t max_instances_;
  double up_cooldown_;
  double down_cooldown_;
  double last_up_ = -1e18;
  double last_down_ = -1e18;
};

}  // namespace hpbdc::cluster
