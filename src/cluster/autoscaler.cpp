#include "cluster/autoscaler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hpbdc::cluster {

TargetTracker::TargetTracker(double capacity_per_instance,
                             double target_utilization,
                             std::size_t min_instances,
                             std::size_t max_instances,
                             double scale_up_cooldown,
                             double scale_down_cooldown)
    : capacity_per_instance_(capacity_per_instance),
      target_utilization_(target_utilization),
      min_instances_(min_instances),
      max_instances_(max_instances),
      up_cooldown_(scale_up_cooldown),
      down_cooldown_(scale_down_cooldown) {
  if (capacity_per_instance_ <= 0) {
    throw std::invalid_argument("TargetTracker: capacity");
  }
  if (target_utilization_ <= 0 || target_utilization_ > 1) {
    throw std::invalid_argument("TargetTracker: target utilization in (0,1]");
  }
  if (min_instances_ == 0 || min_instances_ > max_instances_) {
    throw std::invalid_argument("TargetTracker: instance bounds");
  }
}

TargetTracker::Decision TargetTracker::decide(double now, double load,
                                              std::size_t running,
                                              std::size_t booting) {
  Decision d;
  d.desired = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(load / (capacity_per_instance_ * target_utilization_))),
      min_instances_, max_instances_);
  const std::size_t provisioned = running + booting;
  if (d.desired > provisioned && now - last_up_ >= up_cooldown_) {
    d.action = Action::kUp;
    d.order = d.desired - provisioned;
    last_up_ = now;
  } else if (d.desired < running && booting == 0 &&
             now - last_down_ >= down_cooldown_) {
    d.action = Action::kDown;
    // desired >= min by the clamp, so the teardown floor is already applied.
    last_down_ = now;
  }
  return d;
}

}  // namespace hpbdc::cluster
