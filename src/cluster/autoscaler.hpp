#pragma once
// Reactive autoscaling for elastic cloud services: a target-tracking policy
// (the shape of AWS/GCP target-utilization scaling) evaluated against a
// request-rate trace. Models the pieces that make autoscaling hard in
// practice: instance boot lag, scale-up/down cooldowns, and capacity limits.
// Load that exceeds live capacity in a period is dropped and accounted.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace hpbdc::cluster {

struct AutoscalerConfig {
  double capacity_per_instance = 100;  // requests/sec one instance absorbs
  double target_utilization = 0.7;     // plan for this steady-state load
  std::size_t min_instances = 1;
  std::size_t max_instances = 1000;
  double evaluation_period = 30;       // seconds between decisions
  double boot_time = 120;              // lag before a new instance serves
  double scale_up_cooldown = 60;       // min seconds between scale-ups
  double scale_down_cooldown = 300;    // min seconds between scale-downs
};

struct AutoscaleStep {
  double time = 0;
  double load = 0;          // offered requests/sec this period
  std::size_t running = 0;  // serving instances
  std::size_t booting = 0;  // provisioned, not yet serving
  double utilization = 0;   // load / live capacity (can exceed 1 = overload)
  double dropped = 0;       // requests dropped this period
};

struct AutoscaleResult {
  std::vector<AutoscaleStep> trace;
  double mean_utilization = 0;   // over periods, capped at 1 per period
  double dropped_fraction = 0;   // dropped / offered
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  double instance_seconds = 0;   // cost proxy (includes booting instances)
};

/// The reusable core of the reactive policy: target-tracking with scale
/// up/down cooldowns and instance bounds, factored out of
/// simulate_autoscaler so other control loops (the src/fleet elasticity
/// controller) make the SAME decisions the F7 experiment validated. The
/// tracker is pure decision logic — callers own booting queues, teardown,
/// and accounting; simulate_autoscaler remains byte-identical to the
/// pre-refactor implementation.
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

/// Run the reactive policy over a load trace (one entry per period).
AutoscaleResult simulate_autoscaler(const AutoscalerConfig& cfg,
                                    const std::vector<double>& load);

/// Fixed-fleet baseline: n instances throughout, same accounting.
AutoscaleResult simulate_static_fleet(const AutoscalerConfig& cfg, std::size_t n,
                                      const std::vector<double>& load);

// ---- load traces -----------------------------------------------------------

struct LoadTraceConfig {
  std::size_t periods = 480;       // e.g. 4 hours at 30 s
  double base_rps = 1000;          // diurnal mean
  bool flash_crowd = true;         // 3x spike for ~20 periods mid-trace
};

/// Diurnal sine + log-normal noise + optional flash crowd.
std::vector<double> generate_load_trace(const LoadTraceConfig& cfg, Rng& rng);

}  // namespace hpbdc::cluster
