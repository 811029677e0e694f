#include "cluster/autoscaler.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace hpbdc::cluster {

namespace {

constexpr double kDiurnalAmplitude = 0.6;  // fraction of base
constexpr double kNoise = 0.1;             // multiplicative noise stddev

void validate(const AutoscalerConfig& cfg) {
  if (cfg.capacity_per_instance <= 0) throw std::invalid_argument("autoscaler: capacity");
  if (cfg.target_utilization <= 0 || cfg.target_utilization > 1) {
    throw std::invalid_argument("autoscaler: target utilization in (0,1]");
  }
  if (cfg.min_instances == 0 || cfg.min_instances > cfg.max_instances) {
    throw std::invalid_argument("autoscaler: instance bounds");
  }
  if (cfg.evaluation_period <= 0) throw std::invalid_argument("autoscaler: period");
}

struct Booting {
  double ready_at;
  std::size_t count;
};

AutoscaleResult run(const AutoscalerConfig& cfg, const std::vector<double>& load,
                    bool reactive, std::size_t static_n) {
  validate(cfg);
  AutoscaleResult res;
  res.trace.reserve(load.size());

  std::size_t running = reactive ? cfg.min_instances : static_n;
  std::deque<Booting> boot_queue;
  TargetTracker tracker(cfg.capacity_per_instance, cfg.target_utilization,
                        cfg.min_instances, cfg.max_instances,
                        cfg.scale_up_cooldown, cfg.scale_down_cooldown);
  double offered_total = 0, dropped_total = 0, util_sum = 0;

  for (std::size_t p = 0; p < load.size(); ++p) {
    const double t = static_cast<double>(p) * cfg.evaluation_period;
    // Instances whose boot completed start serving.
    while (!boot_queue.empty() && boot_queue.front().ready_at <= t) {
      running += boot_queue.front().count;
      boot_queue.pop_front();
    }
    std::size_t booting = 0;
    for (const auto& b : boot_queue) booting += b.count;

    const double rps = load[p];
    const double capacity = static_cast<double>(running) * cfg.capacity_per_instance;
    const double util = capacity > 0 ? rps / capacity : (rps > 0 ? 1e9 : 0.0);
    const double dropped = std::max(0.0, rps - capacity) * cfg.evaluation_period;

    offered_total += rps * cfg.evaluation_period;
    dropped_total += dropped;
    util_sum += std::min(1.0, util);
    res.instance_seconds +=
        static_cast<double>(running + booting) * cfg.evaluation_period;

    if (reactive) {
      // Target tracking: provision for load / (capacity * target), counting
      // capacity already booting so spikes don't trigger repeated orders.
      const TargetTracker::Decision d = tracker.decide(t, rps, running, booting);
      if (d.action == TargetTracker::Action::kUp) {
        boot_queue.push_back(Booting{t + cfg.boot_time, d.order});
        ++res.scale_ups;
      } else if (d.action == TargetTracker::Action::kDown) {
        running = d.desired;  // instant teardown
        ++res.scale_downs;
      }
    }

    res.trace.push_back(AutoscaleStep{t, rps, running, booting, util, dropped});
  }

  res.mean_utilization =
      load.empty() ? 0 : util_sum / static_cast<double>(load.size());
  res.dropped_fraction = offered_total > 0 ? dropped_total / offered_total : 0;
  return res;
}

}  // namespace

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

AutoscaleResult simulate_autoscaler(const AutoscalerConfig& cfg,
                                    const std::vector<double>& load) {
  return run(cfg, load, /*reactive=*/true, 0);
}

AutoscaleResult simulate_static_fleet(const AutoscalerConfig& cfg, std::size_t n,
                                      const std::vector<double>& load) {
  if (n == 0) throw std::invalid_argument("static fleet: n must be >= 1");
  return run(cfg, load, /*reactive=*/false, n);
}

std::vector<double> generate_load_trace(const LoadTraceConfig& cfg, Rng& rng) {
  std::vector<double> out;
  out.reserve(cfg.periods);
  constexpr double kTwoPi = 6.283185307179586;
  const std::size_t spike_start = cfg.periods / 2;
  const std::size_t spike_end = spike_start + cfg.periods / 24 + 1;
  for (std::size_t p = 0; p < cfg.periods; ++p) {
    const double phase = kTwoPi * static_cast<double>(p) / static_cast<double>(cfg.periods);
    double rps = cfg.base_rps *
                 (1.0 + kDiurnalAmplitude * std::sin(phase - kTwoPi / 4));
    rps *= std::exp(kNoise * rng.next_gaussian());
    if (cfg.flash_crowd && p >= spike_start && p < spike_end) rps *= 3.0;
    out.push_back(std::max(0.0, rps));
  }
  return out;
}

}  // namespace hpbdc::cluster
