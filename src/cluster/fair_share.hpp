#pragma once
// Fair-share accounting for the multi-tenant job service (src/serve):
//
//   * UsageLedger — per-tenant accumulated usage of a single resource.
//     refund() is clamped at zero: a task retry may refund a charge the
//     cluster already reclaimed, and a negative balance would let the tenant
//     jump every future queue.
//   * DrfLedger — dominant-resource fairness (Ghodsi et al., NSDI'11) over a
//     fixed capacity vector: a tenant's dominant share is the maximum, over
//     resources, of its in-use fraction of capacity. Schedulers pick the
//     tenant with the smallest dominant share next.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace hpbdc::cluster {

/// Single-resource per-tenant usage totals with clamped refunds.
class UsageLedger {
 public:
  void charge(std::uint32_t tenant, double amount);
  /// Return previously charged usage; the balance never goes below zero
  /// (double-refunds from task retries must not mint priority).
  void refund(std::uint32_t tenant, double amount);
  double usage(std::uint32_t tenant) const;

 private:
  std::unordered_map<std::uint32_t, double> usage_;
};

/// Multi-resource dominant-share ledger. Capacities are fixed at
/// construction; acquire/release track per-tenant in-use vectors, with
/// release clamped at zero per resource (same retry rationale as
/// UsageLedger::refund).
class DrfLedger {
 public:
  explicit DrfLedger(std::vector<double> capacities);

  std::size_t resources() const noexcept { return cap_.size(); }
  const std::vector<double>& capacities() const noexcept { return cap_; }

  /// demand.size() must equal resources(); throws std::invalid_argument.
  void acquire(std::uint32_t tenant, const std::vector<double>& demand);
  void release(std::uint32_t tenant, const std::vector<double>& demand);

  /// max over resources of in_use[r] / capacity[r]; 0 for unknown tenants.
  double dominant_share(std::uint32_t tenant) const;
  /// In-use amount of one resource, summed over tenants.
  double total_in_use(std::size_t resource) const;

 private:
  std::vector<double> cap_;
  std::unordered_map<std::uint32_t, std::vector<double>> use_;
};

}  // namespace hpbdc::cluster
