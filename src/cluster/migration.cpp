#include "cluster/migration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hpbdc::cluster {

namespace {
constexpr std::uint32_t kMaxRounds = 30;  // pre-copy: round cap
constexpr double kFaultFraction = 0.1;    // post-copy: fraction of pages demand-faulted
constexpr double kFaultRtt = 100e-6;      // post-copy: per-fault network round-trip
constexpr std::uint64_t kPageSize = 4096;

void validate(const MigrationConfig& cfg) {
  if (cfg.bandwidth_bps <= 0) throw std::invalid_argument("migration: bandwidth must be > 0");
  if (cfg.dirty_rate_bps < 0) throw std::invalid_argument("migration: negative dirty rate");
  if (cfg.vm_memory == 0) throw std::invalid_argument("migration: zero VM memory");
}
}  // namespace

MigrationResult migrate_stop_and_copy(const MigrationConfig& cfg) {
  validate(cfg);
  MigrationResult r;
  r.total_time = static_cast<double>(cfg.vm_memory) / cfg.bandwidth_bps;
  r.downtime = r.total_time;
  r.transferred = cfg.vm_memory;
  r.rounds = 1;
  return r;
}

MigrationResult migrate_pre_copy(const MigrationConfig& cfg) {
  validate(cfg);
  MigrationResult r;
  double to_send = static_cast<double>(cfg.vm_memory);
  double elapsed = 0;
  double transferred = 0;
  std::uint32_t round = 0;
  // Each round sends the pages dirtied during the previous round's transfer.
  // The dirty set cannot exceed total VM memory regardless of rate.
  while (round < kMaxRounds) {
    ++round;
    const double round_time = to_send / cfg.bandwidth_bps;
    elapsed += round_time;
    transferred += to_send;
    const double dirtied =
        std::min(cfg.dirty_rate_bps * round_time, static_cast<double>(cfg.vm_memory));
    if (dirtied <= static_cast<double>(kPreCopyStopThreshold)) {
      // Final stop-and-copy of the residual dirty set.
      const double final_time = dirtied / cfg.bandwidth_bps;
      elapsed += final_time;
      transferred += dirtied;
      r.downtime = final_time;
      r.converged = true;
      break;
    }
    to_send = dirtied;
    r.converged = false;
  }
  if (!r.converged) {
    // Round cap hit (dirty rate ~>= bandwidth): forced stop-and-copy of the
    // current dirty set — downtime degenerates toward stop-and-copy.
    const double final_time = to_send / cfg.bandwidth_bps;
    elapsed += final_time;
    transferred += to_send;
    r.downtime = final_time;
  }
  r.total_time = elapsed;
  r.transferred = static_cast<std::uint64_t>(transferred);
  r.rounds = round;
  return r;
}

MigrationResult migrate_post_copy(const MigrationConfig& cfg) {
  validate(cfg);
  MigrationResult r;
  // Downtime: only CPU/device state moves while the VM is frozen.
  r.downtime = static_cast<double>(cfg.cpu_state_bytes) / cfg.bandwidth_bps;
  // Background pull: exactly one pass over memory, plus one RTT per
  // demand-faulted page (kFaultFraction of all pages).
  const double pull_time = static_cast<double>(cfg.vm_memory) / cfg.bandwidth_bps;
  const double pages =
      static_cast<double>(cfg.vm_memory) / static_cast<double>(kPageSize);
  const double fault_time = kFaultFraction * pages * kFaultRtt;
  r.total_time = r.downtime + pull_time + fault_time;
  r.transferred = cfg.vm_memory + cfg.cpu_state_bytes;
  r.rounds = 1;
  return r;
}

}  // namespace hpbdc::cluster
