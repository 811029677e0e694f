#pragma once
// VM live-migration cost models (experiment F2). The three canonical
// strategies, with the standard analytical behaviour:
//
//   stop-and-copy — freeze the VM, transfer all RAM once.
//                   total = downtime = M/B.
//   pre-copy      — iteratively transfer dirtied pages while the VM runs
//                   (Clark et al., NSDI'05 / Xen). Round i transfers the
//                   pages dirtied during round i-1; when the remaining set
//                   drops below kPreCopyStopThreshold (or rounds are exhausted,
//                   i.e. dirty rate >= bandwidth so rounds do not converge),
//                   stop and copy the remainder. Downtime = remainder/B.
//   post-copy     — transfer minimal CPU/device state, resume on the target
//                   immediately, then pull pages in the background with
//                   demand faults. Downtime = state/B (tiny, constant);
//                   total is one full memory pass slowed by the fault
//                   round-trips on the fraction of hot pages.
//
// All sizes in bytes, rates in bytes/sec, times in seconds.

#include <cstdint>

namespace hpbdc::cluster {

struct MigrationConfig {
  std::uint64_t vm_memory = 4ULL << 30;     // resident RAM to move
  double bandwidth_bps = 1.25e9;            // migration link rate
  double dirty_rate_bps = 100e6;            // page-dirtying rate while running
  std::uint64_t cpu_state_bytes = 8ULL << 20;  // post-copy: state moved during downtime
};

/// Pre-copy stops iterating once the dirty set falls below this many bytes.
inline constexpr std::uint64_t kPreCopyStopThreshold = 64ULL << 20;

struct MigrationResult {
  double total_time = 0;        // start of migration to source release
  double downtime = 0;          // VM unresponsive window
  std::uint64_t transferred = 0;  // total bytes moved (overhead measure)
  std::uint32_t rounds = 0;     // pre-copy iterations (1 for the others)
  bool converged = true;        // pre-copy: false if stopped by round cap
};

MigrationResult migrate_stop_and_copy(const MigrationConfig& cfg);
MigrationResult migrate_pre_copy(const MigrationConfig& cfg);
MigrationResult migrate_post_copy(const MigrationConfig& cfg);

}  // namespace hpbdc::cluster
