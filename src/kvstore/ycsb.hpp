#pragma once
// YCSB-style workload driver for the KV cluster (experiment F3). Implements
// the standard core-workload shapes over a zipfian key popularity curve:
//   A  update-heavy   50% read / 50% update
//   B  read-mostly    95% read /  5% update
//   C  read-only     100% read
//   D  read-latest    95% read /  5% insert, reads skew to recent inserts
//   F  read-modify-write  50% read / 50% RMW
// Clients run closed-loop: each issues its next operation when the previous
// completes, which is how YCSB drives target-less throughput runs.

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "kvstore/kv_cluster.hpp"

namespace hpbdc::kvstore {

enum class YcsbWorkload { kA, kB, kC, kD, kF };

const char* ycsb_name(YcsbWorkload w) noexcept;

struct YcsbConfig {
  YcsbWorkload workload = YcsbWorkload::kA;
  std::uint64_t records = 10000;   // preloaded keys
  std::uint64_t operations = 20000;
  std::size_t clients = 4;         // concurrent closed-loop clients
  std::uint64_t seed = 7;
  /// Client-side retries per op after a timeout/failure (for lossy-network
  /// experiments). 0 = fail fast.
  std::size_t max_retries = 0;
};

struct YcsbResult {
  double load_seconds = 0;   // simulated time to preload
  double run_seconds = 0;    // simulated time for the op phase
  double throughput_ops = 0; // operations / simulated second
  std::uint64_t retries = 0; // client-side retries issued (run phase)
  std::uint64_t ops_failed_final = 0;  // ops that failed after all retries
  KvStats stats;             // latency histograms and counters (run phase)
};

/// Preload `records` keys, then execute `operations` ops across `clients`
/// closed-loop clients, all inside the supplied simulated cluster. The
/// simulator is run to completion; the cluster must be otherwise idle.
YcsbResult run_ycsb(sim::Simulator& sim, KvCluster& kv, const YcsbConfig& cfg);

}  // namespace hpbdc::kvstore
