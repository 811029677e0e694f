#pragma once
// Per-file durability policy of the simulated DFS. Kept in its own tiny
// header so the lightweight dist::RuntimeOptions can name the policy without
// pulling in the full Dfs machinery.

#include <cstdint>

namespace hpbdc::sim {

/// How a Dfs file survives node loss:
///   kReplicated   — R full copies through the HDFS-style pipeline (hot
///                   data: shuffle spill, job input),
///   kErasureCoded — RS(k, m) shards placed via the consistent-hash ring
///                   with anti-affinity (cold/large durable data:
///                   checkpoints, sink output). ~(k+m)/k storage overhead
///                   instead of R, at the price of degraded reads and
///                   re-encoding repair when shards are lost.
enum class StoragePolicy : std::uint8_t {
  kReplicated = 0,
  kErasureCoded = 1,
};

}  // namespace hpbdc::sim
