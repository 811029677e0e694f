#pragma once
// Per-node table/key statistics for the cost model (plan/cost.hpp). Source
// nodes are sketched on every collect_stats call: a HyperLogLog estimates the
// distinct-key count and a count-min sketch surfaces heavy-hitter keys, both
// over a prefix sample of the keys of the one source generator,
// plan::SourceGen, where row i is a pure function of i (dimensions, whose
// keys cycle through their domain, are counted in closed form without it).
// The sample's keys, never its values, come from SourceGen's batched entry
// point in 256-row stack buffers, computed by the widest body the CPU runs:
// eight rows per step with AVX-512, four with AVX2, else one at a time. The
// estimates propagate through the plan with the standard textbook formulas
// (filters halve, joins multiply and divide by the larger NDV, reduces
// collapse to one row per key). A star query is sketched twice: in full by
// cost_optimize, and before that by order_star_dims, which reads only rows
// and NDV and so runs the HyperLogLog half alone on the fact and on every
// dimension without a key filter. Everything here is
// ADVISORY: the stats feed physical hints (join build side, skew-salt fanout,
// filter order inside fused chains) that never change result multisets, so a
// bad estimate costs performance, never correctness.

#include <cstdint>
#include <vector>

#include "plan/plan.hpp"

namespace hpbdc::plan {

/// A CMS-detected heavy hitter: the key and its estimated row count
/// (overestimate-only, per the CMS guarantee).
struct HotKey {
  std::uint64_t key = 0;
  std::uint64_t count = 0;
  friend bool operator==(const HotKey&, const HotKey&) = default;
};

struct NodeStats {
  double rows = 0;  ///< estimated output row count
  double ndv = 0;   ///< estimated distinct keys in the output
  /// Static key bound from key_upper_bounds() — the sketches never estimate
  /// above it.
  std::uint64_t key_bound = kKeyDomain;
  /// Heavy-hitter keys (descending count). Cleared by key remixes, carried
  /// by key-preserving ops, exact-filtered by kFilterKey (the predicate
  /// reads only the key, so hot keys can be evaluated precisely).
  std::vector<HotKey> hot;
};

struct StatsOptions {
  /// Marks a costed plan: cost_optimize records it as
  /// LogicalPlan::stats_salt, which fingerprint() folds in. No sketch reads
  /// it; the sample is the same prefix whatever its value. Must be non-zero
  /// (0 means "not costed").
  std::uint64_t stats_salt = 0x57a75ULL;
  /// Per-source sketch cap: sources larger than this are sketched on a
  /// prefix sample and scaled.
  std::uint64_t sample_rows = 1 << 16;
  /// A key is "hot" when its CMS estimate is at least this fraction of the
  /// sketched rows. A fraction whose threshold rounds to zero rows (0 among
  /// them) skips the count-min half: no node has hot keys, and a source's
  /// rows and NDV are the same as with any other fraction.
  double hot_fraction = 0.05;
};

/// Source sketch geometry: HyperLogLog precision and count-min error bounds.
inline constexpr int kHllPrecision = 12;
inline constexpr double kCmsEpsilon = 0.005;
inline constexpr double kCmsDelta = 0.01;
/// Cap on the hot list per node (largest counts win).
inline constexpr std::size_t kMaxHotKeys = 8;

/// Estimate rows/ndv/hot for every node. Sources are sketched over a prefix
/// of up to sample_rows rows, reduced to one (key, count) pair per distinct
/// key: in closed form for distinct-key sources, in a dense per-key array
/// when the key bound allows, else in a hashed table. One pass over those
/// pairs hashes each key once, feeds the HLL and fills the first CMS row;
/// later CMS rows are built one at a time, only while a key can still clear
/// the hot threshold, and not at all when the threshold is zero. A source
/// costs O(sample + distinct keys) (O(distinct keys) for a dimension) with
/// no sort, no row vector and no per-key array unless a key is a hot
/// candidate, and yields exactly the per-row sketches' estimates. Interior
/// nodes use propagation rules only — no interior node is ever
/// materialized, so this is cheap enough to run on every submitted plan.
std::vector<NodeStats> collect_stats(const LogicalPlan& plan,
                                     const StatsOptions& opts = {});

}  // namespace hpbdc::plan
