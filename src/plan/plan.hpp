#pragma once
// First-class logical-plan IR shared by every engine in the repo. A
// LogicalPlan is a DAG of (key, value)-row operators; the chaos generator
// (src/chaos/plan_gen) produces them, the rule-based optimizer
// (plan/optimizer.hpp) rewrites them, and the two lowerings
// (plan/lower.hpp) execute them on the shared-memory dataflow engine and on
// the distributed runtime. Both lowerings call the exact same per-operator
// row functions declared here, so a multiset difference between two
// executions of the same plan is a scheduling/optimizer bug, never an
// operator-semantics mismatch.
//
// Every operator is a function of the input row MULTISET only (map / filter
// / flat_map are per-row, reduce_by_key's combine is commutative and
// associative, sort_by is a multiset identity, distinct is multiset→set),
// which is what makes rewrites checkable with a canonical sorted-bytes
// comparison — see canonical_bytes().

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace hpbdc::plan {

/// Every edge in a plan carries (key, value) rows, so any operator's output
/// can feed any other operator.
using Row = std::pair<std::uint64_t, std::uint64_t>;

/// Keys live in a small fixed domain so reduce_by_key and join always see
/// collisions (the interesting case) at harness row counts.
inline constexpr std::uint64_t kKeyDomain = 64;

enum class OpKind : std::uint8_t {
  kSource,       // seeded synthetic rows
  kMap,          // key and value remix (salted hash)
  kFilter,       // keep rows whose salted hash of (key, value) is even
  kFlatMap,      // 0..2 derived rows per input row
  kReduceByKey,  // wrapping-sum combine (commutative + associative)
  kJoin,         // inner join of two parents on key
  kSortBy,       // multiset identity; exercises the sort paths
  kDistinct,     // row-level dedup
  kMapValues,    // key-preserving value remix (filters on key commute past it)
  kFilterKey,    // keep rows whose salted hash of the key alone is even
  kFused,        // optimizer-built pipeline of narrow steps; one stage
};

/// Keep in sync with the enum above; op_name()'s switch has no default so
/// -Wswitch flags a missing case, and the static_assert in plan.cpp pins the
/// count — adding a kind without naming it is a compile-time error, not a
/// "?" in a shrink --replay line.
inline constexpr std::size_t kOpKindCount = 11;

const char* op_name(OpKind k);

/// One element of a kFused pipeline: a narrow op (or the source head) plus
/// the salt it runs with. `rows` and the source-shape fields are meaningful
/// only when op == kSource.
struct NarrowStep {
  OpKind op = OpKind::kMap;
  std::uint64_t salt = 0;
  std::uint64_t rows = 0;
  std::uint64_t key_domain = 0;  // source head: 0 = kKeyDomain
  std::uint64_t skew = 0;        // source head: hot-key permille
  bool distinct_keys = false;    // source head: keys are 0..n-1 (dim table)
  friend bool operator==(const NarrowStep&, const NarrowStep&) = default;
};

struct PlanNode {
  static constexpr std::size_t kNoParent = ~std::size_t{0};
  OpKind op = OpKind::kSource;
  std::size_t left = kNoParent;
  std::size_t right = kNoParent;  // joins only
  std::uint64_t salt = 0;         // per-node mixing constant
  std::uint64_t rows = 0;         // sources only: row count
  bool checkpoint = false;        // dist execution persists this stage
  // ---- source shape (kSource only; result-determining, fingerprinted) ----
  /// Key domain of the source (0 = the default kKeyDomain). BigBench-style
  /// workloads use wide fact domains and narrow dimension domains.
  std::uint64_t key_domain = 0;
  /// Skew: this permille of the rows lands on one deterministic hot key
  /// (0 = uniform). The CMS-driven skew salting in the cost model exists
  /// because of sources like these.
  std::uint64_t skew = 0;
  /// Dimension-table shape: keys are exactly 0..n-1 (mod domain) instead of
  /// uniform draws, so every key appears once — the classic star-schema
  /// build side.
  bool distinct_keys = false;
  /// kFused only: the pipelined steps, parent-first. steps[0] may be a
  /// kSource head, in which case the node has no parent.
  std::vector<NarrowStep> steps;
  /// Optimizer rule 3: pre-aggregate this node's output by key (map-side
  /// combine) before the stage boundary. Sound only because the optimizer
  /// sets it solely when the single consumer is a kReduceByKey with the
  /// same commutative+associative combine.
  bool combine_output = false;
  // ---- cost-model annotations (set by plan::cost_optimize) ---------------
  // Physical hints only: every lowering produces the same row multiset with
  // or without them. They are still folded into fingerprint() so the serve
  // result cache never aliases plans optimized under different cost
  // parameters (their JobResults differ in stages/spans even when rows
  // agree).
  /// kJoin: hash-join build side. true (default) builds from the left
  /// parent, matching the historical local_join; the cost model flips it
  /// when the right side is estimated smaller.
  bool build_left = true;
  /// kJoin: skew-salting fanout. 0 = off. When > 0 with a non-empty
  /// hot_keys list, the dist lowering replicates hot build rows to every
  /// task and spreads hot probe rows across tasks. The columnar join
  /// ignores it: it splits the probe into row chunks, which hot keys
  /// cannot skew.
  std::uint32_t salt_fanout = 0;
  /// kJoin: CMS-detected heavy-hitter keys on the probe side.
  std::vector<std::uint64_t> hot_keys;
  friend bool operator==(const PlanNode&, const PlanNode&) = default;
};

struct LogicalPlan {
  std::uint64_t seed = 0;
  std::uint64_t rows_per_source = 0;
  /// Non-zero marks the plan as cost-optimized: StatsOptions::stats_salt
  /// as plan::cost_optimize recorded it. Folded into fingerprint() so
  /// differently-costed plans never alias in the serve result cache.
  std::uint64_t stats_salt = 0;
  std::vector<PlanNode> nodes;     // parents always precede children
  std::vector<std::size_t> sinks;  // their union is the plan result
  /// One-line structure summary, e.g. "0:source 1:map(0) 2:join(0,1)".
  /// Fused nodes render their pipeline ("0:fused[source+map+filter]"), a
  /// combine_output flag renders as a "+combine" suffix, shaped sources as
  /// a "{d..}" suffix, and cost annotations as "+br" (build right) /
  /// "+saltN" (skew fanout).
  std::string describe() const;
  friend bool operator==(const LogicalPlan&, const LogicalPlan&) = default;
};

// ---- per-operator row semantics -------------------------------------------
// Single source of truth for every engine and for the optimizer's fused
// pipelines.

std::vector<Row> source_rows(std::uint64_t salt, std::uint64_t n);

class SourceGen;

namespace detail {

/// A body of SourceGen::fill: writes the keys (and, when vals is not null,
/// the values) of rows first, first + stride, ..., n of them.
using FillBody = void (*)(const SourceGen&, std::uint64_t first, std::uint64_t stride,
                          std::size_t n, std::uint64_t* keys, std::uint64_t* vals) noexcept;

struct NamedFillBody {
  const char* name;
  FillBody body;
};

/// Every fill body compiled in that this CPU can run, narrowest first
/// (scalar, avx2, avx512). SourceGen::fill runs the last one; tests check
/// them all.
std::vector<NamedFillBody> fill_bodies();

/// The bodies behind SourceGen::fill (plan.cpp).
struct FillKernels;

}  // namespace detail

/// The one source generator. Row i of a shaped source is a pure function of
/// (salt, i, shape), so a task can build its own slice of a source and a
/// sketch can read a prefix's keys without their values (BigBench's PDGF
/// seeds every field from a seed hierarchy the same way). Each row costs a
/// fixed number of mixes:
///   - h = mix_seed(salt, i) is the row's hash, mix64(h ^ kValueMix) its
///     value;
///   - the key is the high word of h * domain, a multiply-high with no
///     rejection loop, so a key's share is off uniform by at most domain/2^64;
///   - a skewed source draws its skew roll from the low word of that product,
///     the part of h the key does not use (uniform given the key), and sends
///     the row to the hot key when roll < skew permille;
///   - a dimension (distinct_keys) takes key i mod domain, every key exactly
///     once per cycle, and ignores skew.
/// `key_domain` 0 means kKeyDomain. The first m rows of an n-row source are
/// the m-row source.
///
/// row(i) and key(i) are the one definition of a row. Bulk reads go through
/// fill, which computes the same rows in batches with the widest of three
/// bodies the CPU runs, picked once per process: the scalar body calls
/// row/key, the AVX2 body computes four rows per step in 64-bit lanes, and
/// the AVX-512 body eight (domains below 2^32 in both; a wider domain runs
/// the scalar body). Callers consume a source in kBatch-row stack buffers
/// through for_each_batch, so no row is zero-filled before it is written.
class SourceGen {
 public:
  /// Rows per for_each_batch buffer.
  static constexpr std::size_t kBatch = 256;

  SourceGen(std::uint64_t salt, std::uint64_t key_domain,
            std::uint64_t skew_permille, bool distinct_keys) noexcept
      : salt_(salt),
        domain_(key_domain == 0 ? kKeyDomain : key_domain),
        skew_(distinct_keys ? 0 : skew_permille),
        distinct_(distinct_keys),
        // The deterministic hot key every skewed row lands on. CMS-based
        // hot-key detection in plan/stats discovers it; nothing downstream
        // is told.
        hot_(mix64(salt ^ 0x5ca1ab1eULL) % domain_) {}
  /// The generator of a kSource node or a fused source head.
  template <typename Shape>
  explicit SourceGen(const Shape& s) noexcept
      : SourceGen(s.salt, s.key_domain, s.skew, s.distinct_keys) {}

  std::uint64_t key(std::uint64_t i) const noexcept {
    return distinct_ ? i % domain_ : drawn_key(mix_seed(salt_, i));
  }
  Row row(std::uint64_t i) const noexcept {
    const std::uint64_t h = mix_seed(salt_, i);
    return {distinct_ ? i % domain_ : drawn_key(h), mix64(h ^ kValueMix)};
  }

  /// keys[j] = key(first + j * stride) for j < n, and vals[j] the value of
  /// that row when vals is not null: row(i) for n rows at once. Writes
  /// nothing past n.
  void fill(std::uint64_t first, std::uint64_t stride, std::size_t n,
            std::uint64_t* keys, std::uint64_t* vals) const noexcept;

  /// Rows first, first + stride, ..., n of them, in order, through fill in
  /// kBatch-row stack buffers: consume(keys, vals, m) once per batch of m
  /// rows. vals holds the batch's values only when with_vals is set.
  template <typename Consume>
  void for_each_batch(std::uint64_t first, std::uint64_t stride, std::uint64_t n,
                      bool with_vals, Consume&& consume) const {
    std::uint64_t keys[kBatch], vals[kBatch];
    for (std::uint64_t done = 0; done < n; done += kBatch) {
      const auto m = static_cast<std::size_t>(std::min<std::uint64_t>(n - done, kBatch));
      fill(first + done * stride, stride, m, keys, with_vals ? vals : nullptr);
      consume(keys, vals, m);
    }
  }

 private:
  friend struct detail::FillKernels;

  static constexpr std::uint64_t kValueMix = 0xd6e8feb86659fd93ULL;

  std::uint64_t drawn_key(std::uint64_t h) const noexcept {
    const __uint128_t m = static_cast<__uint128_t>(h) * domain_;
    const auto k = static_cast<std::uint64_t>(m >> 64);
    if (skew_ == 0) return k;
    const __uint128_t roll =
        static_cast<__uint128_t>(static_cast<std::uint64_t>(m)) * 1000;
    // The hot key by mask, not by branch: the roll is a coin flip per row,
    // which a branch mispredicts on a skewed source.
    const std::uint64_t hot = static_cast<std::uint64_t>(roll >> 64) < skew_;
    return k ^ ((k ^ hot_) & (0 - hot));
  }

  std::uint64_t salt_;
  std::uint64_t domain_;
  std::uint64_t skew_;
  bool distinct_;
  std::uint64_t hot_;
};

/// Task `task`'s slice of an n-row source: rows task, task + ntasks, ...,
/// each a pure function of its index. A dist source task builds only its
/// own rows this way, and interleaving the slices of tasks 0..ntasks-1 gives
/// the whole source back.
std::vector<Row> source_slice(const SourceGen& gen, std::uint64_t n,
                              std::uint64_t task, std::uint64_t ntasks);

/// The n rows of a shaped source, SourceGen rows 0..n-1 (its one slice).
/// `skew_permille` routes that fraction of rows to one deterministic hot key,
/// and `distinct_keys` emits keys 0..n-1 (mod domain) in order, the
/// dimension-table shape. With default shape parameters this is source_rows.
std::vector<Row> source_rows_ex(std::uint64_t salt, std::uint64_t n,
                                std::uint64_t key_domain,
                                std::uint64_t skew_permille,
                                bool distinct_keys);

/// The rows of a kSource node / fused source head, shape included.
inline std::vector<Row> node_source_rows(const PlanNode& nd) {
  return source_rows_ex(nd.salt, nd.rows, nd.key_domain, nd.skew,
                        nd.distinct_keys);
}
inline std::vector<Row> step_source_rows(const NarrowStep& s) {
  return source_rows_ex(s.salt, s.rows, s.key_domain, s.skew, s.distinct_keys);
}

Row map_row(const Row& r, std::uint64_t salt);
Row map_value_row(const Row& r, std::uint64_t salt);  // keeps r.first
bool filter_keep(const Row& r, std::uint64_t salt);
bool filter_key_keep(const Row& r, std::uint64_t salt);  // reads r.first only
void flat_map_row(const Row& r, std::uint64_t salt, std::vector<Row>& out);
std::uint64_t reduce_combine(std::uint64_t a, std::uint64_t b);
Row join_rows(std::uint64_t k, std::uint64_t v, std::uint64_t w);
std::uint64_t sort_key(const Row& r, std::uint64_t salt);

/// True for the per-row ops the fusion rule may pipeline (map, map_values,
/// filter, filter_key, flat_map).
bool is_narrow(OpKind k);

/// Run a fused pipeline's steps [first, steps.size()) over `rows` in one
/// pass. Used by both lowerings and usable on any row slice: every step is
/// per-row, so applying the pipeline to disjoint slices and uniting the
/// outputs equals applying it to the union.
std::vector<Row> apply_steps(const std::vector<NarrowStep>& steps,
                             std::size_t first, std::vector<Row> rows);

/// In-place map-side combine: collapse `rows` to one row per key with
/// reduce_combine, deterministically ordered by key.
std::vector<Row> combine_rows(std::vector<Row> rows);

/// Canonical fingerprint for differential oracles: sort the row multiset
/// and serialize — two runs agree iff these bytes are identical.
Bytes canonical_bytes(std::vector<Row> rows);

/// Strict static upper bound on the key values each node can emit (keys are
/// always < the bound). Sources are bounded by their domain, key remixes by
/// kKeyDomain, key-preserving ops by their parent, joins by the tighter
/// parent. The columnar backend indexes its dense reduce and its join's
/// head array by key when this bound is small, and the stats layer seeds
/// its propagation with it.
std::vector<std::uint64_t> key_upper_bounds(const LogicalPlan& plan);

/// Stable 64-bit structural fingerprint of a plan, the cache/admission key
/// of the serve layer (src/serve). Independent of node NUMBERING — each
/// node hashes from its operator kind, parameters (salt, rows, source
/// shape, fused steps, combine_output), and its parents' hashes, and the
/// plan folds the sink hashes in sorted order — so two topological
/// orderings of the same DAG fingerprint identically, while any change to
/// an op kind, parameter, or edge changes the value. The cost-model
/// parameters (stats_salt, build_left, salt_fanout, hot_keys) are folded in
/// as well: they don't change result rows, but plans optimized under
/// different cost parameters must never alias in the serve result cache.
/// The checkpoint flag and the seed/rows_per_source metadata are execution
/// hints, not result-determining structure, and are excluded. Join parents
/// stay ordered (join_rows is asymmetric).
std::uint64_t fingerprint(const LogicalPlan& plan);

}  // namespace hpbdc::plan
