#include "plan/lower.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>

#include "common/hash.hpp"
#include "dataflow/pair_ops.hpp"

namespace hpbdc::plan {

namespace {

constexpr std::size_t kLocalParts = 4;

// ---- dist-stage plumbing --------------------------------------------------

/// Hash-partition rows by key into ntasks serialized blocks (the invariant
/// every plan stage maintains at its output boundary). A first pass picks
/// and counts each row's child; a second writes every row straight into its
/// child's block, allocated at its exact size. A block holds the bytes
/// to_bytes gives the child's rows in input order: the varint count, then
/// fixed-width rows.
std::vector<Bytes> partition_rows(const std::vector<Row>& rows, std::size_t ntasks) {
  using Codec = FixedWidth<Row>;
  // Masking equals % for a power-of-two task count, and skips the divide.
  const bool pow2 = std::has_single_bit(ntasks);
  std::vector<std::uint32_t> child(rows.size());
  std::vector<std::size_t> count(ntasks, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint64_t h = hash_u64(rows[i].first);
    child[i] = static_cast<std::uint32_t>(pow2 ? h & (ntasks - 1) : h % ntasks);
    ++count[child[i]];
  }
  std::vector<BufWriter> blocks;
  std::vector<std::byte*> at(ntasks);
  blocks.reserve(ntasks);
  for (std::size_t c = 0; c < ntasks; ++c) {
    // 10 bytes hold the longest varint count.
    BufWriter& w = blocks.emplace_back(10 + count[c] * Codec::width);
    w.write_varint(count[c]);
    at[c] = w.extend(count[c] * Codec::width);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::byte*& p = at[child[i]];
    Codec::store(p, rows[i]);
    p += Codec::width;
  }
  std::vector<Bytes> out;
  out.reserve(ntasks);
  for (BufWriter& w : blocks) out.push_back(w.take());
  return out;
}

/// Replicate rows into ntasks identical blocks: every child of a broadcast
/// stage receives the producer task's FULL row set.
std::vector<Bytes> replicate_rows(const std::vector<Row>& rows,
                                  std::size_t ntasks) {
  return std::vector<Bytes>(ntasks, to_bytes(rows));
}

// ---- skew salting ---------------------------------------------------------
// Cost-model hot keys turn a join's two input partitionings asymmetric: the
// build parent replicates its hot-key rows to EVERY task while the probe
// parent spreads its hot-key rows across tasks round-robin. Every hot probe
// row lands in exactly one task and meets the full (replicated) set of hot
// build rows for its key there, so each (build, probe) pair is emitted
// exactly once — the join output multiset is unchanged, only the per-task
// row balance improves.

enum class SkewRole : std::uint8_t { kNone, kBuild, kProbe };

struct SkewInfo {
  SkewRole role = SkewRole::kNone;
  std::vector<std::uint64_t> hot;  // the consumer join's hot_keys
};

std::vector<std::size_t> consumer_counts(const LogicalPlan& plan) {
  std::vector<std::size_t> consumers(plan.nodes.size(), 0);
  for (const PlanNode& nd : plan.nodes) {
    switch (nd.op) {
      case OpKind::kSource:
        break;
      case OpKind::kFused:
        if (nd.steps.front().op != OpKind::kSource) ++consumers[nd.left];
        break;
      case OpKind::kJoin:
        ++consumers[nd.left];
        ++consumers[nd.right];
        break;
      default:
        ++consumers[nd.left];
        break;
    }
  }
  return consumers;
}

/// Assign skew roles to the parents of every annotated join whose shape
/// makes the rewrite sound: distinct parents, each feeding ONLY this join
/// (another consumer — or a sink reader — would see the salted partitioning
/// where it expects a plain hash partition), and neither broadcast (a
/// broadcast build already replicates everything).
std::vector<SkewInfo> pick_skew_roles(const LogicalPlan& plan,
                                      const std::vector<bool>& bcast) {
  std::vector<SkewInfo> out(plan.nodes.size());
  const std::vector<std::size_t> consumers = consumer_counts(plan);
  auto is_sink = [&](std::size_t id) {
    return std::find(plan.sinks.begin(), plan.sinks.end(), id) !=
           plan.sinks.end();
  };
  for (const PlanNode& nd : plan.nodes) {
    if (nd.op != OpKind::kJoin || nd.salt_fanout == 0 || nd.hot_keys.empty()) {
      continue;
    }
    const std::size_t l = nd.left, r = nd.right;
    if (l == r) continue;  // self-join: one parent plays both roles
    if (consumers[l] != 1 || consumers[r] != 1) continue;
    if (is_sink(l) || is_sink(r)) continue;
    if (bcast[l] || bcast[r]) continue;
    const std::size_t build = nd.build_left ? l : r;
    const std::size_t probe = nd.build_left ? r : l;
    out[build] = {SkewRole::kBuild, nd.hot_keys};
    out[probe] = {SkewRole::kProbe, nd.hot_keys};
  }
  return out;
}

/// partition_rows with hot-key handling per the node's skew role. The probe
/// spread counter is deterministic: each task walks its own rows in order.
std::vector<Bytes> partition_rows_skewed(std::vector<Row> rows,
                                         std::size_t ntasks,
                                         const SkewInfo& si) {
  std::vector<std::vector<Row>> parts(ntasks);
  std::uint64_t spread = 0;
  auto hot = [&si](std::uint64_t k) {
    return std::find(si.hot.begin(), si.hot.end(), k) != si.hot.end();
  };
  for (const Row& r : rows) {
    if (hot(r.first)) {
      if (si.role == SkewRole::kBuild) {
        for (auto& p : parts) p.push_back(r);
      } else {
        parts[(hash_u64(r.first) + spread++) % ntasks].push_back(r);
      }
    } else {
      parts[hash_u64(r.first) % ntasks].push_back(r);
    }
  }
  std::vector<Bytes> out;
  out.reserve(ntasks);
  for (auto& p : parts) out.push_back(to_bytes(p));
  return out;
}

/// Source-row estimate of a source-rooted node; kNotSourceRooted when the
/// node cannot be sized without running it.
constexpr std::uint64_t kNotSourceRooted = ~0ULL;
std::uint64_t source_rooted_rows(const PlanNode& nd) {
  if (nd.op == OpKind::kSource) return nd.rows;
  if (nd.op == OpKind::kFused && nd.steps.front().op == OpKind::kSource) {
    return nd.steps.front().rows;
  }
  return kNotSourceRooted;
}

/// Marks the nodes that lower as broadcast (replicated-output) stages: the
/// left side of every eligible join under `opts`.
std::vector<bool> pick_broadcast_nodes(const LogicalPlan& plan,
                                       const LowerDistOptions& opts) {
  std::vector<bool> bcast(plan.nodes.size(), false);
  if (opts.broadcast_join_rows == 0) return bcast;
  // A broadcast node must feed exactly one node (its join): other consumers
  // would see replicated rows where they expect a hash partition.
  const std::vector<std::size_t> consumers = consumer_counts(plan);
  for (const PlanNode& nd : plan.nodes) {
    if (nd.op != OpKind::kJoin) continue;
    const std::size_t l = nd.left;
    if (consumers[l] != 1) continue;
    if (std::find(plan.sinks.begin(), plan.sinks.end(), l) != plan.sinks.end()) {
      continue;
    }
    const std::uint64_t rows = source_rooted_rows(plan.nodes[l]);
    if (rows == kNotSourceRooted || rows > opts.broadcast_join_rows) continue;
    bcast[l] = true;
  }
  return bcast;
}

/// Decode every block of `lists`, in order, onto the end of `rows`, sized
/// up front: a block of k rows holds a varint of under 16 bytes and 16k
/// bytes of rows, so its size / 16 is k. Each row is decoded once, in place.
void append_rows(std::span<const std::vector<Bytes>> lists, std::vector<Row>& rows) {
  std::size_t n = rows.size();
  for (const auto& blocks : lists) {
    for (const Bytes& b : blocks) n += b.size() / FixedWidth<Row>::width;
  }
  rows.reserve(n);
  for (const auto& blocks : lists) {
    for (const Bytes& b : blocks) append_from_bytes(b, rows);
  }
}

/// Concatenate parent `pi`'s blocks for this task, in parent-task order
/// (deterministic regardless of fetch completion order), into one vector.
std::vector<Row> gather_rows(const std::vector<std::vector<Bytes>>& inputs,
                             std::size_t pi) {
  std::vector<Row> rows;
  append_rows(std::span(&inputs.at(pi), 1), rows);
  return rows;
}

/// One key of hash_join's index: the key's first and last lhs row.
template <typename Idx>
struct JoinSlot {
  static constexpr Idx kEnd = std::numeric_limits<Idx>::max();
  std::uint64_t key = 0;
  Idx head = kEnd;  // kEnd marks an empty slot
  Idx tail = kEnd;
};

/// Inner join on key, building from lhs and probing with rhs. An
/// open-addressing index maps each key to its first and last lhs row, and
/// `next` chains the lhs rows of one key in lhs order, so every probe row's
/// matches come out in lhs order: the output order is rhs-major, then lhs.
template <typename Idx>
std::vector<Row> hash_join(const std::vector<Row>& lhs,
                           const std::vector<Row>& rhs) {
  using Slot = JoinSlot<Idx>;
  constexpr Idx kEnd = Slot::kEnd;
  std::size_t cap = 16;  // a power of two at most half full
  while (cap < 2 * lhs.size()) cap <<= 1;
  const std::size_t mask = cap - 1;
  std::vector<Slot> table(cap);
  auto find = [&table, mask](std::uint64_t k) -> Slot& {
    std::size_t s = hash_u64(k) & mask;
    while (table[s].head != kEnd && table[s].key != k) s = (s + 1) & mask;
    return table[s];
  };
  std::vector<Idx> next(lhs.size(), kEnd);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    Slot& slot = find(lhs[i].first);
    if (slot.head == kEnd) {
      slot.key = lhs[i].first;
      slot.head = static_cast<Idx>(i);
    } else {
      next[slot.tail] = static_cast<Idx>(i);
    }
    slot.tail = static_cast<Idx>(i);
  }
  std::vector<Row> out;
  for (const Row& r : rhs) {
    for (Idx i = find(r.first).head; i != kEnd; i = next[i]) {
      out.push_back(join_rows(r.first, lhs[i].second, r.second));
    }
  }
  return out;
}

/// hash_join for a join whose keys key_upper_bounds() proves below `bound`:
/// the index is one head per key, indexed by the key itself, so there is no
/// hash and no key compare. A row of either side at or above the bound holds
/// a key the other side cannot, and is skipped with one compare. `next` is
/// threaded back to front, so each key's chain runs in lhs order and the
/// output order is hash_join's.
template <typename Idx>
std::vector<Row> dense_join(const std::vector<Row>& lhs, const std::vector<Row>& rhs,
                            std::uint64_t bound) {
  constexpr Idx kEnd = std::numeric_limits<Idx>::max();
  std::vector<Idx> head(bound, kEnd);
  std::vector<Idx> next(lhs.size());
  for (std::size_t i = lhs.size(); i-- > 0;) {
    const std::uint64_t k = lhs[i].first;
    if (k >= bound) continue;
    next[i] = head[k];
    head[k] = static_cast<Idx>(i);
  }
  std::vector<Row> out;
  out.reserve(rhs.size());  // exact when lhs keys are distinct, as a dimension's are
  for (const Row& r : rhs) {
    if (r.first >= bound) continue;
    for (Idx i = head[r.first]; i != kEnd; i = next[i]) {
      out.push_back(join_rows(r.first, lhs[i].second, r.second));
    }
  }
  return out;
}

/// The join task's kernel: `bound` is the join's key bound when it is at
/// most kDenseReduceMaxDomain (the dense index), 0 for the hashed one.
std::vector<Row> local_join(const std::vector<Row>& lhs,
                            const std::vector<Row>& rhs, std::uint64_t bound) {
  if (lhs.empty() || rhs.empty()) return {};
  // 32-bit row indices halve the index, as long as kEnd stays out of range.
  if (lhs.size() < std::numeric_limits<std::uint32_t>::max()) {
    return bound != 0 ? dense_join<std::uint32_t>(lhs, rhs, bound)
                      : hash_join<std::uint32_t>(lhs, rhs);
  }
  return bound != 0 ? dense_join<std::uint64_t>(lhs, rhs, bound)
                    : hash_join<std::uint64_t>(lhs, rhs);
}

}  // namespace

std::vector<Row> lower_local(const LogicalPlan& plan, dataflow::Context& ctx) {
  using DS = dataflow::Dataset<Row>;
  std::vector<DS> built(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& nd = plan.nodes[i];
    const std::uint64_t salt = nd.salt;
    switch (nd.op) {
      case OpKind::kSource:
        built[i] = DS::parallelize(ctx, node_source_rows(nd), kLocalParts);
        break;
      case OpKind::kMap:
        built[i] = built[nd.left].map(
            [salt](const Row& r) { return map_row(r, salt); });
        break;
      case OpKind::kMapValues:
        built[i] = built[nd.left].map(
            [salt](const Row& r) { return map_value_row(r, salt); });
        break;
      case OpKind::kFilter:
        built[i] = built[nd.left].filter(
            [salt](const Row& r) { return filter_keep(r, salt); });
        break;
      case OpKind::kFilterKey:
        built[i] = built[nd.left].filter(
            [salt](const Row& r) { return filter_key_keep(r, salt); });
        break;
      case OpKind::kFlatMap:
        built[i] = built[nd.left].flat_map([salt](const Row& r) {
          std::vector<Row> out;
          flat_map_row(r, salt, out);
          return out;
        });
        break;
      case OpKind::kFused: {
        // The whole pipeline runs in one pass over each partition; a source
        // head materializes its rows first. Per-row steps distribute over
        // disjoint partitions, so this equals the unfused node chain.
        const std::vector<NarrowStep> steps = nd.steps;
        DS head = steps.front().op == OpKind::kSource
                      ? DS::parallelize(ctx, step_source_rows(steps.front()),
                                        kLocalParts)
                      : built[nd.left];
        const std::size_t first = steps.front().op == OpKind::kSource ? 1 : 0;
        built[i] = head.map_partitions([steps, first](const std::vector<Row>& part) {
          return apply_steps(steps, first, part);
        });
        break;
      }
      case OpKind::kReduceByKey:
        built[i] = dataflow::reduce_by_key(
            built[nd.left],
            [](std::uint64_t a, std::uint64_t b) { return reduce_combine(a, b); },
            kLocalParts);
        break;
      case OpKind::kJoin:
        built[i] =
            dataflow::join(built[nd.left], built[nd.right], kLocalParts)
                .map([](const std::pair<std::uint64_t,
                                        std::pair<std::uint64_t, std::uint64_t>>&
                            r) {
                  return join_rows(r.first, r.second.first, r.second.second);
                });
        break;
      case OpKind::kSortBy:
        built[i] = built[nd.left].sort_by(
            [salt](const Row& r) { return sort_key(r, salt); }, kLocalParts);
        break;
      case OpKind::kDistinct:
        built[i] = built[nd.left].distinct(kLocalParts);
        break;
    }
    if (nd.combine_output) {
      // Map-side combine at the node's output boundary: per-partition
      // pre-aggregation, exact because the downstream reduce re-combines.
      built[i] = built[i].map_partitions(
          [](const std::vector<Row>& part) { return combine_rows(part); });
    }
  }
  DS out = built[plan.sinks.front()];
  for (std::size_t s = 1; s < plan.sinks.size(); ++s) {
    out = out.union_with(built[plan.sinks[s]]);
  }
  return out.collect();
}

dist::JobSpec lower_dist(const LogicalPlan& plan, std::size_t ntasks,
                         const LowerDistOptions& opts) {
  dist::JobSpec job;
  job.name = "plan";
  const std::vector<bool> bcast = pick_broadcast_nodes(plan, opts);
  const std::vector<SkewInfo> skew = pick_skew_roles(plan, bcast);
  const std::vector<std::uint64_t> bounds = key_upper_bounds(plan);
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& nd = plan.nodes[i];
    const std::uint64_t salt = nd.salt;
    const bool combine = nd.combine_output;
    const bool replicate = bcast[i];
    const SkewInfo si = skew[i];
    // Every stage ends the same way: optional map-side combine, then
    // hash-partition by key — or, for a broadcast build side, replicate the
    // full row set to every child, or, for a skew-salted join input, the
    // hot-key-aware partitioning.
    auto finalize = [combine, replicate, ntasks, si](std::vector<Row> rows) {
      if (combine) rows = combine_rows(std::move(rows));
      if (replicate) return replicate_rows(rows, ntasks);
      if (si.role != SkewRole::kNone) {
        return partition_rows_skewed(std::move(rows), ntasks, si);
      }
      return partition_rows(rows, ntasks);
    };
    dist::StageSpec st;
    st.name = "n" + std::to_string(i);
    st.ntasks = ntasks;
    st.checkpoint = nd.checkpoint;
    st.broadcast = replicate;
    switch (nd.op) {
      case OpKind::kSource: {
        // Task t owns the rows with index ≡ t (mod ntasks): disjoint slices
        // whose union is exactly the reference source.
        st.run = [gen = SourceGen(nd), rows = nd.rows, ntasks, finalize](
                     std::size_t task, const std::vector<std::vector<Bytes>>&) {
          return finalize(source_slice(gen, rows, task, ntasks));
        };
        st.input_bytes_per_task =
            std::max<std::uint64_t>(1, nd.rows * 16 / ntasks);
        break;
      }
      case OpKind::kMap:
        st.parents = {nd.left};
        st.run = [salt, finalize](std::size_t,
                                  const std::vector<std::vector<Bytes>>& in) {
          auto rows = gather_rows(in, 0);
          for (Row& r : rows) r = map_row(r, salt);
          return finalize(std::move(rows));
        };
        break;
      case OpKind::kMapValues:
        st.parents = {nd.left};
        st.run = [salt, finalize](std::size_t,
                                  const std::vector<std::vector<Bytes>>& in) {
          auto rows = gather_rows(in, 0);
          for (Row& r : rows) r = map_value_row(r, salt);
          return finalize(std::move(rows));
        };
        break;
      case OpKind::kFilter:
        st.parents = {nd.left};
        st.run = [salt, finalize](std::size_t,
                                  const std::vector<std::vector<Bytes>>& in) {
          auto rows = gather_rows(in, 0);
          std::erase_if(rows, [salt](const Row& r) { return !filter_keep(r, salt); });
          return finalize(std::move(rows));
        };
        break;
      case OpKind::kFilterKey:
        st.parents = {nd.left};
        st.run = [salt, finalize](std::size_t,
                                  const std::vector<std::vector<Bytes>>& in) {
          auto rows = gather_rows(in, 0);
          std::erase_if(rows,
                        [salt](const Row& r) { return !filter_key_keep(r, salt); });
          return finalize(std::move(rows));
        };
        break;
      case OpKind::kFlatMap:
        st.parents = {nd.left};
        st.run = [salt, finalize](std::size_t,
                                  const std::vector<std::vector<Bytes>>& in) {
          const auto rows = gather_rows(in, 0);
          std::vector<Row> out;
          for (const Row& r : rows) flat_map_row(r, salt, out);
          return finalize(std::move(out));
        };
        break;
      case OpKind::kFused: {
        // The whole pipeline is ONE stage — this is where fusion pays on the
        // dist runtime: each absorbed node was a full shuffle round-trip.
        const std::vector<NarrowStep> steps = nd.steps;
        if (steps.front().op == OpKind::kSource) {
          st.run = [gen = SourceGen(steps.front()), rows = steps.front().rows,
                    ntasks, steps, finalize](
                       std::size_t task, const std::vector<std::vector<Bytes>>&) {
            return finalize(
                apply_steps(steps, 1, source_slice(gen, rows, task, ntasks)));
          };
          st.input_bytes_per_task =
              std::max<std::uint64_t>(1, steps.front().rows * 16 / ntasks);
        } else {
          st.parents = {nd.left};
          st.run = [steps, finalize](std::size_t,
                                     const std::vector<std::vector<Bytes>>& in) {
            return finalize(apply_steps(steps, 0, gather_rows(in, 0)));
          };
        }
        break;
      }
      case OpKind::kReduceByKey:
        st.parents = {nd.left};
        st.run = [finalize](std::size_t,
                            const std::vector<std::vector<Bytes>>& in) {
          // All rows of a key land in one task (upstream hash partitioning),
          // so the local reduce is globally exact — even when the upstream
          // stage pre-combined, this merges the per-task partials.
          std::vector<Row> rows = combine_rows(gather_rows(in, 0));
          return finalize(std::move(rows));
        };
        break;
      case OpKind::kJoin: {
        // Always built from the left parent, whatever build_left says: a
        // broadcast build is the left side, and the output order is fixed.
        st.parents = {nd.left, nd.right};
        const std::uint64_t bound = bounds[i] <= kDenseReduceMaxDomain ? bounds[i] : 0;
        st.run = [finalize, bound](std::size_t,
                                   const std::vector<std::vector<Bytes>>& in) {
          return finalize(local_join(gather_rows(in, 0), gather_rows(in, 1), bound));
        };
        break;
      }
      case OpKind::kSortBy:
        st.parents = {nd.left};
        st.run = [salt, finalize](std::size_t,
                                  const std::vector<std::vector<Bytes>>& in) {
          auto rows = gather_rows(in, 0);
          std::sort(rows.begin(), rows.end(),
                    [salt](const Row& a, const Row& b) {
                      const auto ka = sort_key(a, salt), kb = sort_key(b, salt);
                      return ka != kb ? ka < kb : a < b;
                    });
          return finalize(std::move(rows));
        };
        break;
      case OpKind::kDistinct:
        st.parents = {nd.left};
        st.run = [finalize](std::size_t,
                            const std::vector<std::vector<Bytes>>& in) {
          auto rows = gather_rows(in, 0);
          std::sort(rows.begin(), rows.end());
          rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
          return finalize(std::move(rows));
        };
        break;
    }
    job.stages.push_back(std::move(st));
  }
  dist::StageSpec fin;
  fin.name = "collect";
  fin.ntasks = ntasks;
  fin.parents = plan.sinks;
  fin.run = [nsinks = plan.sinks.size()](
                std::size_t, const std::vector<std::vector<Bytes>>& in) {
    std::vector<Row> rows;
    append_rows(std::span(in).first(nsinks), rows);
    return std::vector<Bytes>{to_bytes(rows)};
  };
  job.stages.push_back(std::move(fin));
  return job;
}

std::vector<Row> rows_from_result(const dist::JobResult& res) {
  std::vector<Row> rows;
  append_rows(res.output, rows);
  return rows;
}

}  // namespace hpbdc::plan
