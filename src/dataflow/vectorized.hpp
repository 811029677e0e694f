#pragma once
// Vectorized (batch-at-a-time) execution kernels over column-major row
// blocks, the execution engine the plan lowering uses: a struct-of-arrays
// RowBlock for the plan IR's (u64 key, u64 value) rows, plus the operator
// kernels — transform/filter loops with in-place compaction (the
// selection-vector effect without materializing one), a radix-partitioned
// hash join with optional skew sub-splitting, and dense/sort-based grouped
// reduction. All kernels are deterministic and generic over the row
// functions so the plan layer can instantiate them with its operator
// semantics without this header depending on plan/.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "exec/parallel.hpp"

namespace hpbdc::dataflow::columnar {

/// Column-major block of (key, value) rows. The two arrays always have the
/// same length; operators touch only the column(s) they read, which is
/// where the batch-at-a-time win over row-of-pairs iteration comes from.
struct RowBlock {
  std::vector<std::uint64_t> key;
  std::vector<std::uint64_t> val;

  std::size_t size() const noexcept { return key.size(); }
  bool empty() const noexcept { return key.empty(); }
  void reserve(std::size_t n) {
    key.reserve(n);
    val.reserve(n);
  }
  void push(std::uint64_t k, std::uint64_t v) {
    key.push_back(k);
    val.push_back(v);
  }
  void clear() noexcept {
    key.clear();
    val.clear();
  }
};

RowBlock from_rows(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& rows);
std::vector<std::pair<std::uint64_t, std::uint64_t>> to_rows(const RowBlock& b);
/// Append src's rows to dst (deterministic order).
void append(RowBlock& dst, const RowBlock& src);

/// In-place parallel transform: fn(key[i], val[i]) rewrites both cells.
/// Fn: void(std::uint64_t& k, std::uint64_t& v).
template <typename Fn>
void transform_block(Executor& ex, RowBlock& b, Fn fn) {
  auto* kp = b.key.data();
  auto* vp = b.val.data();
  parallel_for_blocked(ex, 0, b.size(), [kp, vp, fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(kp[i], vp[i]);
  });
}

/// In-place filter with chunked compaction: each chunk compacts into its own
/// range, then surviving ranges are packed left in chunk order — the output
/// order equals a sequential filter. Pred: bool(std::uint64_t k, std::uint64_t v).
template <typename Pred>
void filter_block(Executor& ex, RowBlock& b, Pred pred) {
  const std::size_t n = b.size();
  if (n == 0) return;
  const std::size_t grain = hpbdc::detail::pick_grain(n, ex.num_threads(), 0);
  const std::size_t nchunks = (n + grain - 1) / grain;
  std::vector<std::size_t> kept(nchunks, 0);
  auto* kp = b.key.data();
  auto* vp = b.val.data();
  {
    TaskGroup tg(ex);
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = c * grain;
      const std::size_t hi = std::min(lo + grain, n);
      tg.run([kp, vp, pred, lo, hi, c, &kept] {
        std::size_t w = lo;
        for (std::size_t i = lo; i < hi; ++i) {
          if (pred(kp[i], vp[i])) {
            kp[w] = kp[i];
            vp[w] = vp[i];
            ++w;
          }
        }
        kept[c] = w - lo;
      });
    }
    tg.wait();
  }
  // Sequential left-pack of the surviving prefixes (pure memmove work).
  std::size_t w = kept[0];
  for (std::size_t c = 1; c < nchunks; ++c) {
    const std::size_t lo = c * grain;
    if (w != lo) {
      std::copy(kp + lo, kp + lo + kept[c], kp + w);
      std::copy(vp + lo, vp + lo + kept[c], vp + w);
    }
    w += kept[c];
  }
  b.key.resize(w);
  b.val.resize(w);
}

/// Parallel expand: fn(k, v, out) appends 0..m rows per input row to a
/// per-chunk block; chunks concatenate in order (deterministic).
/// Fn: void(std::uint64_t k, std::uint64_t v, RowBlock& out).
template <typename Fn>
RowBlock expand_block(Executor& ex, const RowBlock& b, Fn fn) {
  const std::size_t n = b.size();
  RowBlock out;
  if (n == 0) return out;
  const std::size_t grain = hpbdc::detail::pick_grain(n, ex.num_threads(), 0);
  const std::size_t nchunks = (n + grain - 1) / grain;
  std::vector<RowBlock> parts(nchunks);
  const auto* kp = b.key.data();
  const auto* vp = b.val.data();
  {
    TaskGroup tg(ex);
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = c * grain;
      const std::size_t hi = std::min(lo + grain, n);
      tg.run([kp, vp, fn, lo, hi, &part = parts[c]] {
        part.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) fn(kp[i], vp[i], part);
      });
    }
    tg.wait();
  }
  std::size_t total = 0;
  for (const RowBlock& p : parts) total += p.size();
  out.reserve(total);
  for (const RowBlock& p : parts) append(out, p);
  return out;
}

/// Dense grouped reduction for key domains small enough for a direct-index
/// accumulator: per-chunk (acc, seen) arrays merged in chunk order. Output
/// is one row per present key, ascending by key. Combine must be
/// commutative and associative (the merge order across chunks is by chunk
/// index, but rows of one key may split across any chunks).
/// Combine: std::uint64_t(std::uint64_t, std::uint64_t).
template <typename Combine>
RowBlock dense_reduce_by_key(Executor& ex, const RowBlock& b,
                             std::uint64_t key_bound, Combine combine) {
  const std::size_t n = b.size();
  const auto bound = static_cast<std::size_t>(key_bound);
  const std::size_t grain =
      std::max<std::size_t>(bound, hpbdc::detail::pick_grain(n, ex.num_threads(), 0));
  const std::size_t nchunks = std::max<std::size_t>(1, (n + grain - 1) / grain);
  std::vector<std::vector<std::uint64_t>> acc(nchunks);
  std::vector<std::vector<char>> seen(nchunks);
  const auto* kp = b.key.data();
  const auto* vp = b.val.data();
  {
    TaskGroup tg(ex);
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = c * grain;
      const std::size_t hi = std::min(lo + grain, n);
      tg.run([kp, vp, lo, hi, bound, combine, &a = acc[c], &s = seen[c]] {
        a.assign(bound, 0);
        s.assign(bound, 0);
        for (std::size_t i = lo; i < hi; ++i) {
          const auto k = static_cast<std::size_t>(kp[i]);
          if (s[k]) {
            a[k] = combine(a[k], vp[i]);
          } else {
            a[k] = vp[i];
            s[k] = 1;
          }
        }
      });
    }
    tg.wait();
  }
  for (std::size_t c = 1; c < nchunks; ++c) {
    for (std::size_t k = 0; k < bound; ++k) {
      if (!seen[c][k]) continue;
      acc[0][k] = seen[0][k] ? combine(acc[0][k], acc[c][k]) : acc[c][k];
      seen[0][k] = 1;
    }
  }
  RowBlock out;
  for (std::size_t k = 0; k < bound; ++k) {
    if (seen[0][k]) out.push(k, acc[0][k]);
  }
  return out;
}

/// Sort-based grouped reduction for wide key domains: parallel sort by key,
/// one combining sweep. Output ascending by key.
template <typename Combine>
RowBlock sorted_reduce_by_key(Executor& ex, const RowBlock& b, Combine combine) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows = to_rows(b);
  parallel_sort(ex, rows.begin(), rows.end(),
                [](const auto& a, const auto& c) { return a.first < c.first; });
  RowBlock out;
  for (std::size_t i = 0; i < rows.size();) {
    std::uint64_t v = rows[i].second;
    const std::uint64_t k = rows[i].first;
    std::size_t j = i + 1;
    for (; j < rows.size() && rows[j].first == k; ++j) v = combine(v, rows[j].second);
    out.push(k, v);
    i = j;
  }
  return out;
}

/// Radix-partitioned hash join. Both sides scatter into kJoinRadix
/// partitions by a key hash; each partition builds a chained hash table
/// over the build side and probes with its probe rows. Partitions whose
/// probe share is oversized are split into up to `skew_fanout` probe
/// sub-ranges that share one build table — the skew-salting analogue for a
/// shared-memory backend. Emit: void(k, build_v, probe_v, RowBlock& out),
/// called once per matching pair; per-(sub)task outputs concatenate in
/// deterministic task order.
inline constexpr std::size_t kJoinRadix = 64;

template <typename Emit>
RowBlock radix_hash_join(Executor& ex, const RowBlock& build,
                         const RowBlock& probe, std::uint32_t skew_fanout,
                         Emit emit) {
  constexpr std::size_t P = kJoinRadix;
  auto part_of = [](std::uint64_t k) {
    return static_cast<std::size_t>(mix64(k) & (P - 1));
  };
  // Scatter both sides (sequential: two cache-friendly passes; the joins
  // themselves dominate).
  std::vector<RowBlock> bp(P), pp(P);
  {
    std::vector<std::size_t> bh(P, 0), ph(P, 0);
    for (std::uint64_t k : build.key) ++bh[part_of(k)];
    for (std::uint64_t k : probe.key) ++ph[part_of(k)];
    for (std::size_t p = 0; p < P; ++p) {
      bp[p].reserve(bh[p]);
      pp[p].reserve(ph[p]);
    }
    for (std::size_t i = 0; i < build.size(); ++i) {
      bp[part_of(build.key[i])].push(build.key[i], build.val[i]);
    }
    for (std::size_t i = 0; i < probe.size(); ++i) {
      pp[part_of(probe.key[i])].push(probe.key[i], probe.val[i]);
    }
  }
  // Chained hash tables per partition, built in parallel.
  struct Table {
    std::vector<std::uint32_t> head;  // slot -> first row index + 1 (0 = none)
    std::vector<std::uint32_t> next;  // row -> next row with same slot + 1
    std::size_t mask = 0;
  };
  std::vector<Table> tables(P);
  parallel_for(ex, 0, P, [&](std::size_t p) {
    const RowBlock& bb = bp[p];
    Table& t = tables[p];
    std::size_t cap = 8;
    while (cap < bb.size() * 2) cap <<= 1;
    t.mask = cap - 1;
    t.head.assign(cap, 0);
    t.next.assign(bb.size(), 0);
    for (std::size_t i = 0; i < bb.size(); ++i) {
      const std::size_t slot = mix64(bb.key[i]) >> 6 & t.mask;
      t.next[i] = t.head[slot];
      t.head[slot] = static_cast<std::uint32_t>(i + 1);
    }
  });
  // Probe task list: oversized partitions split into skew_fanout sub-ranges.
  struct ProbeTask {
    std::size_t part, lo, hi;
  };
  std::vector<ProbeTask> ptasks;
  const std::size_t avg = std::max<std::size_t>(1, probe.size() / P);
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t np = pp[p].size();
    const std::size_t fan =
        (skew_fanout > 1 && np > avg * 2) ? skew_fanout : 1;
    const std::size_t step = (np + fan - 1) / std::max<std::size_t>(fan, 1);
    for (std::size_t lo = 0; lo < np; lo += std::max<std::size_t>(step, 1)) {
      ptasks.push_back({p, lo, std::min(lo + std::max<std::size_t>(step, 1), np)});
    }
    if (np == 0) ptasks.push_back({p, 0, 0});
  }
  std::vector<RowBlock> outs(ptasks.size());
  parallel_for(ex, 0, ptasks.size(), [&](std::size_t ti) {
    const ProbeTask& pt = ptasks[ti];
    const RowBlock& bb = bp[pt.part];
    const RowBlock& qq = pp[pt.part];
    const Table& t = tables[pt.part];
    RowBlock& out = outs[ti];
    if (bb.empty()) return;
    for (std::size_t i = pt.lo; i < pt.hi; ++i) {
      const std::uint64_t k = qq.key[i];
      for (std::uint32_t j = t.head[mix64(k) >> 6 & t.mask]; j != 0;
           j = t.next[j - 1]) {
        if (bb.key[j - 1] == k) emit(k, bb.val[j - 1], qq.val[i], out);
      }
    }
  });
  RowBlock out;
  std::size_t total = 0;
  for (const RowBlock& o : outs) total += o.size();
  out.reserve(total);
  for (const RowBlock& o : outs) append(out, o);
  return out;
}

}  // namespace hpbdc::dataflow::columnar
