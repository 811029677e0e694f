#pragma once
// Vectorized (batch-at-a-time) execution kernels over column-major row
// blocks, the execution engine the plan lowering uses: a struct-of-arrays
// RowBlock for the plan IR's (u64 key, u64 value) rows, plus the operator
// kernels — transform/filter loops with in-place compaction (the
// selection-vector effect without materializing one), a hash join that is
// key-indexed over small key domains, and dense/sort-based grouped
// reduction. All kernels are deterministic and generic over the row
// functions so the plan layer can instantiate them with its operator
// semantics without this header depending on plan/.

#include <algorithm>
#include <bit>
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
/// per-chunk block; chunks concatenate in order (deterministic). Each chunk
/// calls its own copy of fn, so fn may keep mutable scratch state.
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
      tg.run([kp, vp, fn, lo, hi, &part = parts[c]]() mutable {
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

/// Hash join that reads both blocks in place. The build side chains off one
/// head array plus a `next` array of row indices + 1 (0 ends a chain),
/// threaded back to front so every chain runs in build order.
/// - dense_bound > 0 promises that every key that can match is below it:
///   the head array is indexed by the key itself, with no hash and no key
///   compare, and a build or probe row whose key is >= dense_bound is
///   skipped with one compare.
/// - dense_bound == 0 indexes bit_ceil(2 * build rows) head slots by
///   mix64(key), and each chain step compares keys.
/// The probe block is read in place in pick_grain row chunks, each probed
/// into a block of its own; the chunk blocks are then copied in parallel
/// to their offsets in the output. So the output holds probe order, and
/// build order within one probe row, whatever the executor's thread count.
/// JoinRow: std::pair<std::uint64_t, std::uint64_t>(k, build_v, probe_v),
/// called once per matching pair.
template <typename JoinRow>
RowBlock hash_join(Executor& ex, const RowBlock& build, const RowBlock& probe,
                   std::uint64_t dense_bound, JoinRow join_row) {
  RowBlock out;
  const std::size_t nb = build.size();
  const std::size_t np = probe.size();
  if (nb == 0 || np == 0) return out;
  const bool dense = dense_bound != 0;
  const std::size_t slots =
      dense ? static_cast<std::size_t>(dense_bound) : std::bit_ceil(2 * nb);
  const std::uint64_t mask = slots - 1;
  std::vector<std::uint32_t> head(slots, 0);
  std::vector<std::uint32_t> next(nb, 0);
  for (std::size_t i = nb; i-- > 0;) {
    const std::uint64_t k = build.key[i];
    if (dense && k >= dense_bound) continue;
    const std::size_t s = dense ? k : mix64(k) & mask;
    next[i] = head[s];
    head[s] = static_cast<std::uint32_t>(i + 1);
  }
  // fn(j) for every build row j matching probe key k, in build order.
  const auto for_each_match = [&, bk = build.key.data()](std::uint64_t k, auto fn) {
    if (dense) {
      if (k >= dense_bound) return;
      for (std::uint32_t j = head[k]; j != 0; j = next[j - 1]) fn(j - 1);
    } else {
      for (std::uint32_t j = head[mix64(k) & mask]; j != 0; j = next[j - 1]) {
        if (bk[j - 1] == k) fn(j - 1);
      }
    }
  };
  const std::size_t grain = hpbdc::detail::pick_grain(np, ex.num_threads(), 0);
  const std::size_t nchunks = (np + grain - 1) / grain;
  std::vector<RowBlock> parts(nchunks);
  const auto* pk = probe.key.data();
  const auto* pv = probe.val.data();
  parallel_for(ex, 0, nchunks, [&, bv = build.val.data()](std::size_t c) {
    RowBlock& part = parts[c];
    const std::size_t hi = std::min(np, (c + 1) * grain);
    part.reserve(hi - c * grain);
    for (std::size_t i = c * grain; i < hi; ++i) {
      const std::uint64_t k = pk[i];
      for_each_match(k, [&](std::size_t j) {
        const auto [ok, ov] = join_row(k, bv[j], pv[i]);
        part.push(ok, ov);
      });
    }
  });
  std::vector<std::size_t> offset(nchunks + 1, 0);
  for (std::size_t c = 0; c < nchunks; ++c) offset[c + 1] = offset[c] + parts[c].size();
  out.key.resize(offset[nchunks]);
  out.val.resize(offset[nchunks]);
  parallel_for(ex, 0, nchunks, [&](std::size_t c) {
    std::copy(parts[c].key.begin(), parts[c].key.end(), out.key.begin() + offset[c]);
    std::copy(parts[c].val.begin(), parts[c].val.end(), out.val.begin() + offset[c]);
  });
  return out;
}

}  // namespace hpbdc::dataflow::columnar
