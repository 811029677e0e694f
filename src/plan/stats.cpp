#include "plan/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/hash.hpp"
#include "common/sketch.hpp"

namespace hpbdc::plan {

namespace {

/// Expected distinct keys after n uniform draws over a domain of d keys
/// (coupon-collector coverage). Saturates at d, linear for n << d.
double expected_distinct(double n, double d) {
  if (d <= 0) return 0;
  if (n <= 0) return 0;
  return d * (1.0 - std::exp(-n / d));
}

void sort_hot(std::vector<HotKey>& hot) {
  std::sort(hot.begin(), hot.end(), [](const HotKey& a, const HotKey& b) {
    return a.count != b.count ? a.count > b.count : a.key < b.key;
  });
  if (hot.size() > kMaxHotKeys) hot.resize(kMaxHotKeys);
}

/// The sketch back end over one source's distinct sampled keys:
/// each_key(f) calls f(key, count) once per distinct key, and st holds the
/// source's rows and key bound. HLL registers depend only on the key set,
/// so feeding each distinct key's hash once equals feeding the HLL row by
/// row. Heavy hitters are the keys whose count-min estimate clears the hot
/// threshold. A count-min cell depends only on per-key totals, and a key
/// clears the threshold only if its cell clears it in every row, so the
/// rows are built one at a time and the next only while some key is still
/// a candidate. The first pass hashes each key once, feeds the HLL and
/// fills row 0. Only if a row-0 cell clears the threshold (a skewed source;
/// most have none) does a second pass keep (key, hash, count) for the rows
/// after it. A candidate that survives every row has the minimum of its
/// cells, exactly CountMinSketch::estimate. With a zero threshold the
/// count-min half is skipped, so rows and NDV cost one HLL pass. The
/// linear NDV scale-up overestimates for sparse domains, but the key bound
/// cap makes it exact in the saturated case, which every star-schema domain
/// here is.
template <typename EachKey>
void sketch_keys(const EachKey& each_key, std::uint64_t sample_n,
                 const StatsOptions& opts, NodeStats& st) {
  const double scale = st.rows / static_cast<double>(sample_n);
  const auto threshold = static_cast<std::uint64_t>(
      opts.hot_fraction * static_cast<double>(sample_n));
  HyperLogLog hll(kHllPrecision);
  const CountMinGeometry cms(kCmsEpsilon, kCmsDelta);
  std::vector<std::uint64_t> row;  // one count-min row at a time
  std::size_t distinct = 0;
  if (threshold == 0) {
    each_key([&](std::uint64_t key, std::uint64_t) { hll.add(hash_u64(key)); });
  } else {
    row.resize(cms.width());
    each_key([&](std::uint64_t key, std::uint64_t count) {
      const std::uint64_t h = hash_u64(key);
      hll.add(h);
      row[cms.slot(h, 0)] += count;
      ++distinct;
    });
  }
  st.ndv = std::min(static_cast<double>(st.key_bound), hll.estimate() * scale);
  const auto clears = [threshold](std::uint64_t cell) { return cell >= threshold; };
  if (threshold == 0 || std::none_of(row.begin(), row.end(), clears)) return;
  // CMS only overestimates, so a truly hot key is never dropped; a false
  // positive only costs a wasted salt.
  struct Keyed {
    std::uint64_t key, hash, count;
  };
  struct Candidate {
    std::size_t index;  // into keys
    std::uint64_t est;  // its smallest cell so far
  };
  std::vector<Keyed> keys;
  keys.reserve(distinct);
  std::vector<Candidate> cand;
  each_key([&](std::uint64_t key, std::uint64_t count) {
    const std::uint64_t h = hash_u64(key);
    const std::uint64_t cell = row[cms.slot(h, 0)];
    if (clears(cell)) cand.push_back({keys.size(), cell});
    keys.push_back({key, h, count});
  });
  for (std::size_t d = 1; d < cms.depth() && !cand.empty(); ++d) {
    std::fill(row.begin(), row.end(), 0);
    for (const Keyed& k : keys) row[cms.slot(k.hash, d)] += k.count;
    std::size_t kept = 0;
    for (const Candidate& c : cand) {
      const std::uint64_t cell = row[cms.slot(keys[c.index].hash, d)];
      if (clears(cell)) cand[kept++] = {c.index, std::min(c.est, cell)};
    }
    cand.resize(kept);
  }
  for (const Candidate& c : cand) {
    st.hot.push_back({keys[c.index].key,
                      static_cast<std::uint64_t>(static_cast<double>(c.est) * scale)});
  }
  sort_hot(st.hot);
}

/// Sketch a source: HLL for NDV, CMS for heavy hitters, both over a prefix
/// sample. A prefix is exact because row i of a source is a pure function of
/// (salt, i, shape): the first m rows of an n-row source are the m-row
/// source, and SourceGen::key reads a row's key without its value.
///
/// The sample is reduced to one (key, count) pair per distinct key by one
/// of three front ends, each a visitor for sketch_keys:
///   - distinct-key sources (dimensions) need no generator: keys cycle
///     0..domain-1, so key k occurs sample/domain times, once more when
///     k < sample % domain;
///   - sources whose key bound fits the direct condition count into a dense
///     array indexed by key;
///   - wider domains count into a flat open-addressing table of
///     (key, count) slots.
NodeStats sketch_source(std::uint64_t salt, std::uint64_t rows,
                        std::uint64_t key_domain, std::uint64_t skew,
                        bool distinct_keys, const StatsOptions& opts) {
  NodeStats st;
  st.rows = static_cast<double>(rows);
  const std::uint64_t key_bound = key_domain == 0 ? kKeyDomain : key_domain;
  st.key_bound = key_bound;
  const std::uint64_t sample_n = std::min<std::uint64_t>(rows, opts.sample_rows);
  if (sample_n == 0) return st;
  // A flat table of bit_ceil(2 * distinct-bound) slots: key_bound fitting in
  // it is the direct condition, and the hashed table stays at most half full.
  const std::size_t table_size = std::bit_ceil(2 * std::min(sample_n, key_bound));
  const SourceGen gen(salt, key_domain, skew, distinct_keys);
  if (distinct_keys) {
    const std::uint64_t full = sample_n / key_bound, rest = sample_n % key_bound;
    const std::uint64_t distinct = std::min(sample_n, key_bound);
    sketch_keys(
        [&](const auto& f) {
          for (std::uint64_t k = 0; k < distinct; ++k) f(k, full + (k < rest));
        },
        sample_n, opts, st);
  } else if (key_bound <= table_size &&
             sample_n <= std::numeric_limits<std::uint32_t>::max()) {
    // Every source key is < key_bound, so a key is its own count slot.
    std::vector<std::uint32_t> counts(key_bound);
    gen.for_each_batch(0, 1, sample_n, false,
                       [&counts](const std::uint64_t* keys, const std::uint64_t*,
                                 std::size_t m) {
                         for (std::size_t j = 0; j < m; ++j) ++counts[keys[j]];
                       });
    sketch_keys(
        [&](const auto& f) {
          for (std::uint64_t k = 0; k < key_bound; ++k) {
            if (counts[k] != 0) f(k, counts[k]);
          }
        },
        sample_n, opts, st);
  } else {
    // Linear probing; count 0 marks an empty slot.
    struct KeyCount {
      std::uint64_t key = 0;
      std::uint64_t count = 0;
    };
    std::vector<KeyCount> table(table_size);
    const std::size_t mask = table_size - 1;
    gen.for_each_batch(0, 1, sample_n, false,
                       [&table, mask](const std::uint64_t* keys, const std::uint64_t*,
                                      std::size_t m) {
                         for (std::size_t j = 0; j < m; ++j) {
                           const std::uint64_t key = keys[j];
                           std::size_t i = static_cast<std::size_t>(hash_u64(key)) & mask;
                           while (table[i].count != 0 && table[i].key != key) {
                             i = (i + 1) & mask;
                           }
                           table[i].key = key;
                           ++table[i].count;
                         }
                       });
    sketch_keys(
        [&](const auto& f) {
          for (const KeyCount& kc : table) {
            if (kc.count != 0) f(kc.key, kc.count);
          }
        },
        sample_n, opts, st);
  }
  return st;
}

/// Propagate stats through one narrow/wide unary operator.
NodeStats apply_op(NodeStats in, OpKind op, std::uint64_t salt) {
  NodeStats out = std::move(in);
  switch (op) {
    case OpKind::kMap:
    case OpKind::kFlatMap:
      // Key remix into the default domain (flat_map emits 0..2 rows per
      // input, expectation 1). Hot keys do not survive a remix.
      out.key_bound = kKeyDomain;
      out.ndv = expected_distinct(out.rows, static_cast<double>(kKeyDomain));
      out.hot.clear();
      break;
    case OpKind::kFilter: {
      // Salted hash of (key, value): an even coin per row, uniform across
      // keys — counts halve everywhere.
      out.rows *= 0.5;
      for (HotKey& h : out.hot) h.count /= 2;
      out.ndv = std::min(out.ndv, out.rows);
      break;
    }
    case OpKind::kFilterKey: {
      // The predicate reads ONLY the key, so hot keys are decided exactly;
      // the uniform half of the key space still halves.
      double hot_before = 0, hot_after = 0;
      std::vector<HotKey> kept;
      for (const HotKey& h : out.hot) {
        hot_before += static_cast<double>(h.count);
        if (filter_key_keep({h.key, 0}, salt)) {
          hot_after += static_cast<double>(h.count);
          kept.push_back(h);
        }
      }
      out.hot = std::move(kept);
      out.rows = std::max(0.0, (out.rows - hot_before) * 0.5 + hot_after);
      out.ndv = std::min(out.ndv * 0.5, out.rows);
      break;
    }
    case OpKind::kMapValues:
    case OpKind::kSortBy:
      break;  // key-preserving row-preserving
    case OpKind::kDistinct:
      // Values are salted 64-bit mixes, so (key, value) pairs are nearly
      // all distinct already — treated as row-preserving.
      break;
    case OpKind::kReduceByKey:
      out.rows = out.ndv;
      out.hot.clear();  // one row per key: no key is hot anymore
      break;
    case OpKind::kSource:
    case OpKind::kJoin:
    case OpKind::kFused:
      break;  // handled by the caller
  }
  return out;
}

NodeStats join_stats(const NodeStats& l, const NodeStats& r) {
  NodeStats out;
  out.key_bound = std::min(l.key_bound, r.key_bound);
  const double max_ndv = std::max({l.ndv, r.ndv, 1.0});
  out.rows = l.rows * r.rows / max_ndv;
  out.ndv = std::min({l.ndv, r.ndv, out.rows});
  // A hot key on one side fans out by the other side's average key
  // multiplicity; hot on both sides multiplies.
  const double l_mult = l.ndv > 0 ? std::max(1.0, l.rows / l.ndv) : 1.0;
  const double r_mult = r.ndv > 0 ? std::max(1.0, r.rows / r.ndv) : 1.0;
  auto count_on = [](const std::vector<HotKey>& hot, std::uint64_t k) {
    for (const HotKey& h : hot) {
      if (h.key == k) return h.count;
    }
    return std::uint64_t{0};
  };
  for (const HotKey& h : l.hot) {
    const std::uint64_t rc = count_on(r.hot, h.key);
    const double c = rc != 0 ? static_cast<double>(h.count) * static_cast<double>(rc)
                             : static_cast<double>(h.count) * r_mult;
    out.hot.push_back({h.key, static_cast<std::uint64_t>(c)});
  }
  for (const HotKey& h : r.hot) {
    if (count_on(l.hot, h.key) != 0) continue;  // merged above
    out.hot.push_back(
        {h.key, static_cast<std::uint64_t>(static_cast<double>(h.count) * l_mult)});
  }
  sort_hot(out.hot);
  return out;
}

}  // namespace

std::vector<NodeStats> collect_stats(const LogicalPlan& plan,
                                     const StatsOptions& opts) {
  const std::vector<std::uint64_t> bounds = key_upper_bounds(plan);
  std::vector<NodeStats> stats(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& nd = plan.nodes[i];
    switch (nd.op) {
      case OpKind::kSource:
        stats[i] = sketch_source(nd.salt, nd.rows, nd.key_domain, nd.skew,
                                 nd.distinct_keys, opts);
        break;
      case OpKind::kJoin:
        stats[i] = join_stats(stats[nd.left], stats[nd.right]);
        break;
      case OpKind::kFused: {
        NodeStats cur;
        std::size_t first = 0;
        if (nd.steps.front().op == OpKind::kSource) {
          const NarrowStep& s = nd.steps.front();
          cur = sketch_source(s.salt, s.rows, s.key_domain, s.skew,
                              s.distinct_keys, opts);
          first = 1;
        } else {
          cur = stats[nd.left];
        }
        for (std::size_t s = first; s < nd.steps.size(); ++s) {
          cur = apply_op(std::move(cur), nd.steps[s].op, nd.steps[s].salt);
        }
        stats[i] = std::move(cur);
        break;
      }
      default:
        stats[i] = apply_op(stats[nd.left], nd.op, nd.salt);
        break;
    }
    stats[i].key_bound = bounds[i];
    stats[i].ndv = std::min(stats[i].ndv, static_cast<double>(bounds[i]));
  }
  return stats;
}

}  // namespace hpbdc::plan
