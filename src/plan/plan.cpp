#include "plan/plan.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace hpbdc::plan {

static_assert(static_cast<std::size_t>(OpKind::kFused) + 1 == kOpKindCount,
              "kOpKindCount out of sync with OpKind — update it and every "
              "switch the -Wswitch warnings point at");

const char* op_name(OpKind k) {
  // No default: -Wswitch turns a forgotten kind into a build warning instead
  // of garbage in a shrink --replay line.
  switch (k) {
    case OpKind::kSource: return "source";
    case OpKind::kMap: return "map";
    case OpKind::kFilter: return "filter";
    case OpKind::kFlatMap: return "flat_map";
    case OpKind::kReduceByKey: return "reduce_by_key";
    case OpKind::kJoin: return "join";
    case OpKind::kSortBy: return "sort_by";
    case OpKind::kDistinct: return "distinct";
    case OpKind::kMapValues: return "map_values";
    case OpKind::kFilterKey: return "filter_key";
    case OpKind::kFused: return "fused";
  }
  return "invalid";  // unreachable for in-range values
}

std::string LogicalPlan::describe() const {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& nd = nodes[i];
    if (!out.empty()) out += ' ';
    out += std::to_string(i);
    out += ':';
    out += op_name(nd.op);
    if (nd.op == OpKind::kFused) {
      out += '[';
      for (std::size_t s = 0; s < nd.steps.size(); ++s) {
        if (s) out += '+';
        out += op_name(nd.steps[s].op);
      }
      out += ']';
    }
    if (nd.left != PlanNode::kNoParent) {
      out += '(';
      out += std::to_string(nd.left);
      if (nd.right != PlanNode::kNoParent) {
        out += ',';
        out += std::to_string(nd.right);
      }
      out += ')';
    }
    if (nd.checkpoint) out += '*';
    if (nd.combine_output) out += "+combine";
    // Non-default source shapes and cost annotations render as suffixes so
    // every historical describe() string stays byte-identical.
    if (nd.key_domain != 0 || nd.skew != 0 || nd.distinct_keys) {
      out += "{d" + std::to_string(nd.key_domain);
      if (nd.distinct_keys) out += ",dk";
      if (nd.skew != 0) out += ",sk" + std::to_string(nd.skew);
      out += '}';
    }
    if (!nd.build_left) out += "+br";
    if (nd.salt_fanout != 0) out += "+salt" + std::to_string(nd.salt_fanout);
  }
  return out;
}

std::vector<Row> source_rows(std::uint64_t salt, std::uint64_t n) {
  return source_rows_ex(salt, n, 0, 0, false);
}

std::vector<Row> source_slice(const SourceGen& gen, std::uint64_t n,
                              std::uint64_t task, std::uint64_t ntasks) {
  std::vector<Row> out;
  out.reserve(n > task ? (n - task - 1) / ntasks + 1 : 0);
  for (std::uint64_t i = task; i < n; i += ntasks) out.push_back(gen.row(i));
  return out;
}

std::vector<Row> source_rows_ex(std::uint64_t salt, std::uint64_t n,
                                std::uint64_t key_domain,
                                std::uint64_t skew_permille,
                                bool distinct_keys) {
  return source_slice(SourceGen(salt, key_domain, skew_permille, distinct_keys),
                      n, 0, 1);
}

Row map_row(const Row& r, std::uint64_t salt) {
  return {mix64(r.first * 0x9e3779b97f4a7c15ULL + salt) % kKeyDomain,
          r.second * 6364136223846793005ULL + salt};
}

Row map_value_row(const Row& r, std::uint64_t salt) {
  return {r.first, mix64(r.second + salt) * 6364136223846793005ULL + salt};
}

bool filter_keep(const Row& r, std::uint64_t salt) {
  return (mix64(r.first ^ (r.second * 3) ^ salt) & 1) == 0;
}

bool filter_key_keep(const Row& r, std::uint64_t salt) {
  return (mix64(r.first * 0x94d049bb133111ebULL + salt) & 1) == 0;
}

void flat_map_row(const Row& r, std::uint64_t salt, std::vector<Row>& out) {
  const std::uint64_t n = mix64(r.first ^ r.second ^ salt) % 3;  // 0..2 copies
  for (std::uint64_t j = 0; j < n; ++j) {
    out.emplace_back(mix64(r.first + j + salt) % kKeyDomain, r.second + j * salt);
  }
}

std::uint64_t reduce_combine(std::uint64_t a, std::uint64_t b) {
  return a + b;  // wrapping sum: commutative and associative
}

Row join_rows(std::uint64_t k, std::uint64_t v, std::uint64_t w) {
  return {k, v * 1000003ULL + mix64(w)};
}

std::uint64_t sort_key(const Row& r, std::uint64_t salt) {
  return mix64(r.first ^ salt);
}

bool is_narrow(OpKind k) {
  switch (k) {
    case OpKind::kMap:
    case OpKind::kMapValues:
    case OpKind::kFilter:
    case OpKind::kFilterKey:
    case OpKind::kFlatMap:
      return true;
    case OpKind::kSource:
    case OpKind::kReduceByKey:
    case OpKind::kJoin:
    case OpKind::kSortBy:
    case OpKind::kDistinct:
    case OpKind::kFused:
      return false;
  }
  return false;
}

std::vector<Row> apply_steps(const std::vector<NarrowStep>& steps,
                             std::size_t first, std::vector<Row> rows) {
  for (std::size_t s = first; s < steps.size(); ++s) {
    const std::uint64_t salt = steps[s].salt;
    switch (steps[s].op) {
      case OpKind::kMap:
        for (Row& r : rows) r = map_row(r, salt);
        break;
      case OpKind::kMapValues:
        for (Row& r : rows) r = map_value_row(r, salt);
        break;
      case OpKind::kFilter:
        std::erase_if(rows, [salt](const Row& r) { return !filter_keep(r, salt); });
        break;
      case OpKind::kFilterKey:
        std::erase_if(rows,
                      [salt](const Row& r) { return !filter_key_keep(r, salt); });
        break;
      case OpKind::kFlatMap: {
        std::vector<Row> next;
        for (const Row& r : rows) flat_map_row(r, salt, next);
        rows = std::move(next);
        break;
      }
      case OpKind::kSource:
      case OpKind::kReduceByKey:
      case OpKind::kJoin:
      case OpKind::kSortBy:
      case OpKind::kDistinct:
      case OpKind::kFused:
        // A source head is materialized by the caller; wide ops and nested
        // fused nodes never appear inside a pipeline.
        break;
    }
  }
  return rows;
}

std::vector<Row> combine_rows(std::vector<Row> rows) {
  // Sort by key, then fold each run of one key into its first row. The
  // order inside a run is free: reduce_combine is a commutative sum.
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (const Row& r : rows) {
    if (out != 0 && rows[out - 1].first == r.first) {
      rows[out - 1].second = reduce_combine(rows[out - 1].second, r.second);
    } else {
      rows[out++] = r;
    }
  }
  rows.resize(out);
  return rows;
}

Bytes canonical_bytes(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return to_bytes(rows);
}

namespace {

/// Order-sensitive hash fold (parents and fused steps are sequences).
constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t v) noexcept {
  return mix64(h ^ (mix64(v) + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4)));
}

std::uint64_t node_fingerprint(const LogicalPlan& plan, std::size_t i,
                               std::vector<std::uint64_t>& memo) {
  if (memo[i] != 0) return memo[i];
  const PlanNode& nd = plan.nodes[i];
  std::uint64_t h = fold(0x5e97c6a1u, static_cast<std::uint64_t>(nd.op));
  h = fold(h, nd.salt);
  h = fold(h, nd.rows);
  h = fold(h, nd.combine_output ? 1 : 0);
  // Source shape and cost-model annotations. Defaults fold to the same
  // stream as before these fields existed only where noted; the guard on
  // the annotation block keeps all historical fingerprints stable.
  if (nd.key_domain != 0 || nd.skew != 0 || nd.distinct_keys ||
      !nd.build_left || nd.salt_fanout != 0 || !nd.hot_keys.empty()) {
    h = fold(h, 0x73686170u);  // 'shap'
    h = fold(h, nd.key_domain);
    h = fold(h, nd.skew);
    h = fold(h, nd.distinct_keys ? 1 : 0);
    h = fold(h, nd.build_left ? 1 : 0);
    h = fold(h, nd.salt_fanout);
    h = fold(h, nd.hot_keys.size());
    for (std::uint64_t k : nd.hot_keys) h = fold(h, k);
  }
  for (const NarrowStep& s : nd.steps) {
    h = fold(h, static_cast<std::uint64_t>(s.op));
    h = fold(h, s.salt);
    h = fold(h, s.rows);
    if (s.key_domain != 0 || s.skew != 0 || s.distinct_keys) {
      h = fold(h, 0x73746570u);  // 'step'
      h = fold(h, s.key_domain);
      h = fold(h, s.skew);
      h = fold(h, s.distinct_keys ? 1 : 0);
    }
  }
  // Distinct sentinels for "no parent" keep map(x) and map(x, phantom)
  // shapes apart; parents precede children, so the recursion terminates.
  h = fold(h, nd.left == PlanNode::kNoParent
                   ? 0x6e6f6e65u
                   : node_fingerprint(plan, nd.left, memo));
  h = fold(h, nd.right == PlanNode::kNoParent
                   ? 0x6e6f6e32u
                   : node_fingerprint(plan, nd.right, memo));
  if (h == 0) h = 1;  // 0 is the memo's "unset"
  memo[i] = h;
  return h;
}

}  // namespace

std::uint64_t fingerprint(const LogicalPlan& plan) {
  std::vector<std::uint64_t> memo(plan.nodes.size(), 0);
  std::vector<std::uint64_t> sinks;
  sinks.reserve(plan.sinks.size());
  for (std::size_t s : plan.sinks) {
    sinks.push_back(node_fingerprint(plan, s, memo));
  }
  // Sinks fold in sorted-hash order: the result is a function of the sink
  // SET, not of how the construction happened to number the nodes.
  std::sort(sinks.begin(), sinks.end());
  std::uint64_t h = fold(0x706c616eu, sinks.size());
  for (std::uint64_t s : sinks) h = fold(h, s);
  // stats_salt marks a cost-optimized plan; 0 (never a valid salt) keeps
  // every pre-cost fingerprint unchanged.
  if (plan.stats_salt != 0) h = fold(h, fold(0x636f7374u, plan.stats_salt));
  return h;
}

std::vector<std::uint64_t> key_upper_bounds(const LogicalPlan& plan) {
  std::vector<std::uint64_t> bound(plan.nodes.size(), kKeyDomain);
  auto step_bound = [](const NarrowStep& s, std::uint64_t in) {
    switch (s.op) {
      case OpKind::kSource:
        return s.key_domain == 0 ? kKeyDomain : s.key_domain;
      case OpKind::kMap:
      case OpKind::kFlatMap:
        return kKeyDomain;  // key remix lands in the default domain
      default:
        return in;  // key-preserving
    }
  };
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& nd = plan.nodes[i];
    const std::uint64_t l =
        nd.left == PlanNode::kNoParent ? kKeyDomain : bound[nd.left];
    const std::uint64_t r =
        nd.right == PlanNode::kNoParent ? kKeyDomain : bound[nd.right];
    switch (nd.op) {
      case OpKind::kSource:
        bound[i] = nd.key_domain == 0 ? kKeyDomain : nd.key_domain;
        break;
      case OpKind::kMap:
      case OpKind::kFlatMap:
        bound[i] = kKeyDomain;
        break;
      case OpKind::kJoin:
        bound[i] = std::min(l, r);  // inner join: surviving keys in both
        break;
      case OpKind::kFused: {
        std::uint64_t b = l;
        for (const NarrowStep& s : nd.steps) b = step_bound(s, b);
        bound[i] = b;
        break;
      }
      default:  // filter/filter_key/map_values/reduce/sort/distinct
        bound[i] = l;
        break;
    }
  }
  return bound;
}

}  // namespace hpbdc::plan
