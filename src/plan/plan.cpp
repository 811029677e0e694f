#include "plan/plan.hpp"

#include <algorithm>

#include "common/cpu.hpp"
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

#ifdef HPBDC_X86_SIMD
namespace {

/// A 64-bit constant split into its 32-bit halves, each broadcast to all
/// four lanes, for mul64.
struct Split64 {
  __m256i lo, hi;
};

__attribute__((target("avx2"))) inline Split64 split64(std::uint64_t c) noexcept {
  return {_mm256_set1_epi64x(static_cast<long long>(c & 0xffffffffULL)),
          _mm256_set1_epi64x(static_cast<long long>(c >> 32))};
}

/// a * c mod 2^64 per lane, from three 32x32 products (the hi * hi product
/// only reaches bits past 64).
__attribute__((target("avx2"))) inline __m256i mul64(__m256i a, Split64 c) noexcept {
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), c.lo),
                                         _mm256_mul_epu32(a, c.hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, c.lo), _mm256_slli_epi64(cross, 32));
}

/// x ^ (x >> S) per lane.
template <int S>
__attribute__((target("avx2"))) inline __m256i xorshift(__m256i x) noexcept {
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, S));
}

__attribute__((target("avx2"))) inline __m256i set4(std::uint64_t a, std::uint64_t b,
                                                    std::uint64_t c, std::uint64_t d) noexcept {
  return _mm256_setr_epi64x(static_cast<long long>(a), static_cast<long long>(b),
                            static_cast<long long>(c), static_cast<long long>(d));
}

__attribute__((target("avx2"))) inline __m256i set1(std::uint64_t a) noexcept {
  return _mm256_set1_epi64x(static_cast<long long>(a));
}

// x >> S per lane, and the product of each lane's low 32 bits, in eight
// lanes. The all-lanes masked forms compile to the same instructions as
// _mm512_srli_epi64 and _mm512_mul_epu32, whose GCC 12 definitions trip
// -Wmaybe-uninitialized.
template <int S>
__attribute__((target("avx512f,avx512dq"))) inline __m512i srl8(__m512i x) noexcept {
  return _mm512_maskz_srli_epi64(0xff, x, S);
}

__attribute__((target("avx512f,avx512dq"))) inline __m512i mul32x8(__m512i a,
                                                                   __m512i b) noexcept {
  return _mm512_maskz_mul_epu32(0xff, a, b);
}

/// x ^ (x >> S) per lane, eight lanes.
template <int S>
__attribute__((target("avx512f,avx512dq"))) inline __m512i xorshift8(__m512i x) noexcept {
  return _mm512_xor_si512(x, srl8<S>(x));
}

__attribute__((target("avx512f,avx512dq"))) inline __m512i set8(std::uint64_t a) noexcept {
  return _mm512_set1_epi64(static_cast<long long>(a));
}

}  // namespace
#endif

/// The bodies of SourceGen::fill. The scalar body is row(i)/key(i) itself;
/// the AVX2 and AVX-512 bodies are the same arithmetic in four and eight
/// 64-bit lanes.
struct detail::FillKernels {
  static void scalar(const SourceGen& g, std::uint64_t first, std::uint64_t stride,
                     std::size_t n, std::uint64_t* keys, std::uint64_t* vals) noexcept {
    std::uint64_t i = first;
    if (vals == nullptr) {
      for (std::size_t j = 0; j < n; ++j, i += stride) keys[j] = g.key(i);
      return;
    }
    for (std::size_t j = 0; j < n; ++j, i += stride) {
      const Row r = g.row(i);
      keys[j] = r.first;
      vals[j] = r.second;
    }
  }

#ifdef HPBDC_X86_SIMD
  /// Whether the lane bodies compute these rows exactly. A key is the high
  /// word of h * domain and a skew roll the high word of low * 1000, each
  /// from two 32x32 products, which is exact while the domain is below
  /// 2^32. A dimension's lanes step i mod domain by (lanes * stride) mod
  /// domain with one conditional subtract, which is exact while the row
  /// index does not wrap past 2^64. A call that fails either runs the
  /// scalar body. Every roll is below 1000, so a skew above 1000 draws the
  /// same as 1000.
  static bool lanes_exact(const SourceGen& g, std::uint64_t first, std::uint64_t stride,
                          std::size_t n) noexcept {
    std::uint64_t last = 0;
    return g.domain_ >> 32 == 0 &&
           !(g.distinct_ && n != 0 &&
             (__builtin_mul_overflow(n - 1, stride, &last) ||
              __builtin_add_overflow(first, last, &last)));
  }

  /// Four rows per step.
  __attribute__((target("avx2"))) static void avx2(const SourceGen& g, std::uint64_t first,
                                                   std::uint64_t stride, std::size_t n,
                                                   std::uint64_t* keys,
                                                   std::uint64_t* vals) noexcept {
    if (!lanes_exact(g, first, stride, n)) {
      scalar(g, first, stride, n, keys, vals);
      return;
    }
    const bool with_vals = vals != nullptr;
    if (g.distinct_) {
      with_vals ? lanes4<true, false, true>(g, first, stride, n, keys, vals)
                : lanes4<true, false, false>(g, first, stride, n, keys, vals);
    } else if (g.skew_ != 0) {
      with_vals ? lanes4<false, true, true>(g, first, stride, n, keys, vals)
                : lanes4<false, true, false>(g, first, stride, n, keys, vals);
    } else {
      with_vals ? lanes4<false, false, true>(g, first, stride, n, keys, vals)
                : lanes4<false, false, false>(g, first, stride, n, keys, vals);
    }
  }

  /// Eight rows per step; AVX-512DQ multiplies 64-bit lanes natively.
  __attribute__((target("avx512f,avx512dq"))) static void avx512(
      const SourceGen& g, std::uint64_t first, std::uint64_t stride, std::size_t n,
      std::uint64_t* keys, std::uint64_t* vals) noexcept {
    if (!lanes_exact(g, first, stride, n)) {
      scalar(g, first, stride, n, keys, vals);
      return;
    }
    const bool with_vals = vals != nullptr;
    if (g.distinct_) {
      with_vals ? lanes8<true, false, true>(g, first, stride, n, keys, vals)
                : lanes8<true, false, false>(g, first, stride, n, keys, vals);
    } else if (g.skew_ != 0) {
      with_vals ? lanes8<false, true, true>(g, first, stride, n, keys, vals)
                : lanes8<false, true, false>(g, first, stride, n, keys, vals);
    } else {
      with_vals ? lanes8<false, false, true>(g, first, stride, n, keys, vals)
                : lanes8<false, false, false>(g, first, stride, n, keys, vals);
    }
  }

  static constexpr std::uint64_t kPhi = 0x9e3779b97f4a7c15ULL;  // mix_seed's and splitmix64's
  static constexpr std::uint64_t kSplitMix1 = 0xbf58476d1ce4e5b9ULL;
  static constexpr std::uint64_t kSplitMix2 = 0x94d049bb133111ebULL;
  static constexpr std::uint64_t kMix1 = 0xff51afd7ed558ccdULL;  // mix64's
  static constexpr std::uint64_t kMix2 = 0xc4ceb9fe1a85ec53ULL;

  template <bool kDistinct, bool kSkew, bool kVals>
  __attribute__((target("avx2"))) static void lanes4(const SourceGen& g, std::uint64_t first,
                                                     std::uint64_t stride, std::size_t n,
                                                     std::uint64_t* keys,
                                                     std::uint64_t* vals) noexcept {
    const std::size_t n4 = n & ~std::size_t{3};
    // Lane l holds row first + (j + l) * stride: its index times phi, and
    // for a dimension its index mod domain.
    const std::uint64_t i1 = first + stride, i2 = i1 + stride, i3 = i2 + stride;
    __m256i iphi = set4(first * kPhi, i1 * kPhi, i2 * kPhi, i3 * kPhi);
    const __m256i iphi_step = set1(4 * stride * kPhi);
    const std::uint64_t d = g.domain_;
    __m256i dkey = set4(first % d, i1 % d, i2 % d, i3 % d);
    const __m256i dkey_step = set1((stride % d) * 4 % d);
    const __m256i domain = set1(d), salt = set1(g.salt_), phi = set1(kPhi);
    const __m256i thousand = set1(1000), skew = set1(std::min<std::uint64_t>(g.skew_, 1000));
    const __m256i hot = set1(g.hot_), value_mix = set1(SourceGen::kValueMix);
    const Split64 sm1 = split64(kSplitMix1), sm2 = split64(kSplitMix2);
    const Split64 mx1 = split64(kMix1), mx2 = split64(kMix2);
    for (std::size_t j = 0; j < n4; j += 4) {
      __m256i h = _mm256_setzero_si256();
      if constexpr (!kDistinct || kVals) {  // mix_seed(salt, i)
        h = _mm256_add_epi64(_mm256_xor_si256(salt, iphi), phi);
        h = mul64(xorshift<30>(h), sm1);
        h = xorshift<31>(mul64(xorshift<27>(h), sm2));
        iphi = _mm256_add_epi64(iphi, iphi_step);
      }
      __m256i key;
      if constexpr (kDistinct) {
        key = dkey;
        dkey = _mm256_add_epi64(dkey, dkey_step);  // below 2 * domain
        dkey = _mm256_sub_epi64(dkey, _mm256_andnot_si256(_mm256_cmpgt_epi64(domain, dkey), domain));
      } else {
        // h * domain = sum * 2^32 + (lo mod 2^32): key = sum >> 32, and the
        // low word's halves are sum mod 2^32 and lo mod 2^32.
        const __m256i lo = _mm256_mul_epu32(h, domain);
        const __m256i sum = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(h, 32), domain),
                                             _mm256_srli_epi64(lo, 32));
        key = _mm256_srli_epi64(sum, 32);
        if constexpr (kSkew) {
          const __m256i roll = _mm256_srli_epi64(
              _mm256_add_epi64(_mm256_mul_epu32(sum, thousand),
                               _mm256_srli_epi64(_mm256_mul_epu32(lo, thousand), 32)),
              32);
          key = _mm256_blendv_epi8(key, hot, _mm256_cmpgt_epi64(skew, roll));
        }
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + j), key);
      if constexpr (kVals) {  // mix64(h ^ kValueMix)
        __m256i v = xorshift<33>(_mm256_xor_si256(h, value_mix));
        v = xorshift<33>(mul64(v, mx1));
        v = xorshift<33>(mul64(v, mx2));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + j), v);
      }
    }
    scalar(g, first + n4 * stride, stride, n - n4, keys + n4, kVals ? vals + n4 : nullptr);
  }

  /// lanes4's arithmetic in eight lanes: splitmix64's and mix64's multiplies
  /// are one _mm512_mullo_epi64 each, and the dimension wrap and the hot-key
  /// select are mask operations.
  template <bool kDistinct, bool kSkew, bool kVals>
  __attribute__((target("avx512f,avx512dq"))) static void lanes8(
      const SourceGen& g, std::uint64_t first, std::uint64_t stride, std::size_t n,
      std::uint64_t* keys, std::uint64_t* vals) noexcept {
    const std::size_t n8 = n & ~std::size_t{7};
    const std::uint64_t d = g.domain_;
    // Lane l holds row first + (j + l) * stride: its index times phi, and
    // for a dimension its index mod domain. Both are built in registers: a
    // stack array of lanes would be placed 64-byte aligned, which ASan's
    // fake stack (detect_stack_use_after_return) does not honour.
    const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    __m512i iphi = _mm512_add_epi64(set8(first * kPhi),
                                    _mm512_mullo_epi64(lane, set8(stride * kPhi)));
    const __m512i iphi_step = set8(8 * stride * kPhi);
    __m512i dkey = _mm512_setzero_si512();
    if constexpr (kDistinct) {
      // (first mod d) + l * (stride mod d) is below 8 * domain; subtracting
      // 4, 2 and 1 domains where each fits leaves it mod domain.
      dkey = _mm512_add_epi64(set8(first % d), _mm512_mullo_epi64(lane, set8(stride % d)));
      for (const std::uint64_t m : {4, 2, 1}) {
        const __m512i md = set8(m * d);
        dkey = _mm512_mask_sub_epi64(dkey, _mm512_cmpge_epu64_mask(dkey, md), dkey, md);
      }
    }
    const __m512i dkey_step = set8((stride % d) * 8 % d);
    const __m512i domain = set8(d), salt = set8(g.salt_), phi = set8(kPhi);
    const __m512i thousand = set8(1000), skew = set8(std::min<std::uint64_t>(g.skew_, 1000));
    const __m512i hot = set8(g.hot_), value_mix = set8(SourceGen::kValueMix);
    const __m512i sm1 = set8(kSplitMix1), sm2 = set8(kSplitMix2);
    const __m512i mx1 = set8(kMix1), mx2 = set8(kMix2);
    for (std::size_t j = 0; j < n8; j += 8) {
      __m512i h = _mm512_setzero_si512();
      if constexpr (!kDistinct || kVals) {  // mix_seed(salt, i)
        h = _mm512_add_epi64(_mm512_xor_si512(salt, iphi), phi);
        h = _mm512_mullo_epi64(xorshift8<30>(h), sm1);
        h = xorshift8<31>(_mm512_mullo_epi64(xorshift8<27>(h), sm2));
        iphi = _mm512_add_epi64(iphi, iphi_step);
      }
      __m512i key;
      if constexpr (kDistinct) {
        key = dkey;
        dkey = _mm512_add_epi64(dkey, dkey_step);  // below 2 * domain
        dkey = _mm512_mask_sub_epi64(dkey, _mm512_cmpge_epu64_mask(dkey, domain), dkey, domain);
      } else {
        // As in lanes4: key = sum >> 32, and the low word's halves are
        // sum mod 2^32 and lo mod 2^32.
        const __m512i lo = mul32x8(h, domain);
        const __m512i sum = _mm512_add_epi64(mul32x8(srl8<32>(h), domain), srl8<32>(lo));
        key = srl8<32>(sum);
        if constexpr (kSkew) {
          const __m512i roll = srl8<32>(
              _mm512_add_epi64(mul32x8(sum, thousand), srl8<32>(mul32x8(lo, thousand))));
          key = _mm512_mask_blend_epi64(_mm512_cmplt_epu64_mask(roll, skew), key, hot);
        }
      }
      _mm512_storeu_si512(keys + j, key);
      if constexpr (kVals) {  // mix64(h ^ kValueMix)
        __m512i v = xorshift8<33>(_mm512_xor_si512(h, value_mix));
        v = xorshift8<33>(_mm512_mullo_epi64(v, mx1));
        v = xorshift8<33>(_mm512_mullo_epi64(v, mx2));
        _mm512_storeu_si512(vals + j, v);
      }
    }
    scalar(g, first + n8 * stride, stride, n - n8, keys + n8, kVals ? vals + n8 : nullptr);
  }
#endif
};

void SourceGen::fill(std::uint64_t first, std::uint64_t stride, std::size_t n,
                     std::uint64_t* keys, std::uint64_t* vals) const noexcept {
  static const detail::FillBody body = detail::fill_bodies().back().body;
  body(*this, first, stride, n, keys, vals);
}

std::vector<detail::NamedFillBody> detail::fill_bodies() {
  std::vector<NamedFillBody> out{{"scalar", FillKernels::scalar}};
#ifdef HPBDC_X86_SIMD
  if (has_avx2()) out.push_back({"avx2", FillKernels::avx2});
  if (has_avx512()) out.push_back({"avx512", FillKernels::avx512});
#endif
  return out;
}

std::vector<Row> source_slice(const SourceGen& gen, std::uint64_t n,
                              std::uint64_t task, std::uint64_t ntasks) {
  std::vector<Row> out;
  const std::uint64_t count = n > task ? (n - task - 1) / ntasks + 1 : 0;
  out.reserve(count);
  gen.for_each_batch(task, ntasks, count, true,
                     [&out](const std::uint64_t* keys, const std::uint64_t* vals,
                            std::size_t m) {
                       for (std::size_t j = 0; j < m; ++j) out.emplace_back(keys[j], vals[j]);
                     });
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
