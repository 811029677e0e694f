#include "storage/gf256.hpp"

#include "common/cpu.hpp"

namespace hpbdc::storage {
namespace {

/// dst[i] for begin <= i < end, one byte at a time.
void dot_scalar_range(const MulTable* coeffs, const std::uint8_t* const* srcs,
                      std::size_t n, std::uint8_t* dst, std::size_t begin,
                      std::size_t end) noexcept {
  for (std::size_t i = begin; i < end; ++i) {
    std::uint8_t acc = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint8_t s = srcs[r][i];
      const auto& t = coeffs[r].t;
      acc ^= static_cast<std::uint8_t>(t[s & 0x0f] ^ t[16 + (s >> 4)]);
    }
    dst[i] = acc;
  }
}

void dot_scalar(const MulTable* coeffs, const std::uint8_t* const* srcs, std::size_t n,
                std::uint8_t* dst, std::size_t len) noexcept {
  dot_scalar_range(coeffs, srcs, n, dst, 0, len);
}

#ifdef HPBDC_X86_SIMD
__attribute__((target("avx2"))) inline __m256i load(const std::uint8_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// One coefficient's table pair, each half broadcast to both 128-bit lanes.
struct Tables32 {
  __m256i lo, hi;
};

__attribute__((target("avx2"))) inline Tables32 broadcast(const MulTable& c) noexcept {
  const auto* t = reinterpret_cast<const __m128i*>(c.t.data());
  return {_mm256_broadcastsi128_si256(_mm_loadu_si128(t)),
          _mm256_broadcastsi128_si256(_mm_loadu_si128(t + 1))};
}

/// c * s for 32 bytes.
__attribute__((target("avx2"))) inline __m256i mul32(Tables32 c, __m256i s,
                                                     __m256i mask) noexcept {
  return _mm256_xor_si256(
      _mm256_shuffle_epi8(c.lo, _mm256_and_si256(s, mask)),
      _mm256_shuffle_epi8(c.hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
}

__attribute__((target("avx2"))) void dot_avx2(const MulTable* coeffs,
                                              const std::uint8_t* const* srcs,
                                              std::size_t n, std::uint8_t* dst,
                                              std::size_t len) noexcept {
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  // 64 bytes per step in two accumulators, so each table pair is loaded
  // once per two vectors.
  for (; i + 64 <= len; i += 64) {
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = _mm256_setzero_si256();
    for (std::size_t r = 0; r < n; ++r) {
      const Tables32 c = broadcast(coeffs[r]);
      const std::uint8_t* s = srcs[r] + i;
      a0 = _mm256_xor_si256(a0, mul32(c, load(s), mask));
      a1 = _mm256_xor_si256(a1, mul32(c, load(s + 32), mask));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), a1);
  }
  for (; i + 32 <= len; i += 32) {
    __m256i a = _mm256_setzero_si256();
    for (std::size_t r = 0; r < n; ++r) {
      a = _mm256_xor_si256(a, mul32(broadcast(coeffs[r]), load(srcs[r] + i), mask));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a);
  }
  dot_scalar_range(coeffs, srcs, n, dst, i, len);
}
#endif

}  // namespace

void dot(const MulTable* coeffs, const std::uint8_t* const* srcs, std::size_t n,
         std::uint8_t* dst, std::size_t len) noexcept {
  static const detail::DotBody body = detail::dot_bodies().back().body;
  body(coeffs, srcs, n, dst, len);
}

std::vector<detail::NamedDotBody> detail::dot_bodies() {
  std::vector<NamedDotBody> out{{"scalar", dot_scalar}};
#ifdef HPBDC_X86_SIMD
  if (has_avx2()) out.push_back({"avx2", dot_avx2});
#endif
  return out;
}

}  // namespace hpbdc::storage
