#include "storage/gf256.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HPBDC_GF256_SSSE3 1
#include <tmmintrin.h>
#endif

namespace hpbdc::storage {
namespace {

using Kernel = void (*)(const std::uint8_t*, const std::uint8_t*, std::uint8_t*,
                        std::size_t) noexcept;

void mul_add_scalar(const std::uint8_t* tbl, const std::uint8_t* src,
                    std::uint8_t* dst, std::size_t len) noexcept {
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] ^= static_cast<std::uint8_t>(tbl[src[i] & 0x0f] ^ tbl[16 + (src[i] >> 4)]);
  }
}

#ifdef HPBDC_GF256_SSSE3
__attribute__((target("ssse3"))) void mul_add_ssse3(const std::uint8_t* tbl,
                                                    const std::uint8_t* src,
                                                    std::uint8_t* dst,
                                                    std::size_t len) noexcept {
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tbl));
  const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tbl + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i p = _mm_xor_si128(
        _mm_shuffle_epi8(lo, _mm_and_si128(s, mask)),
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask)));
    __m128i* d = reinterpret_cast<__m128i*>(dst + i);
    _mm_storeu_si128(d, _mm_xor_si128(_mm_loadu_si128(d), p));
  }
  mul_add_scalar(tbl, src + i, dst + i, len - i);
}
#endif

Kernel pick_kernel() noexcept {
#ifdef HPBDC_GF256_SSSE3
  __builtin_cpu_init();
  if (__builtin_cpu_supports("ssse3")) return mul_add_ssse3;
#endif
  return mul_add_scalar;
}

}  // namespace

void mul_add(const MulTable& c, const std::uint8_t* src, std::uint8_t* dst,
             std::size_t len) noexcept {
  static const Kernel kernel = pick_kernel();
  kernel(c.t.data(), src, dst, len);
}

}  // namespace hpbdc::storage
