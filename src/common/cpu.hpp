#pragma once
// Host-specialised kernels: a kernel with an AVX2 body compiles it only where
// HPBDC_X86_AVX2 is defined (x86-64 under GCC or Clang, whose
// __attribute__((target("avx2"))) builds one function for AVX2 without
// changing the flags of the rest of the file), and picks the body once per
// process with has_avx2(). storage::dot and plan::SourceGen::fill do this.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HPBDC_X86_AVX2 1
#include <immintrin.h>
#endif

namespace hpbdc {

/// Whether this CPU runs AVX2 code (always false where no AVX2 body is
/// compiled in).
inline bool has_avx2() noexcept {
#ifdef HPBDC_X86_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace hpbdc
