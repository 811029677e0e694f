#pragma once
// Host-specialised kernels. A kernel keeps a list of its bodies ordered
// narrowest to widest: scalar, then AVX2, then AVX-512 where it has one. The
// list holds every body compiled in that this CPU can run, and the kernel
// dispatches once per process to the last entry, so the list the tests check
// is the list dispatch picks from. storage::dot (scalar, AVX2) and
// plan::SourceGen::fill (scalar, AVX2, AVX-512) do this.
//
// The vector bodies compile only where HPBDC_X86_SIMD is defined (x86-64
// under GCC or Clang, whose __attribute__((target(...))) builds one function
// for AVX2 or AVX-512 without changing the flags of the rest of the file).
// A helper that takes or returns a 256- or 512-bit vector carries the same
// target attribute as its caller, or GCC warns (-Wpsabi) that its ABI
// changes. __builtin_cpu_supports checks both the CPU's feature bits and
// that the OS saves the wider registers (XCR0), so a body it admits can run.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HPBDC_X86_SIMD 1
#include <immintrin.h>
#endif

namespace hpbdc {

/// Whether this CPU runs AVX2 code (always false where no vector body is
/// compiled in).
inline bool has_avx2() noexcept {
#ifdef HPBDC_X86_SIMD
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// Whether this CPU runs AVX-512F code with the DQ extension (64-bit lane
/// multiplies); always false where no vector body is compiled in.
inline bool has_avx512() noexcept {
#ifdef HPBDC_X86_SIMD
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

}  // namespace hpbdc
