#pragma once
// Hashing utilities shared across the framework: a fast 64-bit byte-string
// hash (FNV-1a with an avalanche finalizer), integer mixing, and combinators.
// These hashes drive shuffle partitioning and the consistent-hash ring, so
// they must be stable across runs and platforms.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hpbdc {

/// 64-bit finalizer from MurmurHash3: full avalanche on a 64-bit value.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// FNV-1a over raw bytes, finalized with mix64 for better bucket dispersion.
constexpr std::uint64_t hash_bytes(const char* data, std::size_t len,
                                   std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

constexpr std::uint64_t hash_str(std::string_view s) noexcept {
  return hash_bytes(s.data(), s.size());
}

constexpr std::uint64_t hash_u64(std::uint64_t x) noexcept { return mix64(x); }

/// boost-style combinator for aggregating field hashes.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) noexcept {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Generic dispatch used by templated containers/partitioners.
template <typename T>
struct Hasher {
  std::uint64_t operator()(const T& v) const noexcept {
    if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      return hash_u64(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      return hash_str(std::string_view(v));
    } else {
      return static_cast<std::uint64_t>(std::hash<T>{}(v));
    }
  }
};

template <typename A, typename B>
struct Hasher<std::pair<A, B>> {
  std::uint64_t operator()(const std::pair<A, B>& p) const noexcept {
    return hash_combine(Hasher<A>{}(p.first), Hasher<B>{}(p.second));
  }
};

}  // namespace hpbdc
