#pragma once
// Probabilistic sketches — the standard approximate-aggregation toolkit of
// big-data engines:
//   BloomFilter     — approximate membership, no false negatives.
//   HyperLogLog     — cardinality estimation in O(2^p) bytes (~1.04/sqrt(m)
//                     relative error), with merge.
//   CountMinSketch  — frequency estimation with one-sided error, with merge.
//   ReservoirSample — uniform k-sample over a stream (Vitter's algorithm R).
// All are deterministic given their inputs (hash-based, no hidden RNG except
// the reservoir, which takes an explicit Rng).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace hpbdc {

/// Bloom filter sized for `expected_items` at `fp_rate` false positives.
class BloomFilter {
 public:
  BloomFilter(std::size_t expected_items, double fp_rate = 0.01) {
    if (expected_items == 0 || fp_rate <= 0 || fp_rate >= 1) {
      throw std::invalid_argument("BloomFilter: bad parameters");
    }
    // Optimal sizing: m = -n ln(p) / ln(2)^2, k = (m/n) ln(2).
    const double n = static_cast<double>(expected_items);
    const double m = -n * std::log(fp_rate) / (std::log(2.0) * std::log(2.0));
    bits_.assign(static_cast<std::size_t>(m / 64.0) + 1, 0);
    hashes_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::round(m / n * std::log(2.0))));
  }

  void add(std::uint64_t item_hash) {
    for (std::size_t i = 0; i < hashes_; ++i) {
      set_bit(nth_hash(item_hash, i));
    }
  }
  void add(std::string_view item) { add(hash_str(item)); }

  /// False negatives never occur; false positives at ~the configured rate.
  bool may_contain(std::uint64_t item_hash) const {
    for (std::size_t i = 0; i < hashes_; ++i) {
      if (!get_bit(nth_hash(item_hash, i))) return false;
    }
    return true;
  }
  bool may_contain(std::string_view item) const { return may_contain(hash_str(item)); }

  std::size_t bit_count() const noexcept { return bits_.size() * 64; }
  std::size_t hash_count() const noexcept { return hashes_; }

 private:
  // Kirsch–Mitzenmacher double hashing: h_i = h1 + i*h2.
  std::size_t nth_hash(std::uint64_t h, std::size_t i) const noexcept {
    const std::uint64_t h1 = h;
    const std::uint64_t h2 = mix64(h) | 1;
    return static_cast<std::size_t>((h1 + i * h2) % bit_count());
  }
  void set_bit(std::size_t b) noexcept { bits_[b >> 6] |= 1ULL << (b & 63); }
  bool get_bit(std::size_t b) const noexcept { return (bits_[b >> 6] >> (b & 63)) & 1; }

  std::vector<std::uint64_t> bits_;
  std::size_t hashes_ = 0;
};

/// HyperLogLog with 2^precision registers (precision in [4, 18]).
class HyperLogLog {
 public:
  explicit HyperLogLog(int precision = 12) : p_(precision) {
    if (precision < 4 || precision > 18) {
      throw std::invalid_argument("HyperLogLog: precision in [4, 18]");
    }
    registers_.assign(std::size_t{1} << p_, 0);
  }

  void add(std::uint64_t item_hash) {
    const std::size_t idx = static_cast<std::size_t>(item_hash >> (64 - p_));
    const std::uint64_t rest = item_hash << p_;
    // Rank: position of the leftmost 1 in the remaining bits, 1-based.
    const std::uint8_t rank =
        rest == 0 ? static_cast<std::uint8_t>(64 - p_ + 1)
                  : static_cast<std::uint8_t>(__builtin_clzll(rest) + 1);
    registers_[idx] = std::max(registers_[idx], rank);
  }
  void add(std::string_view item) { add(hash_str(item)); }

  double estimate() const {
    const double m = static_cast<double>(registers_.size());
    double sum = 0;
    std::size_t zeros = 0;
    for (auto r : registers_) {
      sum += kInvPow2[r];
      zeros += (r == 0);
    }
    const double alpha = m == 16 ? 0.673
                         : m == 32 ? 0.697
                         : m == 64 ? 0.709
                                   : 0.7213 / (1.0 + 1.079 / m);
    double e = alpha * m * m / sum;
    // Small-range correction (linear counting).
    if (e <= 2.5 * m && zeros != 0) {
      e = m * std::log(m / static_cast<double>(zeros));
    }
    return e;
  }

  /// Theoretical relative standard error for this precision.
  double relative_error() const noexcept {
    return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
  }

  /// Union: pointwise max of registers. Both sketches must share precision.
  void merge(const HyperLogLog& o) {
    if (o.p_ != p_) throw std::invalid_argument("HyperLogLog: precision mismatch");
    for (std::size_t i = 0; i < registers_.size(); ++i) {
      registers_[i] = std::max(registers_[i], o.registers_[i]);
    }
  }

  std::size_t memory_bytes() const noexcept { return registers_.size(); }

 private:
  /// 2^-r for every rank a register can hold (at most 64 - 4 + 1): exact
  /// powers of two, so the table equals std::pow(2.0, -r) bit for bit.
  static constexpr std::array<double, 66> kInvPow2 = [] {
    std::array<double, 66> t{};
    double v = 1.0;
    for (double& x : t) {
      x = v;
      v *= 0.5;
    }
    return t;
  }();

  int p_;
  std::vector<std::uint8_t> registers_;
};

/// Count-min sketch: freq(x) <= estimate(x) <= freq(x) + eps*N whp.
class CountMinSketch {
 public:
  /// eps: additive error fraction of total count; delta: failure probability.
  CountMinSketch(double eps = 0.001, double delta = 0.01) {
    if (eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1) {
      throw std::invalid_argument("CountMinSketch: bad parameters");
    }
    width_ = static_cast<std::size_t>(std::ceil(std::exp(1.0) / eps));
    depth_ = static_cast<std::size_t>(std::ceil(std::log(1.0 / delta)));
    table_.assign(width_ * depth_, 0);
    // Lemire's fastmod magic: ceil(2^128 / width). For every 64-bit x,
    // ((magic * x) mod 2^128) * width / 2^128 == x % width exactly.
    magic_ = ~__uint128_t{0} / width_ + 1;
    seeds_.resize(depth_);
    for (std::size_t d = 0; d < depth_; ++d) seeds_[d] = hash_u64(d + 1);
  }

  void add(std::uint64_t item_hash, std::uint64_t count = 1) {
    for (std::size_t d = 0; d < depth_; ++d) {
      table_[d * width_ + slot(item_hash, d)] += count;
    }
    total_ += count;
  }
  void add(std::string_view item, std::uint64_t count = 1) {
    add(hash_str(item), count);
  }

  std::uint64_t estimate(std::uint64_t item_hash) const {
    std::uint64_t best = ~0ULL;
    for (std::size_t d = 0; d < depth_; ++d) {
      best = std::min(best, table_[d * width_ + slot(item_hash, d)]);
    }
    return best;
  }
  std::uint64_t estimate(std::string_view item) const { return estimate(hash_str(item)); }

  void merge(const CountMinSketch& o) {
    if (o.width_ != width_ || o.depth_ != depth_) {
      throw std::invalid_argument("CountMinSketch: shape mismatch");
    }
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] += o.table_[i];
    total_ += o.total_;
  }

  std::uint64_t total() const noexcept { return total_; }
  std::size_t memory_bytes() const noexcept { return table_.size() * sizeof(std::uint64_t); }
  std::size_t width() const noexcept { return width_; }
  std::size_t depth() const noexcept { return depth_; }

  /// Column of item_hash in row d: hash_combine(hash_u64(d + 1), h) % width,
  /// computed without a division.
  std::size_t slot(std::uint64_t h, std::size_t d) const noexcept {
    const __uint128_t low = magic_ * hash_combine(seeds_[d], h);
    const __uint128_t hi =
        (low >> 64) * width_ +
        ((static_cast<__uint128_t>(static_cast<std::uint64_t>(low)) * width_) >> 64);
    return static_cast<std::size_t>(hi >> 64);
  }

 private:
  std::size_t width_ = 0, depth_ = 0;
  __uint128_t magic_ = 0;
  std::vector<std::uint64_t> seeds_;  // hash_u64(d + 1) per row
  std::vector<std::uint64_t> table_;
  std::uint64_t total_ = 0;
};

/// Uniform k-sample over a stream (algorithm R). Every element seen so far
/// is in the sample with probability k/n.
template <typename T>
class ReservoirSample {
 public:
  explicit ReservoirSample(std::size_t k, std::uint64_t seed = 99)
      : k_(k), rng_(seed) {
    if (k == 0) throw std::invalid_argument("ReservoirSample: k must be >= 1");
  }

  void add(T item) {
    ++seen_;
    if (sample_.size() < k_) {
      sample_.push_back(std::move(item));
      return;
    }
    const std::uint64_t j = rng_.next_below(seen_);
    if (j < k_) sample_[static_cast<std::size_t>(j)] = std::move(item);
  }

  const std::vector<T>& sample() const noexcept { return sample_; }
  std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::size_t k_;
  Rng rng_;
  std::vector<T> sample_;
  std::uint64_t seen_ = 0;
};

}  // namespace hpbdc
