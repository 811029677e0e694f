#pragma once
// Probabilistic sketches — the standard approximate-aggregation toolkit of
// big-data engines:
//   HyperLogLog    — cardinality estimation in O(2^p) bytes (~1.04/sqrt(m)
//                    relative error), with merge.
//   CountMinSketch — frequency estimation with one-sided error, with merge;
//                    CountMinGeometry is its shape and column hash alone.
// Both are deterministic given their inputs (hash-based, no hidden RNG).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/hash.hpp"

namespace hpbdc {

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

/// Count-min geometry: the width and depth that (eps, delta) call for, and
/// the column a hash lands in per row. CountMinSketch adds the counters; a
/// caller that builds its own rows (plan/stats) needs the geometry alone.
class CountMinGeometry {
 public:
  /// eps: additive error fraction of total count; delta: failure probability.
  CountMinGeometry(double eps, double delta) {
    if (eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1) {
      throw std::invalid_argument("CountMinSketch: bad parameters");
    }
    width_ = static_cast<std::size_t>(std::ceil(std::exp(1.0) / eps));
    depth_ = static_cast<std::size_t>(std::ceil(std::log(1.0 / delta)));
    // Lemire's fastmod magic: ceil(2^128 / width). For every 64-bit x,
    // ((magic * x) mod 2^128) * width / 2^128 == x % width exactly.
    magic_ = ~__uint128_t{0} / width_ + 1;
    seeds_.resize(depth_);
    for (std::size_t d = 0; d < depth_; ++d) seeds_[d] = hash_u64(d + 1);
  }

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
};

/// Count-min sketch: freq(x) <= estimate(x) <= freq(x) + eps*N whp.
class CountMinSketch : public CountMinGeometry {
 public:
  CountMinSketch(double eps = 0.001, double delta = 0.01)
      : CountMinGeometry(eps, delta), table_(width() * depth(), 0) {}

  void add(std::uint64_t item_hash, std::uint64_t count = 1) {
    for (std::size_t d = 0; d < depth(); ++d) {
      table_[d * width() + slot(item_hash, d)] += count;
    }
    total_ += count;
  }
  void add(std::string_view item, std::uint64_t count = 1) {
    add(hash_str(item), count);
  }

  std::uint64_t estimate(std::uint64_t item_hash) const {
    std::uint64_t best = ~0ULL;
    for (std::size_t d = 0; d < depth(); ++d) {
      best = std::min(best, table_[d * width() + slot(item_hash, d)]);
    }
    return best;
  }
  std::uint64_t estimate(std::string_view item) const { return estimate(hash_str(item)); }

  void merge(const CountMinSketch& o) {
    if (o.width() != width() || o.depth() != depth()) {
      throw std::invalid_argument("CountMinSketch: shape mismatch");
    }
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] += o.table_[i];
    total_ += o.total_;
  }

  std::uint64_t total() const noexcept { return total_; }
  std::size_t memory_bytes() const noexcept { return table_.size() * sizeof(std::uint64_t); }

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t total_ = 0;
};

}  // namespace hpbdc
