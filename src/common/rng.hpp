#pragma once
// Deterministic pseudo-random number generation for hpbdc.
//
// All randomness in the library flows through Rng so that every experiment,
// test, and simulation is reproducible from a single seed. The generator is
// xoshiro256** seeded via splitmix64, which passes BigCrush and is far
// cheaper than std::mt19937_64.

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <limits>
#include <vector>

namespace hpbdc {

/// splitmix64 step; used for seeding and as a standalone mixing function.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derive an independent sub-seed from (a, b): one splitmix64 step from
/// a ^ (b * 2^64/phi).
constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

/// Deterministic xoshiro256** generator. Satisfies
/// std::uniform_random_bit_generator so it can feed <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Standard normal variate (Box–Muller, one value per call).
  double next_gaussian() noexcept {
    double u1 = next_double();
    while (u1 <= 0.0) u1 = next_double();
    const double u2 = next_double();
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  }

  /// Exponential variate with the given rate (mean 1/rate).
  double next_exponential(double rate) noexcept {
    double u = next_double();
    while (u <= 0.0) u = next_double();
    return -std::log(u) / rate;
  }

  /// Bernoulli trial with probability p of returning true.
  bool next_bool(double p) noexcept { return next_double() < p; }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[next_below(i)]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Zipf-distributed integers over [0, n): rank r is drawn with probability
/// proportional to 1/(r+1)^theta. Uses the Gray–Jacobson rejection-inversion
/// style approximation from the YCSB generator, O(1) per draw after O(1)
/// setup (no n-sized tables).
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta) {
    if (n_ == 0) throw std::invalid_argument("ZipfGenerator: n must be >= 1");
    // theta == 1 makes alpha = 1/(1-theta) singular; nudge into the valid
    // range (indistinguishable in distribution at this resolution).
    if (theta_ > 0.999999 && theta_ < 1.000001) theta_ = 0.999999;
    zetan_ = zeta(n);
    zeta2_ = zeta(2);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  std::uint64_t n() const noexcept { return n_; }
  double theta() const noexcept { return theta_; }

  /// Draw one sample in [0, n); rank 0 is the most popular.
  std::uint64_t next(Rng& rng) const noexcept {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= n_ ? n_ - 1 : r;
  }

 private:
  double zeta(std::uint64_t n) const {
    // Exact for small n, Euler–Maclaurin style approximation for large n.
    if (n <= 10000) {
      double sum = 0.0;
      for (std::uint64_t i = 1; i <= n; ++i) sum += std::pow(1.0 / static_cast<double>(i), theta_);
      return sum;
    }
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= 10000; ++i) sum += std::pow(1.0 / static_cast<double>(i), theta_);
    // Integral tail from 10000 to n of x^-theta dx.
    sum += (std::pow(static_cast<double>(n), 1.0 - theta_) -
            std::pow(10000.0, 1.0 - theta_)) /
           (1.0 - theta_);
    return sum;
  }

  std::uint64_t n_;
  double theta_;
  double zetan_{}, zeta2_{}, alpha_{}, eta_{};
};

}  // namespace hpbdc
