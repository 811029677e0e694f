#pragma once
// GF(2^8) arithmetic for Reed–Solomon coding, over the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d). Single products (mul/div/inv) use
// exp/log tables, built once at static-init time.
//
// Bulk coding goes through one kernel, dot: dst[i] = sum_r c_r * src_r[i]
// over a whole shard, each dst byte written once (ISA-L's gf_vect_dot_prod).
// Multiplying by c is linear over GF(2), so c*x = c*(x & 0x0f) ^ c*(x & 0xf0),
// and two 16-entry tables hold every product: ISA-L's split-nibble gftbl
// layout (MulTable). On x86-64 CPUs with AVX2 both tables are broadcast to the
// two 128-bit lanes of a register and _mm256_shuffle_epi8 looks up 32 bytes
// per step; every tail shorter than 32 bytes, and every CPU without AVX2,
// takes the scalar loop over the same tables (correct, only slower). The
// body is picked once per process from the CPU's features, not from any
// option, and both bodies give equal bytes.

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hpbdc::storage {

class GF256 {
 public:
  static std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept {
    if (a == 0 || b == 0) return 0;
    const Tables& t = tables();
    return t.exp[t.log[a] + t.log[b]];
  }

  static std::uint8_t div(std::uint8_t a, std::uint8_t b) {
    if (b == 0) throw std::domain_error("GF256: division by zero");
    if (a == 0) return 0;
    const Tables& t = tables();
    return t.exp[t.log[a] + 255 - t.log[b]];
  }

  static std::uint8_t inv(std::uint8_t a) { return div(1, a); }

  static std::uint8_t add(std::uint8_t a, std::uint8_t b) noexcept {
    return a ^ b;  // characteristic 2
  }

  static std::uint8_t exp(int e) noexcept { return tables().exp[((e % 255) + 255) % 255]; }

 private:
  struct Tables {
    std::array<std::uint8_t, 512> exp{};  // doubled to skip the mod-255
    std::array<int, 256> log{};
    Tables() {
      int x = 1;
      for (int i = 0; i < 255; ++i) {
        exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
        log[static_cast<std::size_t>(x)] = i;
        x <<= 1;
        if (x & 0x100) x ^= 0x11d;
      }
      for (int i = 255; i < 512; ++i) exp[static_cast<std::size_t>(i)] = exp[static_cast<std::size_t>(i - 255)];
      log[0] = 0;  // never consulted: mul/div guard zero operands
    }
  };

  static const Tables& tables() noexcept {
    static const Tables t;
    return t;
  }
};

/// Split-nibble product table of one coefficient c: t[i] = c*i and
/// t[16 + i] = c*(i << 4) for i < 16.
struct MulTable {
  std::array<std::uint8_t, 32> t{};

  explicit MulTable(std::uint8_t c) noexcept {
    for (std::uint8_t i = 0; i < 16; ++i) {
      t[i] = GF256::mul(c, i);
      t[16 + i] = GF256::mul(c, static_cast<std::uint8_t>(i << 4));
    }
  }
};

/// dst[i] = sum_r coeffs[r] * srcs[r][i] for i < len: a dot product over n
/// sources, coefficient r given by its table. n = 0 zeroes dst. Unaligned
/// pointers are fine; no source may overlap dst.
void dot(const MulTable* coeffs, const std::uint8_t* const* srcs, std::size_t n,
         std::uint8_t* dst, std::size_t len) noexcept;

namespace detail {

using DotBody = void (*)(const MulTable*, const std::uint8_t* const*, std::size_t,
                         std::uint8_t*, std::size_t) noexcept;

struct NamedDotBody {
  const char* name;
  DotBody body;
};

/// Every dot body compiled in that this CPU can run, narrowest first (scalar,
/// then AVX2). dot runs the last one; tests check them all.
std::vector<NamedDotBody> dot_bodies();

}  // namespace detail

/// Dense matrix over GF(2^8); just enough linear algebra for RS coding.
class GFMatrix {
 public:
  GFMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  std::uint8_t& at(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  std::uint8_t at(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }
  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  static GFMatrix identity(std::size_t n) {
    GFMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
    return m;
  }

  GFMatrix mul(const GFMatrix& o) const {
    if (cols_ != o.rows_) throw std::invalid_argument("GFMatrix: shape mismatch");
    GFMatrix out(rows_, o.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const std::uint8_t a = at(i, k);
        if (a == 0) continue;
        for (std::size_t j = 0; j < o.cols_; ++j) {
          out.at(i, j) ^= GF256::mul(a, o.at(k, j));
        }
      }
    }
    return out;
  }

  /// Gauss–Jordan inverse. Throws std::domain_error if singular.
  GFMatrix inverse() const {
    if (rows_ != cols_) throw std::invalid_argument("GFMatrix: not square");
    const std::size_t n = rows_;
    GFMatrix a(*this);
    GFMatrix inv = identity(n);
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      while (pivot < n && a.at(pivot, col) == 0) ++pivot;
      if (pivot == n) throw std::domain_error("GFMatrix: singular");
      if (pivot != col) {
        for (std::size_t j = 0; j < n; ++j) {
          std::swap(a.at(pivot, j), a.at(col, j));
          std::swap(inv.at(pivot, j), inv.at(col, j));
        }
      }
      const std::uint8_t d = GF256::inv(a.at(col, col));
      for (std::size_t j = 0; j < n; ++j) {
        a.at(col, j) = GF256::mul(a.at(col, j), d);
        inv.at(col, j) = GF256::mul(inv.at(col, j), d);
      }
      for (std::size_t r = 0; r < n; ++r) {
        if (r == col) continue;
        const std::uint8_t f = a.at(r, col);
        if (f == 0) continue;
        for (std::size_t j = 0; j < n; ++j) {
          a.at(r, j) ^= GF256::mul(f, a.at(col, j));
          inv.at(r, j) ^= GF256::mul(f, inv.at(col, j));
        }
      }
    }
    return inv;
  }

 private:
  std::size_t rows_, cols_;
  std::vector<std::uint8_t> data_;
};

}  // namespace hpbdc::storage
