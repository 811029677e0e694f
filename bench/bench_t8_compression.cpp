// T8 — Compression (DESIGN.md extension): ratio and throughput of LZSS
// across data shapes (random, zipf words, sparse zeros, versioned binary).
// Expected shape: LZSS compresses structured data and is near 1.0x
// (slightly worse) on random.

#include <iostream>
#include <string>

#include "algos/textgen.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "storage/compression.hpp"

namespace {

using hpbdc::storage::ByteVec;

ByteVec random_bytes(std::size_t n) {
  hpbdc::Rng rng(1);
  ByteVec v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

ByteVec zipf_text(std::size_t approx) {
  hpbdc::Rng rng(2);
  hpbdc::algos::TextGenConfig cfg;
  ByteVec v;
  while (v.size() < approx) {
    for (const auto& line : hpbdc::algos::generate_text(cfg, 64, rng)) {
      v.insert(v.end(), line.begin(), line.end());
      v.push_back('\n');
    }
  }
  v.resize(approx);
  return v;
}

ByteVec sparse_zeros(std::size_t n) {
  hpbdc::Rng rng(3);
  ByteVec v(n, 0);
  for (std::size_t i = 0; i < n / 50; ++i) {
    v[rng.next_below(n)] = static_cast<std::uint8_t>(rng());
  }
  return v;
}

ByteVec versioned_binary(std::size_t n) {
  // Two near-identical halves: long-range redundancy within the window.
  hpbdc::Rng rng(4);
  ByteVec half(n / 2);
  for (auto& b : half) b = static_cast<std::uint8_t>(rng());
  ByteVec v = half;
  for (std::size_t i = 0; i < 20; ++i) half[rng.next_below(half.size())] ^= 0xff;
  v.insert(v.end(), half.begin(), half.end());
  return v;
}

}  // namespace

int main() {
  using namespace hpbdc;
  using namespace hpbdc::storage;

  constexpr std::size_t kSize = 4 << 20;
  struct DataSet {
    const char* name;
    ByteVec data;
  };
  const DataSet sets[] = {
      {"random", random_bytes(kSize)},
      {"zipf text", zipf_text(kSize)},
      {"sparse zeros", sparse_zeros(kSize)},
      // Halves of 56 KiB: the duplicate sits at distance 56K, inside the
      // 64K-1 window (at exactly 64K it would be unreachable).
      {"versioned binary (64K window)", versioned_binary(112 << 10)},
  };

  std::cout << "T8: LZSS compression, 4 MiB inputs (except versioned: 112 KiB)\n\n";
  Table tbl({"data", "ratio", "compress MB/s", "decompress MB/s"});
  for (const auto& set : sets) {
    Stopwatch cw;
    auto compressed = Lzss::compress(set.data);
    const double c_sec = cw.elapsed_sec();
    Stopwatch dw;
    auto restored = Lzss::decompress(compressed);
    const double d_sec = dw.elapsed_sec();
    if (restored != set.data) {
      std::cerr << "BUG: round-trip mismatch on " << set.name << "\n";
      return 1;
    }
    const double mb = static_cast<double>(set.data.size()) / 1e6;
    tbl.row({set.name,
             Table::num(static_cast<double>(set.data.size()) /
                        static_cast<double>(compressed.size())),
             Table::num(mb / c_sec, 0), Table::num(mb / d_sec, 0)});
  }
  tbl.print(std::cout);
  std::cout << "\nexpected shape: ~1.5x on zipf text, >10x on sparse zeros, "
               "~1.8x on the versioned pair (second copy collapses to "
               "back-references), ~0.9x on random.\n";
  return 0;
}
