// Unit tests for src/storage: GF(256) algebra, Reed–Solomon coding and the
// consistent-hash ring.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <span>

#include "common/rng.hpp"
#include "storage/gf256.hpp"
#include "storage/hash_ring.hpp"
#include "storage/reed_solomon.hpp"

namespace hpbdc::storage {
namespace {

// ---- GF(256) -------------------------------------------------------------------

TEST(GF256, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(GF256, InverseRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = GF256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
}

TEST(GF256, DivisionByZeroThrows) {
  EXPECT_THROW(GF256::div(5, 0), std::domain_error);
}

TEST(GF256, MultiplicationCommutesAndAssociates) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng());
    const auto b = static_cast<std::uint8_t>(rng());
    const auto c = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
    EXPECT_EQ(GF256::mul(GF256::mul(a, b), c), GF256::mul(a, GF256::mul(b, c)));
    // Distributivity over XOR (field addition).
    EXPECT_EQ(GF256::mul(a, b ^ c), GF256::mul(a, b) ^ GF256::mul(a, c));
  }
}

TEST(GFMatrix, InverseOfIdentity) {
  auto id = GFMatrix::identity(5);
  auto inv = id.inverse();
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(inv.at(i, j), i == j ? 1 : 0);
    }
  }
}

TEST(GFMatrix, InverseTimesSelfIsIdentity) {
  Rng rng(2);
  GFMatrix m(6, 6);
  // Random matrices over GF(256) are invertible whp; retry until one is.
  for (int attempt = 0; attempt < 10; ++attempt) {
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 6; ++j) {
        m.at(i, j) = static_cast<std::uint8_t>(rng());
      }
    }
    try {
      auto inv = m.inverse();
      auto prod = m.mul(inv);
      for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t j = 0; j < 6; ++j) {
          EXPECT_EQ(prod.at(i, j), i == j ? 1 : 0);
        }
      }
      return;
    } catch (const std::domain_error&) {
      continue;  // singular draw, try again
    }
  }
  FAIL() << "no invertible matrix found in 10 draws (astronomically unlikely)";
}

TEST(GFMatrix, SingularThrows) {
  GFMatrix m(2, 2);  // all zeros
  EXPECT_THROW(m.inverse(), std::domain_error);
}

// ---- Reed–Solomon -----------------------------------------------------------------

struct RsParam {
  std::size_t k, m;
};

class RsRoundTrip : public ::testing::TestWithParam<RsParam> {};

TEST_P(RsRoundTrip, SurvivesAnySingleAndDoubleErasurePattern) {
  const auto [k, m] = GetParam();
  ReedSolomon rs(k, m);
  Rng rng(k * 31 + m);
  std::vector<Shard> data(k, Shard(257));
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
  }
  auto parity = rs.encode(data);
  ASSERT_EQ(parity.size(), m);

  const std::size_t total = k + m;
  auto make_shards = [&](const std::set<std::size_t>& lost) {
    std::vector<std::optional<Shard>> shards(total);
    for (std::size_t i = 0; i < total; ++i) {
      if (lost.contains(i)) continue;
      shards[i] = i < k ? data[i] : parity[i - k];
    }
    return shards;
  };

  // All single erasures.
  for (std::size_t i = 0; i < total; ++i) {
    auto rec = rs.decode(make_shards({i}));
    EXPECT_EQ(rec, data) << "lost shard " << i;
  }
  // All double erasures (when m >= 2).
  if (m >= 2) {
    for (std::size_t i = 0; i < total; ++i) {
      for (std::size_t j = i + 1; j < total; ++j) {
        auto rec = rs.decode(make_shards({i, j}));
        EXPECT_EQ(rec, data) << "lost " << i << "," << j;
      }
    }
  }
}

TEST_P(RsRoundTrip, SurvivesWorstCaseMaxErasures) {
  const auto [k, m] = GetParam();
  ReedSolomon rs(k, m);
  Rng rng(1000 + k * 31 + m);
  std::vector<Shard> data(k, Shard(64));
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
  }
  auto parity = rs.encode(data);
  // Lose exactly m shards, chosen to include as many data shards as possible
  // (hardest case: all recovery comes from parity).
  std::vector<std::optional<Shard>> shards(k + m);
  std::set<std::size_t> lost;
  for (std::size_t i = 0; i < std::min(m, k); ++i) lost.insert(i);
  std::size_t extra = m - std::min(m, k);
  for (std::size_t i = 0; i < extra; ++i) lost.insert(k + i);
  for (std::size_t i = 0; i < k + m; ++i) {
    if (!lost.contains(i)) shards[i] = i < static_cast<std::size_t>(k) ? data[i] : parity[i - k];
  }
  EXPECT_EQ(rs.decode(shards), data);
}

INSTANTIATE_TEST_SUITE_P(Codes, RsRoundTrip,
                         ::testing::Values(RsParam{2, 1}, RsParam{4, 2}, RsParam{6, 3},
                                           RsParam{8, 4}, RsParam{10, 4}, RsParam{3, 2}),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.k) + "m" +
                                  std::to_string(info.param.m);
                         });

TEST(ReedSolomon, TooManyErasuresThrows) {
  ReedSolomon rs(4, 2);
  std::vector<std::optional<Shard>> shards(6);
  shards[0] = Shard(16);
  shards[1] = Shard(16);
  shards[2] = Shard(16);  // only 3 of the required 4 survive
  EXPECT_THROW(rs.decode(shards), std::invalid_argument);
}

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(ReedSolomon(0, 2), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 100), std::invalid_argument);
  ReedSolomon rs(4, 2);
  EXPECT_THROW(rs.encode(std::vector<Shard>(3, Shard(8))), std::invalid_argument);
  std::vector<Shard> ragged(4, Shard(8));
  ragged[2].resize(9);
  EXPECT_THROW(rs.encode(ragged), std::invalid_argument);
}

TEST(ReedSolomon, SplitJoinRoundTrip) {
  Rng rng(3);
  std::vector<std::uint8_t> blob(1000);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
  auto shards = ReedSolomon::split(blob, 6);
  EXPECT_EQ(shards.size(), 6u);
  EXPECT_EQ(ReedSolomon::join(shards, blob.size()), blob);
}

TEST(ReedSolomon, ZeroParityIsPassthrough) {
  ReedSolomon rs(3, 0);
  std::vector<Shard> data(3, Shard(8, 7));
  EXPECT_TRUE(rs.encode(data).empty());
}

// Every k-subset of the k+m shards must reconstruct the data exactly — the
// MDS property itself, not just "survives m erasures". Exhaustive at (4,2).
TEST(ReedSolomon, EveryKSubsetReconstructsExhaustive42) {
  constexpr std::size_t k = 4, m = 2, total = k + m;
  ReedSolomon rs(k, m);
  Rng rng(42);
  std::vector<Shard> data(k, Shard(97));
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
  }
  const auto parity = rs.encode(data);
  std::size_t subsets = 0;
  for (std::uint32_t bits = 0; bits < (1u << total); ++bits) {
    if (std::popcount(bits) != k) continue;
    ++subsets;
    std::vector<std::optional<Shard>> shards(total);
    for (std::size_t i = 0; i < total; ++i) {
      if (bits & (1u << i)) shards[i] = i < k ? data[i] : parity[i - k];
    }
    EXPECT_EQ(rs.decode(shards), data) << "survivor set 0x" << std::hex << bits;
  }
  EXPECT_EQ(subsets, 15u);  // C(6, 4)
}

// Sampled at (8,3): C(11,8) = 165 subsets is feasible but slow under
// sanitizers; 40 seeded draws cover the space well beyond the patterns the
// DFS repair path exercises.
TEST(ReedSolomon, EveryKSubsetReconstructsSampled83) {
  constexpr std::size_t k = 8, m = 3, total = k + m;
  ReedSolomon rs(k, m);
  Rng rng(83);
  std::vector<Shard> data(k, Shard(61));
  for (auto& s : data) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
  }
  const auto parity = rs.encode(data);
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<std::size_t> idx(total);
    for (std::size_t i = 0; i < total; ++i) idx[i] = i;
    rng.shuffle(idx);
    std::vector<std::optional<Shard>> shards(total);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t s = idx[i];
      shards[s] = s < k ? data[s] : parity[s - k];
    }
    EXPECT_EQ(rs.decode(shards), data) << "iteration " << iter;
  }
}

// Degenerate block shapes the DFS write path can produce: an empty blob and
// blob sizes not divisible by k (split pads, join truncates).
TEST(ReedSolomon, ZeroLengthAndNonMultipleBlocks) {
  const auto empty = ReedSolomon::split({}, 4);
  EXPECT_EQ(empty.size(), 4u);
  for (const auto& s : empty) EXPECT_TRUE(s.empty());
  EXPECT_TRUE(ReedSolomon::join(empty, 0).empty());

  ReedSolomon rs(4, 2);
  Rng rng(7);
  for (std::size_t n : {1u, 3u, 5u, 7u, 1023u}) {
    std::vector<std::uint8_t> blob(n);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
    auto shards = rs.split(blob, 4);
    const std::size_t want = (n + 3) / 4;
    for (const auto& s : shards) EXPECT_EQ(s.size(), want) << n;
    const auto parity = rs.encode(shards);
    // Knock out two data shards, reconstruct, reassemble.
    std::vector<std::optional<Shard>> avail(6);
    avail[2] = shards[2];
    avail[3] = shards[3];
    avail[4] = parity[0];
    avail[5] = parity[1];
    EXPECT_EQ(ReedSolomon::join(rs.decode(avail), n), blob) << n;
  }
}

// Both decode paths (every data shard present, or some rebuilt from
// parity) check the survivor basis the same way; so does repair.
TEST(ReedSolomon, RaggedShardsThrowOnEveryPath) {
  ReedSolomon rs(4, 2);
  const std::vector<Shard> data(4, Shard(16, 0x5a));
  const auto parity = rs.encode(data);
  auto slots = [&] {
    std::vector<std::optional<Shard>> s(6);
    for (std::size_t i = 0; i < 4; ++i) s[i] = data[i];
    s[4] = parity[0];
    s[5] = parity[1];
    return s;
  };
  auto all_data = slots();
  all_data[2]->push_back(0);
  EXPECT_THROW(rs.decode(all_data), std::invalid_argument);
  auto lost_data = slots();
  lost_data[0].reset();
  lost_data[4]->pop_back();
  EXPECT_THROW(rs.decode(lost_data), std::invalid_argument);
  auto ragged_first = slots();
  ragged_first[0]->resize(3);
  EXPECT_THROW(rs.decode(ragged_first), std::invalid_argument);

  std::vector<const std::uint8_t*> ptrs{data[0].data(), data[1].data(), nullptr,
                                        nullptr,        parity[0].data(), nullptr};
  std::vector<Shard> out(2, Shard(16));
  const std::vector<std::uint8_t*> dsts{out[0].data(), out[1].data()};
  const std::vector<std::size_t> lost{2, 3};
  EXPECT_THROW(rs.repair(ptrs, 16, lost, dsts), std::invalid_argument);
  ptrs[5] = parity[1].data();
  const std::vector<std::size_t> no_such_slot{2, 6};
  EXPECT_THROW(rs.repair(ptrs, 16, no_such_slot, dsts), std::invalid_argument);
  EXPECT_THROW(rs.repair(std::span(ptrs).first(5), 16, lost, dsts),
               std::invalid_argument);
  rs.repair(ptrs, 16, lost, dsts);
  EXPECT_EQ(out[0], data[2]);
  EXPECT_EQ(out[1], data[3]);
}

// ---- The dot kernel against the per-byte codec -----------------------------------

/// The codec as it was before the split-nibble kernel: one GF256::mul per
/// byte, over the same Cauchy block. (Its all-data-present shortcut returned
/// the survivors themselves, which the general path below reproduces.)
class PerByteRs {
 public:
  PerByteRs(std::size_t k, std::size_t m) : k_(k), m_(m), rows_(m, k) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        rows_.at(i, j) = GF256::inv(static_cast<std::uint8_t>((k + i) ^ j));
      }
    }
  }

  std::vector<Shard> encode(const std::vector<Shard>& data) const {
    const std::size_t len = data[0].size();
    std::vector<Shard> parity(m_, Shard(len, 0));
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < k_; ++j) {
        const std::uint8_t c = rows_.at(i, j);
        for (std::size_t b = 0; b < len; ++b) parity[i][b] ^= GF256::mul(c, data[j][b]);
      }
    }
    return parity;
  }

  std::vector<Shard> decode(const std::vector<std::optional<Shard>>& shards) const {
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < k_ + m_ && rows.size() < k_; ++i) {
      if (shards[i]) rows.push_back(i);
    }
    GFMatrix sub(k_, k_);
    for (std::size_t r = 0; r < k_; ++r) {
      for (std::size_t c = 0; c < k_; ++c) {
        sub.at(r, c) = rows[r] < k_ ? static_cast<std::uint8_t>(rows[r] == c ? 1 : 0)
                                    : rows_.at(rows[r] - k_, c);
      }
    }
    const GFMatrix inv = sub.inverse();
    const std::size_t len = shards[rows[0]]->size();
    std::vector<Shard> out(k_, Shard(len, 0));
    for (std::size_t j = 0; j < k_; ++j) {
      for (std::size_t r = 0; r < k_; ++r) {
        const std::uint8_t c = inv.at(j, r);
        const Shard& src = *shards[rows[r]];
        for (std::size_t b = 0; b < len; ++b) out[j][b] ^= GF256::mul(c, src[b]);
      }
    }
    return out;
  }

 private:
  std::size_t k_, m_;
  GFMatrix rows_;
};

/// Erasure patterns (bit i = slot i lost) of at most m of k + m slots:
/// every one for m <= 3; for larger m every single loss plus a seeded draw.
std::vector<std::uint32_t> erasure_patterns(std::size_t k, std::size_t m, Rng& rng) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t bits = 0; bits < (1u << (k + m)); ++bits) {
    const auto lost = static_cast<std::size_t>(std::popcount(bits));
    if (lost > m) continue;
    if (m <= 3 || lost <= 1 || rng.next_below(32) == 0) out.push_back(bits);
  }
  return out;
}

// Every compiled dot body (the scalar loop always, AVX2 where the CPU has
// it) must reproduce the per-byte sum, and the codec over the picked body
// must reproduce the per-byte codec exactly: parity, decoded data and
// repaired shards, at lengths around the 32-byte step and from unaligned
// slices.
TEST(ReedSolomon, KernelEqualsPerByteReference) {
  Rng rng(0x4e1b);
  const std::size_t lengths[] = {0, 1, 15, 16, 17, 31, 33, 1023, 65543};

  // The kernel alone, per body: n = 0..10 sources, every coefficient in
  // every source position, every src and dst offset mod 32.
  constexpr std::size_t kMaxSources = 10, kPad = 32, kMaxLen = 1023;
  std::vector<std::vector<std::uint8_t>> src(kMaxSources,
                                             std::vector<std::uint8_t>(kMaxLen + kPad));
  for (auto& s : src) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
  }
  std::vector<std::uint8_t> dst(kMaxLen + kPad), want(kMaxLen + kPad);
  const auto bodies = detail::dot_bodies();
  ASSERT_FALSE(bodies.empty());
  EXPECT_STREQ(bodies[0].name, "scalar");
  for (const auto& [name, body] : bodies) {
    for (std::size_t n = 0; n <= kMaxSources; ++n) {
      for (unsigned c = 0; c < 256; ++c) {
        std::vector<MulTable> tables;
        std::vector<std::uint8_t> coeff;
        std::vector<const std::uint8_t*> srcs;
        for (std::size_t r = 0; r < n; ++r) {
          coeff.push_back(static_cast<std::uint8_t>(c + 37 * r));
          tables.emplace_back(coeff.back());
          srcs.push_back(src[r].data() + (c + 5 * r) % kPad);
        }
        const std::size_t doff = (c / kPad + c) % kPad;
        for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{31},
                                std::size_t{32}, std::size_t{33}, std::size_t{63},
                                std::size_t{65}, kMaxLen}) {
          for (auto& b : dst) b = static_cast<std::uint8_t>(rng());
          want = dst;
          for (std::size_t i = 0; i < len; ++i) {
            std::uint8_t acc = 0;
            for (std::size_t r = 0; r < n; ++r) acc ^= GF256::mul(coeff[r], srcs[r][i]);
            want[doff + i] = acc;
          }
          body(tables.data(), srcs.data(), n, dst.data() + doff, len);
          ASSERT_EQ(dst, want) << name << " n=" << n << " c=" << c << " len=" << len;
        }
      }
    }
  }

  struct Code {
    std::size_t k, m;
  };
  for (const Code code : {Code{1, 0}, Code{3, 0}, Code{4, 2}, Code{6, 3}, Code{8, 4},
                          Code{10, 4}}) {
    const std::size_t k = code.k, m = code.m, total = k + m;
    const ReedSolomon rs(k, m);
    const PerByteRs ref(k, m);
    const auto patterns = erasure_patterns(k, m, rng);
    for (std::size_t len : lengths) {
      SCOPED_TRACE("RS(" + std::to_string(k) + "," + std::to_string(m) +
                   ") len=" + std::to_string(len));
      std::vector<Shard> data(k, Shard(len));
      for (auto& s : data) {
        for (auto& b : s) b = static_cast<std::uint8_t>(rng());
      }
      const auto parity = rs.encode(data);
      if (m > 0) {
        ASSERT_EQ(parity, ref.encode(data));
      }

      // Survivors at 1..15-byte offsets, so repair's loads are unaligned.
      std::vector<std::vector<std::uint8_t>> slices(total);
      std::vector<const std::uint8_t*> at(total);
      for (std::size_t i = 0; i < total; ++i) {
        const std::size_t off = 1 + (i + len) % 15;
        slices[i].assign(off, 0);
        const Shard& s = i < k ? data[i] : parity[i - k];
        slices[i].insert(slices[i].end(), s.begin(), s.end());
        at[i] = slices[i].data() + off;
      }
      std::vector<std::uint8_t> out(total * len + 16);
      const std::size_t out_off = 1 + len % 15;
      for (std::size_t p = 0; p < patterns.size(); ++p) {
        const std::uint32_t bits = patterns[p];
        std::vector<std::optional<Shard>> shards(total);
        std::vector<const std::uint8_t*> ptrs(total, nullptr);
        for (std::size_t i = 0; i < total; ++i) {
          if (bits & (1u << i)) continue;
          shards[i] = i < k ? data[i] : parity[i - k];
          ptrs[i] = at[i];
        }
        const auto got = rs.decode(shards);
        ASSERT_EQ(got, data) << "lost 0x" << std::hex << bits;
        if (len == 0) continue;  // nothing to point at
        // The per-byte decode is slow: at the longest length, every 16th.
        if (len < 65543 || p % 16 == 0) {
          ASSERT_EQ(got, ref.decode(shards)) << "lost 0x" << std::hex << bits;
        }
        // Every lost slot, data or parity, into one unaligned buffer.
        std::vector<std::size_t> lost;
        std::vector<std::uint8_t*> dsts;
        for (std::size_t i = 0; i < total; ++i) {
          if (!(bits & (1u << i))) continue;
          lost.push_back(i);
          dsts.push_back(out.data() + out_off + (lost.size() - 1) * len);
        }
        rs.repair(ptrs, len, lost, dsts);
        for (std::size_t i = 0; i < lost.size(); ++i) {
          const Shard& want = lost[i] < k ? data[lost[i]] : parity[lost[i] - k];
          ASSERT_TRUE(std::equal(want.begin(), want.end(), dsts[i]))
              << "lost 0x" << std::hex << bits << " slot " << std::dec << lost[i];
        }
      }
    }
  }

  // repair() of every prefix len' <= shard_len against the decoded shards'
  // prefixes, with a guard band: no byte past len' may be written.
  const ReedSolomon rs(4, 2);
  Rng prng(0x70);
  for (std::size_t len : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    std::vector<Shard> data(4, Shard(len));
    for (auto& s : data) {
      for (auto& b : s) b = static_cast<std::uint8_t>(prng());
    }
    const auto parity = rs.encode(data);
    for (std::uint32_t bits : erasure_patterns(4, 2, prng)) {
      std::vector<std::optional<Shard>> shards(6);
      std::vector<const std::uint8_t*> ptrs(6, nullptr);
      std::vector<std::size_t> lost;
      for (std::size_t i = 0; i < 6; ++i) {
        if (bits & (1u << i)) {
          lost.push_back(i);
          continue;
        }
        shards[i] = i < 4 ? data[i] : parity[i - 4];
        ptrs[i] = shards[i]->data();
      }
      const auto decoded = rs.decode(shards);
      for (std::size_t n = 0; n <= len; ++n) {
        std::vector<std::vector<std::uint8_t>> outs(lost.size(),
                                                    std::vector<std::uint8_t>(n + 8, 0xee));
        std::vector<std::uint8_t*> dsts;
        for (auto& o : outs) dsts.push_back(o.data());
        rs.repair(ptrs, n, lost, dsts);
        for (std::size_t i = 0; i < lost.size(); ++i) {
          const Shard& want = lost[i] < 4 ? decoded[lost[i]] : parity[lost[i] - 4];
          ASSERT_TRUE(std::equal(want.begin(),
                                 want.begin() + static_cast<std::ptrdiff_t>(n),
                                 outs[i].begin()))
              << "len=" << len << " n=" << n << " lost 0x" << std::hex << bits;
          ASSERT_TRUE(std::all_of(outs[i].begin() + static_cast<std::ptrdiff_t>(n),
                                  outs[i].end(), [](std::uint8_t b) { return b == 0xee; }))
              << "wrote past n=" << n;
        }
      }
    }
  }
}

// repair() rebuilds exactly the lost slots, data or parity, byte for byte,
// for every erasure pattern the codec survives; below k survivors it throws.
TEST(ReedSolomon, RepairRebuildsEveryLostSlot) {
  Rng rng(0x5e9a);
  struct Code {
    std::size_t k, m;
  };
  for (const Code code : {Code{4, 2}, Code{6, 3}, Code{10, 4}}) {
    const std::size_t k = code.k, m = code.m, total = k + m;
    const ReedSolomon rs(k, m);
    const auto patterns = erasure_patterns(k, m, rng);
    for (std::size_t len : {std::size_t{1}, std::size_t{33}, std::size_t{1023}}) {
      SCOPED_TRACE("RS(" + std::to_string(k) + "," + std::to_string(m) +
                   ") len=" + std::to_string(len));
      std::vector<Shard> shards(k, Shard(len));
      for (auto& s : shards) {
        for (auto& b : s) b = static_cast<std::uint8_t>(rng());
      }
      auto parity = rs.encode(shards);
      shards.insert(shards.end(), parity.begin(), parity.end());
      for (const std::uint32_t bits : patterns) {
        std::vector<const std::uint8_t*> ptrs(total, nullptr);
        std::vector<std::size_t> lost;
        for (std::size_t i = 0; i < total; ++i) {
          if (bits & (1u << i)) {
            lost.push_back(i);
          } else {
            ptrs[i] = shards[i].data();
          }
        }
        const auto rebuilt = rs.repair(ptrs, len, lost);
        ASSERT_EQ(rebuilt.size(), lost.size());
        for (std::size_t i = 0; i < lost.size(); ++i) {
          ASSERT_EQ(rebuilt[i], shards[lost[i]])
              << "slot " << lost[i] << " of lost 0x" << std::hex << bits;
        }
      }
      // m + 1 losses leave k - 1 survivors.
      std::vector<const std::uint8_t*> ptrs(total, nullptr);
      for (std::size_t i = m + 1; i < total; ++i) ptrs[i] = shards[i].data();
      const std::vector<std::size_t> lost{0};
      EXPECT_THROW(rs.repair(ptrs, len, lost), std::invalid_argument);
    }
  }
}

// The pointer forms the block store codes through: encode() into
// uninitialised (here garbage-filled, unaligned) buffers equals the vector
// form, and repair() of a len-byte prefix equals the prefix of the vector
// repair, writing nothing past len. Random (k, m, len, lost) shapes.
TEST(ReedSolomon, PointerFormsMatchVectorForms) {
  Rng rng(0x9f0e);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = 1 + rng.next_below(10);
    const std::size_t m = rng.next_below(5);
    const std::size_t len = trial % 8 == 0 ? 4096 + rng.next_below(300)
                                           : 1 + rng.next_below(300);
    SCOPED_TRACE("RS(" + std::to_string(k) + "," + std::to_string(m) +
                 ") len=" + std::to_string(len));
    const ReedSolomon rs(k, m);
    std::vector<Shard> shards(k, Shard(len));
    for (auto& s : shards) {
      for (auto& b : s) b = static_cast<std::uint8_t>(rng());
    }
    const auto parity = rs.encode(shards);

    constexpr std::size_t kGuard = 8;
    constexpr std::uint8_t kJunk = 0xa5;
    std::vector<const std::uint8_t*> srcs(k);
    for (std::size_t j = 0; j < k; ++j) srcs[j] = shards[j].data();
    std::vector<std::vector<std::uint8_t>> bufs(m);
    std::vector<std::uint8_t*> dsts(m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t off = 1 + (i + trial) % 15;
      bufs[i].assign(off + len + kGuard, kJunk);
      dsts[i] = bufs[i].data() + off;
    }
    rs.encode(srcs, len, dsts);
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_TRUE(std::equal(parity[i].begin(), parity[i].end(), dsts[i])) << "parity " << i;
      ASSERT_TRUE(std::all_of(dsts[i] + len, dsts[i] + len + kGuard,
                              [](std::uint8_t b) { return b == kJunk; }));
    }
    shards.insert(shards.end(), parity.begin(), parity.end());

    // Lose a random set of at most m slots (at least one when m > 0).
    std::vector<std::size_t> slots(k + m);
    for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
    rng.shuffle(slots);
    std::vector<std::size_t> lost(slots.begin(),
                                  slots.begin() + static_cast<std::ptrdiff_t>(
                                                      m == 0 ? 0 : 1 + rng.next_below(m)));
    std::vector<const std::uint8_t*> ptrs(k + m, nullptr);
    for (std::size_t i = 0; i < k + m; ++i) {
      if (std::find(lost.begin(), lost.end(), i) == lost.end()) ptrs[i] = shards[i].data();
    }
    const auto whole = rs.repair(ptrs, len, lost);
    const std::size_t plen = rng.next_below(len + 1);
    std::vector<std::vector<std::uint8_t>> outs(lost.size(),
                                                std::vector<std::uint8_t>(plen + kGuard, kJunk));
    std::vector<std::uint8_t*> out(lost.size());
    for (std::size_t i = 0; i < lost.size(); ++i) out[i] = outs[i].data();
    rs.repair(ptrs, plen, lost, out);
    for (std::size_t i = 0; i < lost.size(); ++i) {
      ASSERT_EQ(whole[i], shards[lost[i]]) << "slot " << lost[i];
      ASSERT_TRUE(std::equal(out[i], out[i] + plen, whole[i].begin()))
          << "slot " << lost[i] << " prefix " << plen;
      ASSERT_TRUE(std::all_of(out[i] + plen, out[i] + plen + kGuard,
                              [](std::uint8_t b) { return b == kJunk; }))
          << "wrote past len=" << plen;
    }
  }

  // Shape errors: pointer counts that do not match k, m or `lost`.
  const ReedSolomon rs(4, 2);
  std::vector<std::uint8_t> buf(6 * 8);
  std::vector<const std::uint8_t*> src(4);
  std::vector<std::uint8_t*> dst(2);
  for (std::size_t i = 0; i < 4; ++i) src[i] = buf.data() + i * 8;
  for (std::size_t i = 0; i < 2; ++i) dst[i] = buf.data() + (4 + i) * 8;
  EXPECT_THROW(rs.encode(std::span(src).first(3), 8, dst), std::invalid_argument);
  EXPECT_THROW(rs.encode(src, 8, std::span(dst).first(1)), std::invalid_argument);
  std::vector<const std::uint8_t*> ptrs(6, nullptr);
  for (std::size_t i = 1; i < 6; ++i) ptrs[i] = buf.data() + i * 8;
  const std::vector<std::size_t> lost{0};
  EXPECT_THROW(rs.repair(ptrs, 8, lost, std::span(dst).first(2)), std::invalid_argument);
}

// GF(256) property sweep beyond the axioms above: division inverts
// multiplication and inversion is an involution, across seeded draws.
TEST(GF256, DivisionAndInvolutionSweep) {
  Rng rng(0x6F);
  for (int i = 0; i < 4000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng());
    auto b = static_cast<std::uint8_t>(rng());
    while (b == 0) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(GF256::div(GF256::mul(a, b), b), a);
    EXPECT_EQ(GF256::mul(GF256::div(a, b), b), a);
    EXPECT_EQ(GF256::inv(GF256::inv(b)), b);
  }
}

// ---- HashRing ---------------------------------------------------------------------

TEST(HashRing, LookupStable) {
  HashRing ring(64);
  for (std::uint64_t n = 0; n < 8; ++n) ring.add_node(n);
  EXPECT_EQ(ring.lookup("alpha"), ring.lookup("alpha"));
}

TEST(HashRing, LookupNDistinctNodes) {
  HashRing ring(64);
  for (std::uint64_t n = 0; n < 8; ++n) ring.add_node(n);
  auto replicas = ring.lookup_n("some-key", 3);
  ASSERT_EQ(replicas.size(), 3u);
  std::set<std::uint64_t> uniq(replicas.begin(), replicas.end());
  EXPECT_EQ(uniq.size(), 3u);
}

TEST(HashRing, ReplicasClampedToNodeCount) {
  HashRing ring(16);
  ring.add_node(1);
  ring.add_node(2);
  EXPECT_EQ(ring.lookup_n("k", 5).size(), 2u);
}

TEST(HashRing, BalancedDistribution) {
  HashRing ring(128);
  constexpr std::size_t kNodes = 8;
  for (std::uint64_t n = 0; n < kNodes; ++n) ring.add_node(n);
  std::map<std::uint64_t, int> counts;
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    ++counts[ring.lookup("key-" + std::to_string(i))];
  }
  for (const auto& [node, c] : counts) {
    EXPECT_GT(c, kKeys / kNodes / 2) << node;
    EXPECT_LT(c, kKeys / kNodes * 2) << node;
  }
}

TEST(HashRing, RemovalOnlyRemapsVictimKeys) {
  HashRing ring(64);
  for (std::uint64_t n = 0; n < 8; ++n) ring.add_node(n);
  std::map<std::string, std::uint64_t> before;
  for (int i = 0; i < 5000; ++i) {
    const std::string k = "key-" + std::to_string(i);
    before[k] = ring.lookup(k);
  }
  ring.remove_node(3);
  int moved_from_others = 0;
  for (const auto& [k, owner] : before) {
    const auto now = ring.lookup(k);
    if (owner != 3 && now != owner) ++moved_from_others;
    if (owner == 3) {
      EXPECT_NE(now, 3u);
    }
  }
  EXPECT_EQ(moved_from_others, 0);  // consistent hashing: only victim's keys move
}

TEST(HashRing, DuplicateAndUnknownNodes) {
  HashRing ring;
  ring.add_node(1);
  EXPECT_THROW(ring.add_node(1), std::invalid_argument);
  EXPECT_THROW(ring.remove_node(9), std::invalid_argument);
}

}  // namespace
}  // namespace hpbdc::storage
