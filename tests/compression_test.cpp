// Tests for the LZSS codec: bit-exact round trips on varied data shapes,
// corruption rejection, and compressibility of structured input.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "storage/compression.hpp"

namespace hpbdc::storage {
namespace {

ByteVec random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ByteVec v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

ByteVec repetitive_text(std::size_t approx) {
  const std::string phrase = "the quick brown fox jumps over the lazy dog. ";
  ByteVec v;
  while (v.size() < approx) v.insert(v.end(), phrase.begin(), phrase.end());
  return v;
}

// ---- LZSS -------------------------------------------------------------------------

class LzssShapes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LzssShapes, RoundTripRandom) {
  auto in = random_bytes(GetParam(), GetParam() + 7);
  EXPECT_EQ(Lzss::decompress(Lzss::compress(in)), in);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LzssShapes,
                         ::testing::Values(0, 1, 3, 4, 5, 100, 4096, 100000));

TEST(Lzss, RoundTripText) {
  auto in = repetitive_text(200000);
  auto c = Lzss::compress(in);
  EXPECT_LT(c.size(), in.size() / 5);  // highly repetitive: >5x
  EXPECT_EQ(Lzss::decompress(c), in);
}

TEST(Lzss, RoundTripAllSameByte) {
  ByteVec in(100000, 0xaa);
  auto c = Lzss::compress(in);
  EXPECT_LT(c.size(), 2000u);
  EXPECT_EQ(Lzss::decompress(c), in);
}

TEST(Lzss, OverlappingMatchReplication) {
  // "abcabcabc..." forces overlapping back-references (dist < len).
  ByteVec in;
  for (int i = 0; i < 10000; ++i) in.push_back(static_cast<std::uint8_t>('a' + i % 3));
  EXPECT_EQ(Lzss::decompress(Lzss::compress(in)), in);
}

TEST(Lzss, LongRangeMatchesWithinWindow) {
  // Duplicate a 10 KiB blob at distance ~40 KiB (inside the 64 KiB window).
  auto blob = random_bytes(10000, 9);
  ByteVec in = blob;
  in.insert(in.end(), 30000, 0);
  in.insert(in.end(), blob.begin(), blob.end());
  auto c = Lzss::compress(in);
  EXPECT_LT(c.size(), in.size() / 2);
  EXPECT_EQ(Lzss::decompress(c), in);
}

TEST(Lzss, IncompressibleDataExpandsOnlySlightly) {
  auto in = random_bytes(100000, 10);
  auto c = Lzss::compress(in);
  // Worst case: 1 flag byte per 8 literals => +12.5%.
  EXPECT_LT(c.size(), in.size() * 9 / 8 + 16);
  EXPECT_EQ(Lzss::decompress(c), in);
}

TEST(Lzss, CorruptBackReferenceThrows) {
  // flag byte with match bit set, offset beyond produced output.
  ByteVec bad{0x01, 0xff, 0x00, 0x00};
  EXPECT_THROW(Lzss::decompress(bad), std::runtime_error);
}

TEST(Lzss, TruncatedMatchThrows) {
  ByteVec bad{0x01, 0x01};  // match flagged but only 2 bytes follow
  EXPECT_THROW(Lzss::decompress(bad), std::runtime_error);
}

TEST(Lzss, RoundTripMultiMegabyteText) {
  // Regression: a match at distance exactly 65536 used to wrap to offset 0
  // on the wire (u16), producing "invalid back-reference" on decompress.
  // Multi-MiB repetitive input reliably exercises the window boundary.
  auto in = repetitive_text(4 << 20);
  EXPECT_EQ(Lzss::decompress(Lzss::compress(in)), in);
}

}  // namespace
}  // namespace hpbdc::storage
