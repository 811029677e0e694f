#include "storage/compression.hpp"

#include <cstring>
#include <stdexcept>

namespace hpbdc::storage {

// ---- LZSS -------------------------------------------------------------------
// Stream: [flags u8][8 items...] repeated. Flag bit i (LSB first) describes
// item i: 0 = literal byte, 1 = match (offset u16 little-endian, len u8 with
// actual length = len + kMinMatch). Offsets are distances back from the
// current position (1..kWindow). A trailing partial group is allowed.

namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1 << kHashBits;
constexpr std::size_t kMaxChain = 32;  // match-finder effort bound

inline std::uint32_t hash4(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

ByteVec Lzss::compress(std::span<const std::uint8_t> in) {
  ByteVec out;
  out.reserve(in.size() / 2 + 16);

  // head[h]: most recent position with hash h; prev[i]: previous position
  // with the same hash as i (chained, bounded by kMaxChain probes).
  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(in.size(), -1);

  std::size_t flag_pos = 0;  // index of the current flag byte in `out`
  int flag_bit = 8;          // 8 = need a new flag byte

  auto begin_item = [&](bool is_match) {
    if (flag_bit == 8) {
      flag_pos = out.size();
      out.push_back(0);
      flag_bit = 0;
    }
    if (is_match) out[flag_pos] |= static_cast<std::uint8_t>(1u << flag_bit);
    ++flag_bit;
  };

  std::size_t i = 0;
  while (i < in.size()) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= in.size()) {
      const std::uint32_t h = hash4(in.data() + i);
      std::int64_t cand = head[h];
      std::size_t probes = 0;
      const std::size_t max_len = std::min(kMaxMatch, in.size() - i);
      while (cand >= 0 && probes < kMaxChain) {
        const std::size_t dist = i - static_cast<std::size_t>(cand);
        if (dist > kWindow) break;  // chain only gets older
        std::size_t len = 0;
        const std::uint8_t* a = in.data() + i;
        const std::uint8_t* b = in.data() + cand;
        while (len < max_len && a[len] == b[len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len == max_len) break;
        }
        cand = prev[static_cast<std::size_t>(cand)];
        ++probes;
      }
    }

    if (best_len >= kMinMatch) {
      begin_item(true);
      out.push_back(static_cast<std::uint8_t>(best_dist & 0xff));
      out.push_back(static_cast<std::uint8_t>(best_dist >> 8));
      out.push_back(static_cast<std::uint8_t>(best_len - kMinMatch));
      // Index every position the match covers so later matches can refer in.
      const std::size_t end = i + best_len;
      for (; i < end; ++i) {
        if (i + 4 <= in.size()) {
          const std::uint32_t h = hash4(in.data() + i);
          prev[i] = head[h];
          head[h] = static_cast<std::int64_t>(i);
        }
      }
    } else {
      begin_item(false);
      out.push_back(in[i]);
      if (i + 4 <= in.size()) {
        const std::uint32_t h = hash4(in.data() + i);
        prev[i] = head[h];
        head[h] = static_cast<std::int64_t>(i);
      }
      ++i;
    }
  }
  return out;
}

ByteVec Lzss::decompress(std::span<const std::uint8_t> in) {
  ByteVec out;
  std::size_t i = 0;
  while (i < in.size()) {
    const std::uint8_t flags = in[i++];
    for (int bit = 0; bit < 8 && i < in.size(); ++bit) {
      if (flags & (1u << bit)) {
        if (i + 3 > in.size()) throw std::runtime_error("Lzss: truncated match");
        const std::size_t dist = in[i] | (static_cast<std::size_t>(in[i + 1]) << 8);
        const std::size_t len = static_cast<std::size_t>(in[i + 2]) + kMinMatch;
        i += 3;
        if (dist == 0 || dist > out.size()) {
          throw std::runtime_error("Lzss: invalid back-reference");
        }
        // Byte-by-byte copy: overlapping references (dist < len) replicate.
        std::size_t src = out.size() - dist;
        for (std::size_t n = 0; n < len; ++n) out.push_back(out[src + n]);
      } else {
        out.push_back(in[i++]);
      }
    }
  }
  return out;
}

}  // namespace hpbdc::storage
