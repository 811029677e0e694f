#pragma once
// Byte-oriented compression codec for the storage substrate:
//   Lzss — LZ77-family codec with a 64 KiB window and a hash-chain match
//          finder (greedy). The format is flag-grouped: every control byte
//          covers 8 items, each item a literal byte or an
//          (offset: u16, length: u8) back-reference of 4..258 bytes.
// It decompresses bit-exactly and rejects corrupt input with exceptions.

#include <cstdint>
#include <span>
#include <vector>

namespace hpbdc::storage {

using ByteVec = std::vector<std::uint8_t>;

struct CompressionStats {
  std::size_t input_bytes = 0;
  std::size_t output_bytes = 0;
  double ratio() const noexcept {
    return output_bytes == 0 ? 1.0
                             : static_cast<double>(input_bytes) /
                                   static_cast<double>(output_bytes);
  }
};

class Lzss {
 public:
  static ByteVec compress(std::span<const std::uint8_t> in);
  static ByteVec decompress(std::span<const std::uint8_t> in);

  // Max distance encodable in the u16 offset field (not 1<<16: a distance
  // of exactly 65536 would wrap to 0 on the wire).
  static constexpr std::size_t kWindow = (1 << 16) - 1;
  static constexpr std::size_t kMinMatch = 4;
  static constexpr std::size_t kMaxMatch = kMinMatch + 254;  // len byte: match-4
};

}  // namespace hpbdc::storage
