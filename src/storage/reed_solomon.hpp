#pragma once
// Systematic Reed–Solomon erasure coding RS(k, m): k data shards, m parity
// shards, any k of the k+m suffice to reconstruct. The encoding matrix is
// [ I_k ; C ] with C an m×k Cauchy matrix, whose every square submatrix is
// nonsingular — the standard MDS construction (as in Jerasure). Used for
// experiment T4 and by the block store. Every output shard is one GF(2^8)
// dot product (storage::dot) over k source shards, each output byte written
// once: a parity shard over the data, with tables built once per codec; a
// lost shard over the first k survivors, with coefficients from the
// survivor matrix's inverse (k^3 work per stripe, rebuilt per call).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "storage/gf256.hpp"

namespace hpbdc::storage {

using Shard = std::vector<std::uint8_t>;

class ReedSolomon {
 public:
  /// Requires 1 <= k, 0 <= m, k + m <= 256.
  ReedSolomon(std::size_t k, std::size_t m);

  /// Compute m parity shards from k equal-length data shards. A wrapper over
  /// the pointer form.
  std::vector<Shard> encode(const std::vector<Shard>& data) const;

  /// Pointer form of encode(): parity shard i of the k `len`-byte data
  /// shards goes to parity[i]. Each parity byte is written once, so the
  /// parity buffers may be uninitialised. Throws std::invalid_argument
  /// unless there are k data and m parity pointers.
  void encode(std::span<const std::uint8_t* const> data, std::size_t len,
              std::span<std::uint8_t* const> parity) const;

  /// Reconstruct the original k data shards from any k survivors.
  /// `shards[i]` is shard i (0..k-1 data, k..k+m-1 parity) or nullopt if
  /// lost. Throws std::invalid_argument if fewer than k survive or the
  /// survivors differ in length. Copies the surviving data shards and
  /// rebuilds the lost ones with one pointer-form repair().
  std::vector<Shard> decode(const std::vector<std::optional<Shard>>& shards) const;

  /// Rebuild the shards of the `lost` slots (data or parity, any order)
  /// from the first k survivors in slot order, one shard_len-byte shard per
  /// entry of `lost`. `shards[i]` points at shard i's `shard_len` bytes, or
  /// is nullptr if lost. Data slot j is row j of the survivor matrix's
  /// inverse; parity slot p is Cauchy row p times that inverse; either way
  /// one dot product over the k survivors. Throws std::invalid_argument if
  /// fewer than k survive or a slot is out of range. A wrapper over the
  /// pointer form.
  std::vector<Shard> repair(std::span<const std::uint8_t* const> shards,
                            std::size_t shard_len,
                            std::span<const std::size_t> lost) const;

  /// Pointer form of repair(): the first `len` bytes of slot lost[i] go to
  /// out[i], each byte written once, so `out` may be uninitialised. `len`
  /// may be shorter than the survivors (a stripe's partial last shard).
  /// Throws as repair() does, or if `out` and `lost` differ in size.
  void repair(std::span<const std::uint8_t* const> shards, std::size_t len,
              std::span<const std::size_t> lost,
              std::span<std::uint8_t* const> out) const;

  /// Split a byte blob into k data shards of shard_len = ceil(n/k) bytes;
  /// only the bytes past the blob's end are zero-padded.
  static std::vector<Shard> split(std::span<const std::uint8_t> blob, std::size_t k);

  /// Inverse of split: reassemble the first `original_size` bytes.
  static std::vector<std::uint8_t> join(const std::vector<Shard>& data,
                                        std::size_t original_size);

 private:
  /// Slots of the first k survivors (non-null entries). Throws
  /// std::invalid_argument unless there are k + m slots and k survivors.
  std::vector<std::size_t> basis(std::span<const std::uint8_t* const> shards) const;

  /// Inverse of the k rows of [I_k ; C] named by `rows`.
  GFMatrix decode_matrix(const std::vector<std::size_t>& rows) const;

  /// dst = sum_r coeffs(row, r) * shards[rows[r]] over len bytes, zero
  /// coefficients skipped.
  void dot_row(const GFMatrix& coeffs, std::size_t row,
               const std::vector<std::size_t>& rows,
               std::span<const std::uint8_t* const> shards, std::uint8_t* dst,
               std::size_t len) const;

  std::size_t k_, m_;
  GFMatrix parity_rows_;                // m x k Cauchy block
  std::vector<MulTable> parity_tables_;  // the same, row-major, as tables
};

}  // namespace hpbdc::storage
