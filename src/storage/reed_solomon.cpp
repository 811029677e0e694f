#include "storage/reed_solomon.hpp"

#include <algorithm>
#include <stdexcept>

namespace hpbdc::storage {

ReedSolomon::ReedSolomon(std::size_t k, std::size_t m)
    : k_(k), m_(m), parity_rows_(m, k) {
  if (k == 0) throw std::invalid_argument("ReedSolomon: k must be >= 1");
  if (k + m > 256) throw std::invalid_argument("ReedSolomon: k + m must be <= 256");
  // Cauchy block: C[i][j] = 1 / (x_i ^ y_j), x_i = k + i, y_j = j.
  // x and y ranges are disjoint subsets of GF(256), so x_i ^ y_j != 0.
  parity_tables_.reserve(m * k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      parity_rows_.at(i, j) =
          GF256::inv(static_cast<std::uint8_t>((k + i) ^ j));
      parity_tables_.emplace_back(parity_rows_.at(i, j));
    }
  }
}

std::vector<Shard> ReedSolomon::encode(const std::vector<Shard>& data) const {
  if (data.size() != k_) throw std::invalid_argument("ReedSolomon: need k data shards");
  const std::size_t len = data.empty() ? 0 : data[0].size();
  std::vector<const std::uint8_t*> srcs(k_);
  for (std::size_t j = 0; j < k_; ++j) {
    if (data[j].size() != len) throw std::invalid_argument("ReedSolomon: ragged shards");
    srcs[j] = data[j].data();
  }
  std::vector<Shard> parity(m_, Shard(len));
  std::vector<std::uint8_t*> dsts(m_);
  for (std::size_t i = 0; i < m_; ++i) dsts[i] = parity[i].data();
  encode(srcs, len, dsts);
  return parity;
}

void ReedSolomon::encode(std::span<const std::uint8_t* const> data, std::size_t len,
                         std::span<std::uint8_t* const> parity) const {
  if (data.size() != k_) throw std::invalid_argument("ReedSolomon: need k data shards");
  if (parity.size() != m_) throw std::invalid_argument("ReedSolomon: need m parity shards");
  if (len == 0) return;  // empty shards have no bytes to point at
  for (std::size_t i = 0; i < m_; ++i) {
    dot(&parity_tables_[i * k_], data.data(), k_, parity[i], len);
  }
}

std::vector<Shard> ReedSolomon::decode(
    const std::vector<std::optional<Shard>>& shards) const {
  if (shards.size() != k_ + m_) {
    throw std::invalid_argument("ReedSolomon: expected k+m shard slots");
  }
  // The basis is the first k survivors; their lengths must agree whether
  // or not any data shard is lost.
  std::vector<const std::uint8_t*> ptrs(k_ + m_, nullptr);
  std::size_t len = 0;
  std::size_t found = 0;
  for (std::size_t i = 0; i < shards.size() && found < k_; ++i) {
    if (!shards[i]) continue;
    if (found++ == 0) {
      len = shards[i]->size();
    } else if (shards[i]->size() != len) {
      throw std::invalid_argument("ReedSolomon: ragged shards");
    }
    ptrs[i] = shards[i]->data();
  }
  if (found < k_) throw std::invalid_argument("ReedSolomon: fewer than k shards survive");
  // A surviving data shard is in the basis, so it is copied; the lost ones
  // are rebuilt by one repair().
  std::vector<Shard> out(k_);
  std::vector<std::size_t> lost;
  std::vector<std::uint8_t*> dsts;
  for (std::size_t j = 0; j < k_; ++j) {
    if (shards[j]) {
      out[j] = *shards[j];
      continue;
    }
    out[j].resize(len);
    lost.push_back(j);
    dsts.push_back(out[j].data());
  }
  // Empty shards have no bytes to point at, so they name no survivors.
  if (len > 0 && !lost.empty()) repair(ptrs, len, lost, dsts);
  return out;
}

std::vector<Shard> ReedSolomon::repair(std::span<const std::uint8_t* const> shards,
                                       std::size_t shard_len,
                                       std::span<const std::size_t> lost) const {
  std::vector<Shard> out(lost.size(), Shard(shard_len));
  std::vector<std::uint8_t*> dsts(lost.size());
  for (std::size_t i = 0; i < lost.size(); ++i) dsts[i] = out[i].data();
  repair(shards, shard_len, lost, dsts);
  return out;
}

void ReedSolomon::repair(std::span<const std::uint8_t* const> shards, std::size_t len,
                         std::span<const std::size_t> lost,
                         std::span<std::uint8_t* const> out) const {
  if (out.size() != lost.size()) {
    throw std::invalid_argument("ReedSolomon: one output per lost slot");
  }
  const auto rows = basis(shards);
  // Lost slot s is row s of [I_k ; C] times the data, and the data is the
  // inverse times the survivors: so its coefficients over the survivors
  // are that row times the inverse.
  GFMatrix lost_rows(lost.size(), k_);
  for (std::size_t i = 0; i < lost.size(); ++i) {
    const std::size_t slot = lost[i];
    if (slot >= k_ + m_) throw std::invalid_argument("ReedSolomon: no such slot");
    for (std::size_t c = 0; c < k_; ++c) {
      lost_rows.at(i, c) = slot < k_ ? static_cast<std::uint8_t>(slot == c ? 1 : 0)
                                     : parity_rows_.at(slot - k_, c);
    }
  }
  if (len == 0) return;  // empty shards have no bytes to point at
  const GFMatrix coeffs = lost_rows.mul(decode_matrix(rows));
  for (std::size_t i = 0; i < lost.size(); ++i) {
    dot_row(coeffs, i, rows, shards, out[i], len);
  }
}

std::vector<std::size_t> ReedSolomon::basis(
    std::span<const std::uint8_t* const> shards) const {
  if (shards.size() != k_ + m_) {
    throw std::invalid_argument("ReedSolomon: expected k+m shard slots");
  }
  std::vector<std::size_t> rows;
  rows.reserve(k_);
  for (std::size_t i = 0; i < k_ + m_ && rows.size() < k_; ++i) {
    if (shards[i] != nullptr) rows.push_back(i);
  }
  if (rows.size() < k_) {
    throw std::invalid_argument("ReedSolomon: fewer than k shards survive");
  }
  return rows;
}

GFMatrix ReedSolomon::decode_matrix(const std::vector<std::size_t>& rows) const {
  GFMatrix sub(k_, k_);
  for (std::size_t r = 0; r < k_; ++r) {
    const std::size_t src = rows[r];
    for (std::size_t c = 0; c < k_; ++c) {
      sub.at(r, c) = src < k_ ? static_cast<std::uint8_t>(src == c ? 1 : 0)
                              : parity_rows_.at(src - k_, c);
    }
  }
  return sub.inverse();
}

void ReedSolomon::dot_row(const GFMatrix& coeffs, std::size_t row,
                          const std::vector<std::size_t>& rows,
                          std::span<const std::uint8_t* const> shards, std::uint8_t* dst,
                          std::size_t len) const {
  std::vector<MulTable> tables;
  std::vector<const std::uint8_t*> srcs;
  tables.reserve(k_);
  srcs.reserve(k_);
  for (std::size_t r = 0; r < k_; ++r) {
    const std::uint8_t c = coeffs.at(row, r);
    if (c == 0) continue;
    tables.emplace_back(c);
    srcs.push_back(shards[rows[r]]);
  }
  dot(tables.data(), srcs.data(), srcs.size(), dst, len);
}

std::vector<Shard> ReedSolomon::split(std::span<const std::uint8_t> blob,
                                      std::size_t k) {
  if (k == 0) throw std::invalid_argument("ReedSolomon::split: k must be >= 1");
  const std::size_t shard_len = (blob.size() + k - 1) / k;
  std::vector<Shard> out(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t lo = std::min(i * shard_len, blob.size());
    const std::size_t n = std::min(shard_len, blob.size() - lo);
    out[i].reserve(shard_len);
    out[i].assign(blob.begin() + static_cast<std::ptrdiff_t>(lo),
                  blob.begin() + static_cast<std::ptrdiff_t>(lo + n));
    out[i].resize(shard_len);  // zero-pads the tail only
  }
  return out;
}

std::vector<std::uint8_t> ReedSolomon::join(const std::vector<Shard>& data,
                                            std::size_t original_size) {
  std::vector<std::uint8_t> out;
  out.reserve(original_size);
  for (const auto& s : data) {
    const std::size_t n = std::min(s.size(), original_size - out.size());
    out.insert(out.end(), s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n));
  }
  if (out.size() != original_size) {
    throw std::invalid_argument("ReedSolomon::join: shards shorter than original_size");
  }
  return out;
}

}  // namespace hpbdc::storage
