#pragma once
// Compact binary serialization used by the shuffle spill path, the simulated
// network payloads, and the storage substrate. Little-endian, varint-coded
// lengths. The format is framework-internal (not a wire standard), but is
// stable within a build, which is all the simulator and tests require.
//
// Byte-identity contract: a value has exactly one encoding. A vector is its
// varint count followed by each element's Serde encoding, whichever code
// path writes it — Serde<std::vector<T>> takes a block fast path for
// fixed-width elements (arithmetic types and pairs of them, see FixedWidth)
// that must emit the same bytes as the per-element path and reject the same
// malformed inputs. Simulated sizes are byte counts of these encodings, so
// any change to them changes simulated outcomes.

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hpbdc {

using Bytes = std::vector<std::byte>;

/// Append-only binary writer.
class BufWriter {
 public:
  BufWriter() = default;
  explicit BufWriter(std::size_t reserve) { buf_.reserve(reserve); }

  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

  void write_raw(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  /// Grow the buffer by `len` bytes and return where they start; the caller
  /// fills them before the next write.
  std::byte* extend(std::size_t len) {
    const std::size_t at = buf_.size();
    buf_.resize(at + len);
    return buf_.data() + at;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_pod(const T& v) {
    write_raw(&v, sizeof(T));
  }

  /// LEB128 unsigned varint.
  void write_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<std::byte>(v));
  }

  void write_string(std::string_view s) {
    write_varint(s.size());
    write_raw(s.data(), s.size());
  }

  void write_bytes(std::span<const std::byte> b) {
    write_varint(b.size());
    write_raw(b.data(), b.size());
  }

 private:
  Bytes buf_;
};

/// Bounds-checked binary reader over a borrowed byte span.
class BufReader {
 public:
  explicit BufReader(std::span<const std::byte> data) noexcept : data_(data) {}
  explicit BufReader(const Bytes& data) noexcept : data_(data) {}

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

  void read_raw(void* out, std::size_t len) {
    require(len);
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
  }

  /// Borrow the next `len` bytes and advance past them.
  const std::byte* take(std::size_t len) {
    require(len);
    const std::byte* p = data_.data() + pos_;
    pos_ += len;
    return p;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read_pod() {
    T v;
    read_raw(&v, sizeof(T));
    return v;
  }

  std::uint64_t read_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      require(1);
      const auto b = static_cast<std::uint8_t>(data_[pos_++]);
      if (shift >= 64 || (shift == 63 && (b & 0x7e) != 0)) {
        throw std::runtime_error("varint overflow");
      }
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::string read_string() {
    const auto len = read_varint();
    require(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  Bytes read_bytes() {
    const auto len = read_varint();
    require(len);
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return b;
  }

 private:
  void require(std::uint64_t len) const {
    if (len > remaining()) throw std::runtime_error("BufReader: truncated input");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Generic Serde<T>: the dataflow engine serializes records through this trait
// when they cross a (simulated) machine boundary or a shuffle spill. Users
// extend it by specializing Serde for their record types.
// ---------------------------------------------------------------------------

template <typename T, typename Enable = void>
struct Serde;  // undefined primary: specializations below

template <typename T>
struct Serde<T, std::enable_if_t<std::is_arithmetic_v<T> || std::is_enum_v<T>>> {
  static void write(BufWriter& w, const T& v) { w.write_pod(v); }
  static T read(BufReader& r) { return r.read_pod<T>(); }
};

template <>
struct Serde<std::string> {
  static void write(BufWriter& w, const std::string& v) { w.write_string(v); }
  static std::string read(BufReader& r) { return r.read_string(); }
};

template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void write(BufWriter& w, const std::pair<A, B>& v) {
    Serde<A>::write(w, v.first);
    Serde<B>::write(w, v.second);
  }
  static std::pair<A, B> read(BufReader& r) {
    A a = Serde<A>::read(r);
    B b = Serde<B>::read(r);
    return {std::move(a), std::move(b)};
  }
};

/// Element types whose Serde encoding has one width for every value:
/// arithmetic types (their raw bytes) and pairs of fixed-width types (first's
/// bytes, then second's, with no padding). store/load move one value with
/// per-field copies, never a whole struct: in-memory pairs may be padded, and
/// libstdc++'s std::pair is not trivially copyable.
template <typename T>
struct FixedWidth : std::false_type {};

template <typename T>
  requires std::is_arithmetic_v<T>
struct FixedWidth<T> : std::true_type {
  static constexpr std::size_t width = sizeof(T);
  static void store(std::byte* p, const T& v) { std::memcpy(p, &v, sizeof(T)); }
  static void load(const std::byte* p, T& v) { std::memcpy(&v, p, sizeof(T)); }
};

template <typename A, typename B>
  requires(FixedWidth<A>::value && FixedWidth<B>::value)
struct FixedWidth<std::pair<A, B>> : std::true_type {
  static constexpr std::size_t width = FixedWidth<A>::width + FixedWidth<B>::width;
  static void store(std::byte* p, const std::pair<A, B>& v) {
    FixedWidth<A>::store(p, v.first);
    FixedWidth<B>::store(p + FixedWidth<A>::width, v.second);
  }
  static void load(const std::byte* p, std::pair<A, B>& v) {
    FixedWidth<A>::load(p, v.first);
    FixedWidth<B>::load(p + FixedWidth<A>::width, v.second);
  }
};

template <typename T>
struct Serde<std::vector<T>> {
  // std::vector<bool> packs bits and has no T&: it takes the per-element path.
  static constexpr bool kBlock = FixedWidth<T>::value && !std::is_same_v<T, bool>;

  static void write(BufWriter& w, const std::vector<T>& v) {
    w.write_varint(v.size());
    if constexpr (kBlock) {
      // One buffer extension for the block, then per-field stores.
      constexpr std::size_t kW = FixedWidth<T>::width;
      std::byte* p = w.extend(v.size() * kW);
      for (const T& e : v) {
        FixedWidth<T>::store(p, e);
        p += kW;
      }
    } else {
      for (const auto& e : v) Serde<T>::write(w, e);
    }
  }
  static std::vector<T> read(BufReader& r) {
    std::vector<T> v;
    read_append(r, v);
    return v;
  }
  /// read(), decoding the elements onto the end of `v` instead of into a
  /// fresh vector. A rejected count leaves `v` unchanged.
  static void read_append(BufReader& r, std::vector<T>& v) {
    const auto n = r.read_varint();
    // A count past what the bytes left can hold is corrupt: reject it before
    // it sizes an allocation.
    if constexpr (kBlock) {
      // One bounds check for the block, then per-field loads.
      constexpr std::size_t kW = FixedWidth<T>::width;
      if (n > r.remaining() / kW) {
        throw std::runtime_error("BufReader: truncated input");
      }
      const std::byte* p = r.take(n * kW);
      const std::size_t at = v.size();
      v.resize(at + n);
      for (std::size_t i = at; i < v.size(); ++i) {
        FixedWidth<T>::load(p, v[i]);
        p += kW;
      }
    } else {
      // Every element encodes to at least one byte.
      if (n > r.remaining()) throw std::runtime_error("BufReader: truncated input");
      if (v.empty()) v.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) v.push_back(Serde<T>::read(r));
    }
  }
};

/// Serialize one value to a fresh byte buffer.
template <typename T>
Bytes to_bytes(const T& v) {
  BufWriter w;
  Serde<T>::write(w, v);
  return w.take();
}

/// Deserialize one value that occupies the entire buffer.
template <typename T>
T from_bytes(std::span<const std::byte> b) {
  BufReader r(b);
  T v = Serde<T>::read(r);
  if (!r.done()) throw std::runtime_error("from_bytes: trailing garbage");
  return v;
}

/// Deserialize a vector that occupies the entire buffer onto the end of
/// `out`: from_bytes<std::vector<T>> without the intermediate vector.
template <typename T>
void append_from_bytes(std::span<const std::byte> b, std::vector<T>& out) {
  BufReader r(b);
  Serde<std::vector<T>>::read_append(r, out);
  if (!r.done()) throw std::runtime_error("from_bytes: trailing garbage");
}

}  // namespace hpbdc
