#pragma once
// Chase–Lev work-stealing deque, after Le et al., "Correct and Efficient
// Work-Stealing for Weak Memory Models" (PPoPP'13). The owner pushes and
// pops at the bottom; thieves steal from the top. The backing array grows
// geometrically; retired arrays are kept until destruction so a concurrent
// thief never reads freed memory (simple and safe reclamation).
//
// Slots are relaxed atomics (the paper's formulation): an in-flight thief
// may read a slot the owner is overwriting, and the subsequent CAS on top
// decides whose value counts. T must be trivially copyable — in practice a
// pointer — which is also what makes the racy read well-defined under TSan.

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace hpbdc {

template <typename T>
class WsDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "WsDeque slots are atomics; T must be trivially copyable");

 public:
  explicit WsDeque(std::int64_t initial_capacity = 64) {
    auto buf = std::make_unique<Buffer>(round_up(initial_capacity));
    buffer_.store(buf.get(), std::memory_order_relaxed);
    retired_.push_back(std::move(buf));
  }

  WsDeque(const WsDeque&) = delete;
  WsDeque& operator=(const WsDeque&) = delete;

  /// Owner-only: push one item at the bottom.
  void push(T item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > buf->capacity - 1) {
      buf = grow(buf, t, b);
    }
    buf->put(b, std::move(item));
    // Release store publishes the slot (and what it points to) to any thief
    // that acquires this bottom value. A release fence + relaxed store is
    // the paper's formulation, but TSan cannot see fence-based ordering.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner-only: pop the most recently pushed item (LIFO).
  bool pop(T& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    // Lê et al. order this store before the top load with a seq_cst fence
    // (a thief's steal mirrors it). Both accesses are seq_cst operations
    // instead, which ThreadSanitizer models and standalone fences it does
    // not: in the single total order of seq_cst operations, either the
    // thief's bottom load sees this decrement, or its top load precedes
    // ours, so we see any top it has claimed and the CAS on top below
    // settles the last element.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t <= b) {
      out = buf->get(b);
      if (t == b) {
        // Last element: race with thieves via CAS on top.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          bottom_.store(b + 1, std::memory_order_relaxed);
          return false;  // a thief won
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
      return true;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return false;  // empty
  }

  /// Thief: steal the oldest item (FIFO). Returns false on empty or when it
  /// lost a race (caller should treat both as "try elsewhere").
  bool steal(T& out) {
    // seq_cst loads, top before bottom: the thief's half of pop's ordering
    // argument. The bottom load also acquires a push's release store.
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t < b) {
      Buffer* buf = buffer_.load(std::memory_order_acquire);
      T item = buf->get(t);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return false;  // lost the race
      }
      out = std::move(item);
      return true;
    }
    return false;
  }

  /// Approximate size; safe to call from any thread.
  std::int64_t size_hint() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

 private:
  struct Buffer {
    explicit Buffer(std::int64_t cap)
        : capacity(cap),
          mask(cap - 1),
          slots(std::make_unique<std::atomic<T>[]>(static_cast<std::size_t>(cap))) {}
    T get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i & mask)].load(std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      slots[static_cast<std::size_t>(i & mask)].store(v, std::memory_order_relaxed);
    }
    std::int64_t capacity;
    std::int64_t mask;
    std::unique_ptr<std::atomic<T>[]> slots;
  };

  static std::int64_t round_up(std::int64_t v) {
    std::int64_t c = 2;
    while (c < v) c <<= 1;
    return c;
  }

  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    auto next = std::make_unique<Buffer>(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) next->put(i, old->get(i));
    Buffer* raw = next.get();
    buffer_.store(raw, std::memory_order_release);
    retired_.push_back(std::move(next));  // owner-only; old buffers outlive thieves
    return raw;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Buffer*> buffer_{nullptr};
  std::vector<std::unique_ptr<Buffer>> retired_;  // owner-only
};

}  // namespace hpbdc
