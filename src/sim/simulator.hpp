#pragma once
// Discrete-event simulation core. Events are (time, sequence) ordered, so
// simultaneous events fire in schedule order and every run is deterministic.
// Time is double seconds; the simulator makes no reference to wall-clock
// time, so simulated hours execute in milliseconds.
//
// The queue is built for host speed: callables live in a slab with a free
// list, a 4-ary min-heap orders small (time, seq, slot) keys, and each
// callable is a move-only small-buffer Action, so scheduling the common
// closures (message delivery, heartbeats, timers) allocates nothing once the
// slab has warmed up. (time, seq) is a strict total order, so the firing
// order does not depend on the heap's shape.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace hpbdc::sim {

/// A move-only `void()` callable. Captures of up to kInlineBytes with a
/// non-throwing move are stored inline (Comm's delivery closure
/// {this, src, dst, tag, Bytes} is exactly 56 bytes); anything larger takes
/// one heap allocation.
class Action {
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

 public:
  static constexpr std::size_t kInlineBytes = 56;

  /// True when a callable of type F is stored without a heap allocation.
  template <class F>
  static constexpr bool stores_inline = sizeof(F) <= kInlineBytes &&
                                        alignof(F) <= kAlign &&
                                        std::is_nothrow_move_constructible_v<F>;

  Action() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Action> &&
                                     std::is_invocable_r_v<void, D&>>>
  Action(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &Inline<D>::kOps;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &Heap<D>::kOps;
    }
  }

  Action(Action&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
  }

  Action& operator=(Action&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(o.buf_, buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;
  ~Action() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-construct the callable at `to` and end its life at `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <class D>
  struct Inline {
    static D* get(void* p) noexcept { return std::launder(static_cast<D*>(p)); }
    static void invoke(void* p) { (*get(p))(); }
    static void relocate(void* from, void* to) noexcept {
      D* f = get(from);
      ::new (to) D(std::move(*f));
      f->~D();
    }
    static void destroy(void* p) noexcept { get(p)->~D(); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  template <class D>
  struct Heap {
    static D* get(void* p) noexcept { return *std::launder(static_cast<D**>(p)); }
    static void invoke(void* p) { (*get(p))(); }
    static void relocate(void* from, void* to) noexcept { ::new (to) D*(get(from)); }
    static void destroy(void* p) noexcept { delete get(p); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  SimTime now() const noexcept { return now_; }

  /// Schedule fn to run at absolute time t (>= now; NaN is rejected).
  void schedule_at(SimTime t, Action fn) {
    // Negated so that NaN fails too: it passes `t < now_` and, once fired,
    // would make the clock NaN and every later check vacuous.
    if (!(t >= now_)) throw std::invalid_argument("Simulator: scheduling in the past");
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(fn));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(fn);
    }
    push(Key{t, seq_++, slot});
  }

  /// Schedule fn to run after the given delay (>= 0; NaN is rejected).
  void schedule_after(SimTime delay, Action fn) {
    if (!(delay >= 0)) throw std::invalid_argument("Simulator: negative delay");
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Run until the event queue drains. Returns the final simulated time.
  SimTime run() {
    while (!heap_.empty()) step();
    return now_;
  }

  /// Run until the queue drains or simulated time would exceed `limit`.
  /// Events scheduled past the limit remain queued.
  SimTime run_until(SimTime limit) {
    while (!heap_.empty() && heap_.front().time <= limit) step();
    if (now_ < limit) now_ = limit;
    return now_;
  }

  bool idle() const noexcept { return heap_.empty(); }
  std::size_t pending_events() const noexcept { return heap_.size(); }
  std::uint64_t events_processed() const noexcept { return processed_; }

 private:
  static constexpr std::size_t kArity = 4;

  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slab_
  };

  static bool before(const Key& a, const Key& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  void push(Key k) {
    std::size_t i = heap_.size();
    heap_.push_back(k);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  void pop_front() {
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  void step() {
    const Key top = heap_.front();
    pop_front();
    now_ = top.time;
    ++processed_;
    // Move the action out and free its slot before calling it: the callback
    // may schedule events, which can reuse the slot or grow the slab.
    Action fn = std::move(slab_[top.slot]);
    free_.push_back(top.slot);
    fn();
  }

  std::vector<Action> slab_;          // callables; empty where free
  std::vector<std::uint32_t> free_;   // free slab slots, reused LIFO
  std::vector<Key> heap_;             // 4-ary min-heap on (time, seq)
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace hpbdc::sim
