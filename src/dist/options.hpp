#pragma once
// Per-job runtime options for the distributed runtime. Historically the
// shuffle transport and its knobs were implicit (there was exactly one:
// pull-from-registry); RuntimeOptions makes the choice explicit and travels
// as ONE struct through every submission path — DistRuntime::submit,
// JobSlotPool::submit, and serve::SubmitRequest — instead of growing
// positional parameters at each layer.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "sim/policy.hpp"

namespace hpbdc::dist {

/// Which ShuffleTransport implementation a job runs on (see transport.hpp
/// for the contract both satisfy).
enum class TransportKind : std::uint8_t {
  kPull = 0,  // classic: register map output, reduce-side fetch RPCs
  kPush = 1,  // DFI-style: producers stream segments to flow targets
};

/// Knobs of the push-flow transport (ignored under kPull). Defaults are
/// sized for the simulated 10 Gbit fabric: 256 KiB segments amortize the
/// per-message header, 4 credits keep a channel's in-flight volume around
/// 1 MiB — enough to fill the pipe without unbounded receiver buffering.
struct FlowOptions {
  std::uint64_t segment_bytes = 256 * 1024;  // unit of streaming + credit
  std::size_t credits_per_channel = 4;       // in-flight segments per (src,dst)
};

/// Body size of a credit-return message, on the push fabric and on the
/// streaming runtime's data channels alike.
inline constexpr std::uint64_t kCreditAckBytes = 64;

/// The credit-paced send window of a push channel: a FIFO queue plus a
/// credit count. The flow fabric's (src, dst) channels and the streaming
/// runtime's data channels both pace through it, and each receiver returns
/// one credit per item it consumed. An item that needs no credit (a stream
/// barrier) still never overtakes a credit-starved head: that would tear the
/// consistent cut.
template <typename Item>
class CreditWindow {
 public:
  /// Full window of `credits`, empty queue.
  void arm(std::size_t credits) {
    window_ = credits;
    credits_ = credits;
    queue_.clear();
  }

  /// Queue `item`. True when it cannot leave at once: there is no credit,
  /// or items are queued ahead of it.
  bool push(Item item) {
    const bool waits = credits_ == 0 || !queue_.empty();
    queue_.push_back(std::move(item));
    return waits;
  }

  /// send(item) from the head in FIFO order while credits last; an item
  /// with needs_credit(item) == false takes none. True when it stopped on a
  /// credit.
  template <typename Send, typename NeedsCredit>
  bool pump(Send&& send, NeedsCredit&& needs_credit) {
    while (!queue_.empty()) {
      if (needs_credit(queue_.front())) {
        if (credits_ == 0) return true;
        --credits_;
      }
      Item item = std::move(queue_.front());
      queue_.pop_front();
      send(std::move(item));
    }
    return false;
  }

  /// Return one credit, never above the armed window.
  void grant() {
    if (credits_ < window_) ++credits_;
  }

  std::size_t queued() const noexcept { return queue_.size(); }
  std::size_t in_flight() const noexcept { return window_ - credits_; }  // credits drawn

 private:
  std::deque<Item> queue_;
  std::size_t window_ = 0;
  std::size_t credits_ = 0;
};

/// Everything a caller may vary per job. Plain value type; default
/// construction is the pre-redesign behavior (pull transport), which keeps
/// existing call sites and replay specs byte-identical.
struct RuntimeOptions {
  TransportKind transport = TransportKind::kPull;
  FlowOptions flow;
  /// Durability policy for checkpoints written to the DFS: batch stage
  /// checkpoints and streaming epoch checkpoints alike. Shuffle spill stays
  /// replicated regardless (hot, short-lived); checkpoints are the cold,
  /// large artifacts erasure coding is built for.
  sim::StoragePolicy checkpoint_policy = sim::StoragePolicy::kReplicated;
  /// Durability policy for the job's sink output (JobSpec::sink_file, when
  /// set). Sink files are final artifacts — written once, read long after
  /// the job — so they are the other natural kErasureCoded candidate.
  sim::StoragePolicy sink_policy = sim::StoragePolicy::kReplicated;
};

}  // namespace hpbdc::dist
