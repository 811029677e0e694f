#pragma once
// Rank-based message passing over the simulated network — an MPI-flavoured
// layer: each node is a rank, messages carry a tag and opaque payload, and
// each (rank, tag) pair has a registered handler. The distributed runtimes,
// the flow shuffle, the Dfs and Raft are built on this.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace hpbdc::sim {

class Comm {
 public:
  /// Handler invoked at the destination rank when a message is delivered.
  using Handler = std::function<void(std::size_t src, const Bytes& payload)>;

  Comm(Simulator& sim, Network& net) : sim_(sim), net_(net) {}

  Simulator& simulator() noexcept { return sim_; }
  Network& network() noexcept { return net_; }
  std::size_t nranks() const noexcept { return net_.nodes(); }

  /// Allocate a tag unique within this Comm, so that the protocols sharing
  /// it never cross-deliver.
  int next_tag() noexcept { return tag_counter_++; }

  /// Register the handler for (rank, tag). Overwrites any previous handler.
  void set_handler(std::size_t rank, int tag, Handler h) {
    handlers_[key(rank, tag)] = std::make_shared<const Handler>(std::move(h));
  }

  /// Send payload from src to dst; delivery invokes the (dst, tag) handler.
  /// The simulated wire size is payload.size() + a fixed header.
  void send(std::size_t src, std::size_t dst, int tag, Bytes payload) {
    send_sized(src, dst, tag, static_cast<std::uint64_t>(payload.size()),
               std::move(payload));
  }

  /// Send with an explicit simulated body size, independent of the actual
  /// payload carried (typically empty). The runtimes use this: their cost
  /// model only needs sizes, and allocating real multi-MiB buffers for
  /// thousands of simulated messages would dominate the run.
  void send_sized(std::size_t src, std::size_t dst, int tag, std::uint64_t body_bytes,
                  Bytes payload = {}) {
    const auto wire = body_bytes + kHeaderBytes;
    auto deliver = [this, src, dst, tag, p = std::move(payload)] {
      auto it = handlers_.find(key(dst, tag));
      if (it == handlers_.end()) {
        ++dropped_;
        return;
      }
      // Hold a reference while invoking: a handler may replace itself
      // through set_handler, which would otherwise destroy the
      // std::function mid-call.
      const std::shared_ptr<const Handler> h = it->second;
      (*h)(src, p);
    };
    static_assert(Action::stores_inline<decltype(deliver)>,
                  "every message delivery would allocate");
    net_.send(src, dst, wire, std::move(deliver));
  }

  /// Multicast with an explicit simulated body size: one fabric frame from
  /// src fans out to every rank in `dsts` (see Network::multicast), invoking
  /// each destination's (dst, tag) handler with the shared payload. The
  /// push-flow shuffle uses this for broadcast distribution.
  void multicast_sized(std::size_t src, const std::vector<std::size_t>& dsts,
                       int tag, std::uint64_t body_bytes, Bytes payload = {}) {
    const auto wire = body_bytes + kHeaderBytes;
    net_.multicast(src, dsts, wire,
                   [this, src, tag, p = std::move(payload)](std::size_t dst) {
                     auto it = handlers_.find(key(dst, tag));
                     if (it == handlers_.end()) {
                       ++dropped_;
                       return;
                     }
                     const std::shared_ptr<const Handler> h = it->second;
                     (*h)(src, p);
                   });
  }

  /// Messages delivered to a (rank, tag) with no registered handler.
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  static constexpr std::uint64_t kHeaderBytes = 64;

  static std::uint64_t key(std::size_t rank, int tag) noexcept {
    return (static_cast<std::uint64_t>(rank) << 32) |
           static_cast<std::uint32_t>(tag);
  }

  Simulator& sim_;
  Network& net_;
  // Shared so that a delivery copies a pointer, not the std::function.
  std::unordered_map<std::uint64_t, std::shared_ptr<const Handler>> handlers_;
  int tag_counter_ = 1;
  std::uint64_t dropped_ = 0;
};

}  // namespace hpbdc::sim
