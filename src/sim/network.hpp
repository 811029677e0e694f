#pragma once
// Simulated cluster network. Cost model: each node has a full-duplex NIC
// (independent TX and RX serialization at `bandwidth` bytes/s); a message of
// s bytes from a to b occupies a's TX for s/bw, traverses the fabric with a
// topology-dependent propagation latency (hops * per_hop_latency), then
// occupies b's RX for s/bw. NIC occupancy queues FIFO, which reproduces
// endpoint congestion — the dominant contention effect for the workloads we
// model (incast at shuffle reducers).
//
// Topologies differ only in hop count: full mesh (1 hop), star/single switch
// (2 hops), and a three-level fat-tree (2 hops within a rack, 4 within a
// pod, 6 across pods) — the standard k-ary fat-tree path lengths.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace hpbdc::sim {

enum class Topology { kFullMesh, kStar, kFatTree };

struct NetworkConfig {
  std::size_t nodes = 8;
  double bandwidth_bps = 1.25e9;    // bytes/sec (10 Gbit/s)
  double per_hop_latency = 5e-6;    // seconds
  Topology topology = Topology::kStar;
  // Fat-tree shape: nodes per rack and racks per pod (used when kFatTree).
  std::size_t hosts_per_rack = 4;
  std::size_t racks_per_pod = 4;
  // Failure injection: each non-loopback message is silently lost with this
  // probability (sender still pays TX serialization, like a real drop in
  // the fabric). Deterministic given loss_seed.
  double loss_probability = 0.0;
  std::uint64_t loss_seed = 0x10550001;
};

struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
};

class Network {
 public:
  Network(Simulator& sim, NetworkConfig cfg)
      : sim_(sim),
        cfg_(cfg),
        tx_free_(cfg.nodes, 0.0),
        rx_free_(cfg.nodes, 0.0),
        loss_probability_(cfg.loss_probability),
        loss_rng_(cfg.loss_seed),
        jitter_rng_(cfg.loss_seed ^ 0x4a17e5ULL) {
    if (cfg.nodes == 0) throw std::invalid_argument("Network: zero nodes");
    if (cfg.bandwidth_bps <= 0) throw std::invalid_argument("Network: bad bandwidth");
    if (cfg.loss_probability < 0 || cfg.loss_probability >= 1) {
      throw std::invalid_argument("Network: loss probability in [0, 1)");
    }
  }

  const NetworkConfig& config() const noexcept { return cfg_; }
  std::size_t nodes() const noexcept { return cfg_.nodes; }
  const NetworkStats& stats() const noexcept { return stats_; }

  /// Snapshot the stats into `reg` as the net.msgs_sent, net.bytes_sent
  /// and net.msgs_dropped gauges. Exporting twice in a row changes nothing.
  void export_metrics(obs::MetricsRegistry& reg) const {
    reg.gauge("net.msgs_sent").set(static_cast<std::int64_t>(stats_.messages));
    reg.gauge("net.bytes_sent").set(static_cast<std::int64_t>(stats_.bytes));
    reg.gauge("net.msgs_dropped").set(static_cast<std::int64_t>(stats_.dropped));
  }

  // ---- runtime fault injection (driven by sim::FaultInjector) -------------
  // NetworkConfig::loss_probability remains the *base* rate; these setters
  // move the live values mid-run (loss/reorder/delay bursts). The base is
  // restored by the injector at burst end.

  /// Change the live message-loss probability.
  void set_loss_probability(double p) {
    if (p < 0 || p >= 1) {
      throw std::invalid_argument("Network: loss probability in [0, 1)");
    }
    loss_probability_ = p;
  }
  double loss_probability() const noexcept { return loss_probability_; }

  /// Add uniform [0, max_extra) seconds of per-message delivery delay. The
  /// NIC frees at the undelayed time, so a later message can overtake an
  /// earlier one — this is the reorder-burst mechanism.
  void set_delivery_jitter(double max_extra) {
    if (max_extra < 0) throw std::invalid_argument("Network: negative jitter");
    delivery_jitter_ = max_extra;
  }

  /// Add a fixed delay to every delivery (congested-fabric model; stalls
  /// heartbeats and control RPCs without reordering them).
  void set_extra_delay(double d) {
    if (d < 0) throw std::invalid_argument("Network: negative delay");
    extra_delay_ = d;
  }

  /// Number of fabric hops between two nodes under the configured topology.
  std::size_t hops(std::size_t src, std::size_t dst) const {
    if (src == dst) return 0;
    switch (cfg_.topology) {
      case Topology::kFullMesh:
        return 1;
      case Topology::kStar:
        return 2;
      case Topology::kFatTree: {
        const std::size_t rack_a = src / cfg_.hosts_per_rack;
        const std::size_t rack_b = dst / cfg_.hosts_per_rack;
        if (rack_a == rack_b) return 2;
        const std::size_t pod_a = rack_a / cfg_.racks_per_pod;
        const std::size_t pod_b = rack_b / cfg_.racks_per_pod;
        return pod_a == pod_b ? 4 : 6;
      }
    }
    return 2;
  }

  /// Transfer `bytes` from src to dst; `on_delivered` fires at delivery time.
  /// Local (src == dst) transfers cost only a loopback latency.
  void send(std::size_t src, std::size_t dst, std::uint64_t bytes,
            Action on_delivered) {
    check(src);
    check(dst);
    stats_.messages++;
    stats_.bytes += bytes;
    const SimTime now = sim_.now();
    if (src == dst) {
      sim_.schedule_at(now + kLoopbackLatency, std::move(on_delivered));
      return;
    }
    const double ser = static_cast<double>(bytes) / cfg_.bandwidth_bps;
    const SimTime tx_start = std::max(now, tx_free_[src]);
    const SimTime tx_end = tx_start + ser;
    tx_free_[src] = tx_end;
    if (loss_probability_ > 0 && loss_rng_.next_bool(loss_probability_)) {
      ++stats_.dropped;  // lost in the fabric: TX was paid, nothing arrives
      return;
    }
    const SimTime prop = static_cast<double>(hops(src, dst)) * cfg_.per_hop_latency;
    const SimTime rx_start = std::max(tx_end + prop, rx_free_[dst]);
    const SimTime rx_end = rx_start + ser;
    rx_free_[dst] = rx_end;
    SimTime deliver = rx_end + extra_delay_;
    if (delivery_jitter_ > 0) {
      deliver += jitter_rng_.next_double() * delivery_jitter_;
    }
    sim_.schedule_at(deliver, std::move(on_delivered));
  }

  /// Transfer `bytes` from src to every node in `dsts` as ONE fabric
  /// multicast: the source pays TX serialization once (switch replication —
  /// the whole point over N unicasts), each destination pays its own RX
  /// serialization, and loss/jitter roll per destination on the last hop.
  /// stats_.bytes counts the frame once; per-destination deliveries invoke
  /// on_delivered(dst). A dst equal to src costs only the loopback latency.
  void multicast(std::size_t src, const std::vector<std::size_t>& dsts,
                 std::uint64_t bytes,
                 std::function<void(std::size_t dst)> on_delivered) {
    check(src);
    stats_.messages++;
    stats_.bytes += bytes;
    const SimTime now = sim_.now();
    const double ser = static_cast<double>(bytes) / cfg_.bandwidth_bps;
    const SimTime tx_start = std::max(now, tx_free_[src]);
    const SimTime tx_end = tx_start + ser;
    tx_free_[src] = tx_end;
    auto shared_cb =
        std::make_shared<std::function<void(std::size_t)>>(std::move(on_delivered));
    for (const std::size_t dst : dsts) {
      check(dst);
      if (dst == src) {
        sim_.schedule_at(now + kLoopbackLatency, [shared_cb, dst] { (*shared_cb)(dst); });
        continue;
      }
      if (loss_probability_ > 0 && loss_rng_.next_bool(loss_probability_)) {
        ++stats_.dropped;  // last-hop loss: this replica never arrives
        continue;
      }
      const SimTime prop = static_cast<double>(hops(src, dst)) * cfg_.per_hop_latency;
      const SimTime rx_start = std::max(tx_end + prop, rx_free_[dst]);
      const SimTime rx_end = rx_start + ser;
      rx_free_[dst] = rx_end;
      SimTime deliver = rx_end + extra_delay_;
      if (delivery_jitter_ > 0) {
        deliver += jitter_rng_.next_double() * delivery_jitter_;
      }
      sim_.schedule_at(deliver, [shared_cb, dst] { (*shared_cb)(dst); });
    }
  }

  /// Pure cost query (no event scheduled, no NIC state touched): the
  /// uncontended latency of a transfer. Used by analytical baselines.
  double uncontended_latency(std::size_t src, std::size_t dst, std::uint64_t bytes) const {
    if (src == dst) return kLoopbackLatency;
    const double ser = static_cast<double>(bytes) / cfg_.bandwidth_bps;
    return 2 * ser + static_cast<double>(hops(src, dst)) * cfg_.per_hop_latency;
  }

 private:
  static constexpr double kLoopbackLatency = 5e-7;

  void check(std::size_t node) const {
    if (node >= cfg_.nodes) throw std::out_of_range("Network: bad node id");
  }

  Simulator& sim_;
  NetworkConfig cfg_;
  std::vector<SimTime> tx_free_, rx_free_;
  NetworkStats stats_;
  double loss_probability_ = 0.0;  // live value; cfg_ holds the base
  double delivery_jitter_ = 0.0;   // max extra per-message delay (reorder)
  double extra_delay_ = 0.0;       // fixed extra delivery delay
  Rng loss_rng_;
  Rng jitter_rng_;
};

}  // namespace hpbdc::sim
