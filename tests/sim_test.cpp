// Unit tests for src/sim: event ordering, the network cost model and rank
// messaging.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "sim/comm.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace hpbdc::sim {
namespace {

// ---- Simulator ---------------------------------------------------------------

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.schedule_after(0.5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(2.0, [&] {
    EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  });
  sim.run();
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

// ---- Network ------------------------------------------------------------------

TEST(Network, UncontendedLatencyFormula) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.nodes = 4;
  cfg.bandwidth_bps = 1e9;
  cfg.per_hop_latency = 1e-5;
  cfg.topology = Topology::kStar;
  Network net(sim, cfg);
  double delivered = -1;
  net.send(0, 1, 1'000'000, [&] { delivered = sim.now(); });
  sim.run();
  // 2 NIC serializations (tx + rx) + 2 hops.
  EXPECT_NEAR(delivered, 2 * 1e-3 + 2 * 1e-5, 1e-12);
  EXPECT_NEAR(net.uncontended_latency(0, 1, 1'000'000), delivered, 1e-12);
}

TEST(Network, SenderSerializationQueues) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.nodes = 4;
  cfg.bandwidth_bps = 1e9;
  cfg.per_hop_latency = 0;  // isolate serialization
  Network net(sim, cfg);
  double t1 = -1, t2 = -1;
  // Two messages from node 0 back-to-back share its TX link.
  net.send(0, 1, 1'000'000, [&] { t1 = sim.now(); });
  net.send(0, 2, 1'000'000, [&] { t2 = sim.now(); });
  sim.run();
  EXPECT_NEAR(t1, 2e-3, 1e-9);
  EXPECT_NEAR(t2, 3e-3, 1e-9);  // second waits 1ms for TX, then pipeline
}

TEST(Network, ReceiverIncastQueues) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.nodes = 4;
  cfg.bandwidth_bps = 1e9;
  cfg.per_hop_latency = 0;
  Network net(sim, cfg);
  std::vector<double> t(3, -1);
  // Three senders converge on node 3: its RX link serializes them.
  for (std::size_t s = 0; s < 3; ++s) {
    net.send(s, 3, 1'000'000, [&t, s, &sim] { t[s] = sim.now(); });
  }
  sim.run();
  std::sort(t.begin(), t.end());
  EXPECT_NEAR(t[0], 2e-3, 1e-9);
  EXPECT_NEAR(t[1], 3e-3, 1e-9);
  EXPECT_NEAR(t[2], 4e-3, 1e-9);
}

TEST(Network, FatTreeHopCounts) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.nodes = 32;
  cfg.topology = Topology::kFatTree;
  cfg.hosts_per_rack = 4;
  cfg.racks_per_pod = 2;
  Network net(sim, cfg);
  EXPECT_EQ(net.hops(0, 0), 0u);
  EXPECT_EQ(net.hops(0, 1), 2u);   // same rack
  EXPECT_EQ(net.hops(0, 4), 4u);   // same pod, different rack
  EXPECT_EQ(net.hops(0, 8), 6u);   // different pod
}

TEST(Network, TopologyHops) {
  Simulator sim;
  NetworkConfig mesh;
  mesh.topology = Topology::kFullMesh;
  Network a(sim, mesh);
  EXPECT_EQ(a.hops(0, 1), 1u);
  NetworkConfig star;
  star.topology = Topology::kStar;
  Network b(sim, star);
  EXPECT_EQ(b.hops(0, 1), 2u);
}

TEST(Network, StatsAccumulate) {
  Simulator sim;
  Network net(sim, NetworkConfig{});
  net.send(0, 1, 100, [] {});
  net.send(1, 2, 200, [] {});
  sim.run();
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().bytes, 300u);
}

TEST(Network, LossInjectionDropsApproximateFraction) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.nodes = 4;
  cfg.loss_probability = 0.2;
  Network net(sim, cfg);
  int delivered = 0;
  constexpr int kMsgs = 5000;
  for (int i = 0; i < kMsgs; ++i) {
    net.send(0, 1, 100, [&] { ++delivered; });
  }
  sim.run();
  EXPECT_EQ(net.stats().dropped + static_cast<std::uint64_t>(delivered),
            static_cast<std::uint64_t>(kMsgs));
  EXPECT_NEAR(static_cast<double>(net.stats().dropped) / kMsgs, 0.2, 0.03);
}

TEST(Network, LoopbackNeverDropped) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.nodes = 2;
  cfg.loss_probability = 0.5;
  Network net(sim, cfg);
  int delivered = 0;
  for (int i = 0; i < 100; ++i) net.send(1, 1, 100, [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 100);
}

TEST(Network, LossDeterministicPerSeed) {
  auto drops_with_seed = [](std::uint64_t seed) {
    Simulator sim;
    NetworkConfig cfg;
    cfg.nodes = 2;
    cfg.loss_probability = 0.3;
    cfg.loss_seed = seed;
    Network net(sim, cfg);
    for (int i = 0; i < 1000; ++i) net.send(0, 1, 10, [] {});
    sim.run();
    return net.stats().dropped;
  };
  EXPECT_EQ(drops_with_seed(1), drops_with_seed(1));
  EXPECT_NE(drops_with_seed(1), drops_with_seed(2));
}

TEST(Network, RejectsBadLossProbability) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.loss_probability = 1.0;
  EXPECT_THROW(Network(sim, cfg), std::invalid_argument);
}

TEST(Network, RejectsBadNode) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.nodes = 2;
  Network net(sim, cfg);
  EXPECT_THROW(net.send(0, 5, 10, [] {}), std::out_of_range);
}

// ---- Comm ----------------------------------------------------------------------

TEST(Comm, DeliversToHandler) {
  Simulator sim;
  Network net(sim, NetworkConfig{});
  Comm comm(sim, net);
  const int tag = comm.next_tag();
  std::size_t from = 99;
  std::string got;
  comm.set_handler(1, tag, [&](std::size_t src, const Bytes& p) {
    from = src;
    got = from_bytes<std::string>(p);
  });
  comm.send(0, 1, tag, to_bytes(std::string("ping")));
  sim.run();
  EXPECT_EQ(from, 0u);
  EXPECT_EQ(got, "ping");
}

TEST(Comm, UnhandledTagCountsDropped) {
  Simulator sim;
  Network net(sim, NetworkConfig{});
  Comm comm(sim, net);
  comm.send(0, 1, 424242, Bytes(8));
  sim.run();
  EXPECT_EQ(comm.dropped(), 1u);
}

TEST(Comm, TagsIsolateTraffic) {
  Simulator sim;
  Network net(sim, NetworkConfig{});
  Comm comm(sim, net);
  const int t1 = comm.next_tag(), t2 = comm.next_tag();
  int got1 = 0, got2 = 0;
  comm.set_handler(1, t1, [&](std::size_t, const Bytes&) { ++got1; });
  comm.set_handler(1, t2, [&](std::size_t, const Bytes&) { ++got2; });
  comm.send(0, 1, t1, Bytes(1));
  comm.send(0, 1, t1, Bytes(1));
  comm.send(0, 1, t2, Bytes(1));
  sim.run();
  EXPECT_EQ(got1, 2);
  EXPECT_EQ(got2, 1);
}

// An app-level stop-and-wait protocol (retransmit every 50 ms until acked)
// delivers reliably over a lossy fabric: the pattern the dist runtime's
// heartbeat/requeue machinery relies on.
TEST(Comm, RetransmitWithAckSurvivesLoss) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.nodes = 2;
  cfg.loss_probability = 0.4;
  cfg.loss_seed = 7;
  Network net(sim, cfg);
  Comm comm(sim, net);
  const int tag_data = comm.next_tag(), tag_ack = comm.next_tag();
  int received = 0, acked = 0, attempts = 0;
  comm.set_handler(1, tag_data, [&](std::size_t src, const Bytes& p) {
    ++received;  // duplicates possible: retransmits race the ack
    EXPECT_EQ(from_bytes<std::string>(p), "payload");
    comm.send(1, src, tag_ack, Bytes(1));
  });
  comm.set_handler(0, tag_ack, [&](std::size_t, const Bytes&) { ++acked; });
  std::function<void()> attempt = [&] {
    if (acked > 0) return;
    ++attempts;
    comm.send(0, 1, tag_data, to_bytes(std::string("payload")));
    sim.schedule_after(0.05, [&] { attempt(); });
  };
  attempt();
  sim.run();
  EXPECT_GE(received, 1);
  EXPECT_GE(acked, 1);
  EXPECT_GT(attempts, 1);  // this seed loses traffic, forcing a retransmission
  EXPECT_GE(net.stats().dropped, 1u);
}

}  // namespace
}  // namespace hpbdc::sim
