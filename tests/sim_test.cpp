// Unit tests for src/sim: event ordering (with a differential check of the
// event queue against a std::priority_queue reference), the move-only
// Action, the network cost model and rank messaging.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
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

TEST(Simulator, RejectsNaNTime) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Simulator sim;
  std::vector<double> fired;
  for (const double t : {5.0, 1.0, 4.0, 2.0, 3.0, 0.5, 6.0}) {
    sim.schedule_at(t, [&] { fired.push_back(sim.now()); });
  }
  EXPECT_THROW(sim.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(nan, [] {}), std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 7u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{0.5, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(sim.now(), 6.0);
  // The clock stayed a number, so the past is still caught.
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-0.5, [] {}), std::invalid_argument);
}

// ---- Simulator vs a std::priority_queue reference ------------------------------

/// A seeded random schedule. What event `id` does when it fires (how many
/// children it schedules, and after which delays) is a pure function of
/// (seed, id), so the Simulator and the reference replay the same schedule.
/// Delays are multiples of 0.25 (zero included), so times tie heavily.
struct RandomSchedule {
  RandomSchedule(std::uint64_t s, std::uint64_t b) : seed(s), budget(b) {}

  std::uint64_t seed;
  std::uint64_t budget;  // total events, initial ones included
  std::uint64_t next_id = 0;
  std::vector<std::pair<std::uint64_t, double>> fired;  // (id, time)

  std::vector<double> children(std::uint64_t id) const {
    Rng r(seed ^ ((id + 1) * 0x9E3779B97F4A7C15ULL));
    // Now and then a burst: enough children at once to grow the slab from
    // inside a callback.
    const std::uint64_t n = r.next_below(16) == 0 ? 40 : r.next_below(3);
    std::vector<double> out;
    for (std::uint64_t j = 0; j < n; ++j) {
      out.push_back(0.25 * static_cast<double>(r.next_below(5)));
    }
    return out;
  }
};

/// Reference model: the textbook event queue, a std::priority_queue on
/// (time, seq).
struct ReferenceQueue {
  struct Event {
    double time;
    std::uint64_t seq;
    std::uint64_t id;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
  double now = 0;
  std::uint64_t seq = 0;
  std::uint64_t processed = 0;
  RandomSchedule* sched = nullptr;

  void schedule_after(double delay, std::uint64_t id) {
    q.push(Event{now + delay, seq++, id});
  }
  void fire(const Event& ev) {
    now = ev.time;
    ++processed;
    sched->fired.emplace_back(ev.id, now);
    for (const double d : sched->children(ev.id)) {
      if (sched->next_id >= sched->budget) break;
      schedule_after(d, sched->next_id++);
    }
  }
  void run_until(double limit) {
    while (!q.empty() && q.top().time <= limit) {
      const Event ev = q.top();
      q.pop();
      fire(ev);
    }
    if (now < limit) now = limit;
  }
};

TEST(Simulator, MatchesPriorityQueueReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomSchedule ours{seed, 3000};
    RandomSchedule theirs{seed, 3000};
    Simulator sim;
    ReferenceQueue ref;
    ref.sched = &theirs;

    std::function<void(std::uint64_t)> schedule_children;
    const auto event = [&](std::uint64_t id) {
      return [&schedule_children, &ours, &sim, id] {
        schedule_children(id);
        // Reads a capture after scheduling, which may have grown the slab.
        ours.fired.emplace_back(id, sim.now());
      };
    };
    schedule_children = [&](std::uint64_t id) {
      for (const double d : ours.children(id)) {
        if (ours.next_id >= ours.budget) break;
        sim.schedule_after(d, event(ours.next_id++));
      }
    };
    // Schedules `n` events from outside any callback, on both sides.
    Rng rng(seed);
    const auto inject = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const double d = 0.25 * static_cast<double>(rng.next_below(8));
        sim.schedule_after(d, event(ours.next_id++));
        ref.schedule_after(d, theirs.next_id++);
      }
    };

    inject(64);
    // run_until limits are multiples of 0.5, so events land exactly on them.
    for (double limit = 0.5; !sim.idle() || !ref.q.empty(); limit += 0.5) {
      EXPECT_EQ(sim.run_until(limit), limit);
      ref.run_until(limit);
      ASSERT_EQ(ours.fired, theirs.fired) << "limit " << limit;
      ASSERT_EQ(sim.pending_events(), ref.q.size());
      ASSERT_EQ(sim.events_processed(), ref.processed);
      if (ours.next_id + 4 < ours.budget) inject(rng.next_below(4));
    }
    EXPECT_EQ(ours.next_id, ours.budget);  // the schedule used its whole budget
    EXPECT_EQ(sim.events_processed(), ours.next_id);
  }
}

// ---- Action ---------------------------------------------------------------------

/// Counts destructions of live (not moved-from) instances.
struct Counted {
  int* destroyed;
  explicit Counted(int* d) : destroyed(d) {}
  Counted(Counted&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)) {}
  Counted(const Counted&) = delete;
  ~Counted() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

TEST(Action, HoldsMoveOnlyCapture) {
  int got = 0;
  Action a([p = std::make_unique<int>(41), &got] { got = *p + 1; });
  Action b = std::move(a);
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(got, 42);

  Simulator sim;
  sim.schedule_at(1.0, [p = std::make_unique<int>(7), &got] { got = *p; });
  sim.run();
  EXPECT_EQ(got, 7);
}

TEST(Action, OversizedCaptureTakesHeapFallback) {
  std::array<std::uint64_t, 16> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * i;
  int destroyed = 0;
  std::uint64_t sum = 0;
  auto fn = [big, c = Counted(&destroyed), &sum] {
    for (const auto v : big) sum += v;
  };
  static_assert(!Action::stores_inline<decltype(fn)>);
  {
    Action a(std::move(fn));
    Action b;
    b = std::move(a);  // moves the pointer, not the capture
    b();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(sum, 1240u);  // sum of i^2 for i < 16
  EXPECT_EQ(destroyed, 1);
}

TEST(Action, PendingCapturesDestroyedOnceWithSimulator) {
  int destroyed = 0;
  int ran = 0;
  const auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    for (int i = 0; i < 40; ++i) {
      const double t = 0.5 * static_cast<double>(i % 8);
      if (i % 3 == 0) {
        std::array<char, 96> pad{};  // over-sized: heap fallback
        sim.schedule_at(t, [c = Counted(&destroyed), token, pad, &ran] { ++ran; });
      } else {
        sim.schedule_at(t, [c = Counted(&destroyed), token, &ran] { ++ran; });
      }
    }
    sim.run_until(1.5);
    EXPECT_EQ(ran, 20);  // times 0, 0.5, 1.0 and 1.5: four of every eight
    EXPECT_EQ(destroyed, ran);  // each fired capture died right after its call
    EXPECT_EQ(sim.pending_events(), 20u);
  }
  EXPECT_EQ(destroyed, 40);
  EXPECT_EQ(token.use_count(), 1);
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

TEST(Comm, HandlerMayReplaceItselfDuringDelivery) {
  Simulator sim;
  Network net(sim, NetworkConfig{});
  Comm comm(sim, net);
  const int tag = comm.next_tag();
  std::vector<std::string> log;
  // Long enough to live on the heap: reading it after the handler that
  // owns it was destroyed is a use-after-free.
  const std::string first(64, 'a');
  comm.set_handler(1, tag, [&comm, &log, tag, first](std::size_t, const Bytes&) {
    comm.set_handler(1, tag, [&log](std::size_t, const Bytes&) { log.push_back("second"); });
    log.push_back(first);  // a capture, read after the replacement
  });
  comm.send(0, 1, tag, Bytes(1));
  comm.send(0, 1, tag, Bytes(1));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{first, "second"}));
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
