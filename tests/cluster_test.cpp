// Unit tests for src/cluster: host/VM model, placement policies, migration
// models, and the batch scheduler (invariants + policy-specific behaviour).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cluster/batch_scheduler.hpp"
#include "cluster/indexed_heap.hpp"
#include "cluster/migration.hpp"
#include "cluster/placement.hpp"
#include "cluster/vm.hpp"

namespace hpbdc::cluster {
namespace {

constexpr std::uint64_t GiB = 1ULL << 30;

std::vector<Host> make_hosts(std::size_t n, double cpu = 16, std::uint64_t ram = 64 * GiB) {
  std::vector<Host> hosts;
  for (std::size_t i = 0; i < n; ++i) hosts.emplace_back(i, Resources{cpu, ram});
  return hosts;
}

// ---- Host ----------------------------------------------------------------------

TEST(Host, PlaceAndEvict) {
  Host h(0, Resources{8, 32 * GiB});
  VmSpec vm{1, Resources{4, 16 * GiB}};
  EXPECT_TRUE(h.can_host(vm));
  h.place(vm);
  EXPECT_EQ(h.used().cpu, 4);
  EXPECT_EQ(h.vms().size(), 1u);
  EXPECT_DOUBLE_EQ(h.load(), 0.5);
  h.evict(vm);
  EXPECT_EQ(h.used().cpu, 0);
  EXPECT_TRUE(h.vms().empty());
}

TEST(Host, RejectsOverCapacity) {
  Host h(0, Resources{4, 8 * GiB});
  h.place(VmSpec{1, Resources{4, 4 * GiB}});
  EXPECT_FALSE(h.can_host(VmSpec{2, Resources{1, 1 * GiB}}));
  EXPECT_THROW(h.place(VmSpec{2, Resources{1, 1 * GiB}}), std::runtime_error);
}

TEST(Host, EvictUnknownThrows) {
  Host h(0, Resources{4, 8 * GiB});
  EXPECT_THROW(h.evict(VmSpec{9, Resources{1, GiB}}), std::runtime_error);
}

TEST(Host, LoadIsBottleneckDimension) {
  Host h(0, Resources{10, 10 * GiB});
  h.place(VmSpec{1, Resources{1, 8 * GiB}});  // RAM-bound
  EXPECT_DOUBLE_EQ(h.load(), 0.8);
}

// ---- Placement -------------------------------------------------------------------

std::vector<VmSpec> uniform_vms(std::size_t n, double cpu, std::uint64_t ram) {
  std::vector<VmSpec> vms;
  for (std::size_t i = 0; i < n; ++i) vms.push_back(VmSpec{i, Resources{cpu, ram}});
  return vms;
}

TEST(Placement, FirstFitPacksLeft) {
  auto hosts = make_hosts(4);
  Placer placer(PlacementPolicy::kFirstFit);
  auto res = placer.place_all(hosts, uniform_vms(4, 4, 16 * GiB));
  EXPECT_EQ(res.placed, 4u);
  EXPECT_EQ(res.hosts_used, 1u);  // all fit on host 0
  EXPECT_EQ(hosts[0].vms().size(), 4u);
}

TEST(Placement, WorstFitSpreads) {
  auto hosts = make_hosts(4);
  Placer placer(PlacementPolicy::kWorstFit);
  auto res = placer.place_all(hosts, uniform_vms(4, 4, 16 * GiB));
  EXPECT_EQ(res.placed, 4u);
  EXPECT_EQ(res.hosts_used, 4u);  // one per host
}

TEST(Placement, BestFitFillsTightestHost) {
  auto hosts = make_hosts(2);
  hosts[1].place(VmSpec{100, Resources{12, 48 * GiB}});  // host 1 nearly full
  Placer placer(PlacementPolicy::kBestFit);
  auto choice = placer.choose(hosts, VmSpec{1, Resources{2, 8 * GiB}});
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(*choice, 1u);  // tightest feasible host wins
}

TEST(Placement, RejectsWhenNowhereFits) {
  auto hosts = make_hosts(2, 4, 8 * GiB);
  Placer placer(PlacementPolicy::kFirstFit);
  auto res = placer.place_all(hosts, uniform_vms(1, 8, 4 * GiB));
  EXPECT_EQ(res.placed, 0u);
  EXPECT_EQ(res.rejected, 1u);
  EXPECT_FALSE(res.assignment[0].has_value());
}

class PlacementPolicies : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(PlacementPolicies, NeverViolatesCapacity) {
  auto hosts = make_hosts(8, 16, 64 * GiB);
  Rng rng(99);
  std::vector<VmSpec> vms;
  for (std::size_t i = 0; i < 200; ++i) {
    vms.push_back(VmSpec{i, Resources{static_cast<double>(rng.next_in(1, 8)),
                                      static_cast<std::uint64_t>(rng.next_in(1, 16)) * GiB}});
  }
  Placer placer(GetParam());
  auto res = placer.place_all(hosts, vms);
  EXPECT_EQ(res.placed + res.rejected, vms.size());
  for (const auto& h : hosts) {
    EXPECT_LE(h.used().cpu, h.capacity().cpu);
    EXPECT_LE(h.used().ram, h.capacity().ram);
  }
}

TEST_P(PlacementPolicies, AssignmentConsistentWithHosts) {
  auto hosts = make_hosts(4);
  Placer placer(GetParam());
  auto vms = uniform_vms(10, 2, 4 * GiB);
  auto res = placer.place_all(hosts, vms);
  std::map<std::size_t, std::size_t> per_host;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    if (res.assignment[i]) ++per_host[*res.assignment[i]];
  }
  for (const auto& [h, n] : per_host) EXPECT_EQ(hosts[h].vms().size(), n);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PlacementPolicies,
                         ::testing::Values(PlacementPolicy::kFirstFit,
                                           PlacementPolicy::kBestFit,
                                           PlacementPolicy::kWorstFit,
                                           PlacementPolicy::kRandom));

// ---- Migration -------------------------------------------------------------------

TEST(Migration, StopAndCopyDowntimeIsTotal) {
  MigrationConfig cfg;
  cfg.vm_memory = 4 * GiB;
  cfg.bandwidth_bps = 1e9;
  const auto r = migrate_stop_and_copy(cfg);
  EXPECT_DOUBLE_EQ(r.downtime, r.total_time);
  EXPECT_NEAR(r.total_time, static_cast<double>(4 * GiB) / 1e9, 1e-9);
  EXPECT_EQ(r.transferred, cfg.vm_memory);
}

TEST(Migration, PreCopyDowntimeFarBelowStopAndCopy) {
  MigrationConfig cfg;
  cfg.vm_memory = 4 * GiB;
  cfg.bandwidth_bps = 1.25e9;
  cfg.dirty_rate_bps = 50e6;  // well below bandwidth
  const auto pre = migrate_pre_copy(cfg);
  const auto snc = migrate_stop_and_copy(cfg);
  EXPECT_LT(pre.downtime, snc.downtime / 10);
  EXPECT_TRUE(pre.converged);
  EXPECT_GT(pre.rounds, 1u);
  EXPECT_GT(pre.transferred, cfg.vm_memory);  // retransmission overhead
}

TEST(Migration, PreCopyDowntimeBoundedWhenConverged) {
  // Converged pre-copy stops once the dirty set is below the threshold, so
  // downtime is bounded by threshold/bandwidth (the curve is sawtooth in
  // the dirty rate, not monotone); a non-converging rate dwarfs them all.
  MigrationConfig cfg;
  cfg.vm_memory = 2 * GiB;
  cfg.bandwidth_bps = 1.25e9;
  const double bound =
      static_cast<double>(kPreCopyStopThreshold) / cfg.bandwidth_bps + 1e-9;
  double worst_converged = 0;
  for (double rate : {10e6, 100e6, 400e6, 800e6}) {
    cfg.dirty_rate_bps = rate;
    const auto r = migrate_pre_copy(cfg);
    EXPECT_TRUE(r.converged) << "rate=" << rate;
    EXPECT_LE(r.downtime, bound) << "rate=" << rate;
    worst_converged = std::max(worst_converged, r.downtime);
    // Total time grows with the dirty rate (more rounds / bigger rounds).
  }
  cfg.dirty_rate_bps = 2.5e9;  // 2x bandwidth: cannot converge
  const auto diverged = migrate_pre_copy(cfg);
  EXPECT_FALSE(diverged.converged);
  EXPECT_GT(diverged.downtime, worst_converged * 10);
}

TEST(Migration, PreCopyDegeneratesWhenDirtyRateExceedsBandwidth) {
  MigrationConfig cfg;
  cfg.vm_memory = 2 * GiB;
  cfg.bandwidth_bps = 1e9;
  cfg.dirty_rate_bps = 2e9;  // dirtying faster than we can send
  const auto r = migrate_pre_copy(cfg);
  EXPECT_FALSE(r.converged);
  // Downtime approaches a full-memory stop-and-copy.
  EXPECT_GT(r.downtime, 0.5 * static_cast<double>(cfg.vm_memory) / cfg.bandwidth_bps);
}

TEST(Migration, PostCopyConstantDowntime) {
  MigrationConfig cfg;
  cfg.vm_memory = 8 * GiB;
  cfg.bandwidth_bps = 1.25e9;
  cfg.cpu_state_bytes = 8 << 20;
  const auto a = migrate_post_copy(cfg);
  cfg.dirty_rate_bps = 2e9;  // irrelevant to post-copy downtime
  const auto b = migrate_post_copy(cfg);
  EXPECT_DOUBLE_EQ(a.downtime, b.downtime);
  EXPECT_NEAR(a.downtime, (8.0 * (1 << 20)) / 1.25e9, 1e-9);
  EXPECT_GT(a.total_time, a.downtime);
}

TEST(Migration, ValidatesConfig) {
  MigrationConfig cfg;
  cfg.bandwidth_bps = 0;
  EXPECT_THROW(migrate_pre_copy(cfg), std::invalid_argument);
  cfg = MigrationConfig{};
  cfg.vm_memory = 0;
  EXPECT_THROW(migrate_stop_and_copy(cfg), std::invalid_argument);
}

// ---- Batch scheduling ----------------------------------------------------------------

std::vector<Job> small_trace() {
  // Arrivals chosen so a wide job blocks the head under FIFO.
  // cluster of 4 nodes assumed.
  return {
      Job{0, 0.0, 100, 100, 3, 0},   // occupies 3 of 4 nodes
      Job{1, 1.0, 50, 60, 4, 0},     // wide: must wait for job 0
      Job{2, 2.0, 10, 12, 1, 1},     // narrow and short: backfillable
      Job{3, 3.0, 10, 12, 1, 1},     // narrow and short: backfillable
  };
}

TEST(BatchSched, FifoOrdersStartsByArrival) {
  auto res = simulate_schedule(4, SchedPolicy::kFifo, small_trace());
  std::map<std::uint64_t, JobOutcome> by_id;
  for (const auto& o : res.jobs) by_id[o.id] = o;
  EXPECT_LE(by_id[0].start, by_id[1].start);
  EXPECT_LE(by_id[1].start, by_id[2].start);
  // Narrow jobs cannot jump under FIFO.
  EXPECT_GE(by_id[2].start, by_id[1].start);
}

TEST(BatchSched, EasyBackfillsNarrowJobs) {
  auto fifo = simulate_schedule(4, SchedPolicy::kFifo, small_trace());
  auto easy = simulate_schedule(4, SchedPolicy::kEasyBackfill, small_trace());
  EXPECT_GT(easy.backfilled, 0u);
  EXPECT_LT(easy.mean_wait, fifo.mean_wait);
  // Backfilling must not delay the reserved head job (job 1).
  std::map<std::uint64_t, JobOutcome> f, e;
  for (const auto& o : fifo.jobs) f[o.id] = o;
  for (const auto& o : easy.jobs) e[o.id] = o;
  EXPECT_LE(e[1].start, f[1].start + 1e-9);
}

TEST(BatchSched, SjfPrefersShortJobs) {
  std::vector<Job> jobs{
      Job{0, 0.0, 100, 100, 2, 0},
      Job{1, 1.0, 100, 100, 2, 0},  // long, queued
      Job{2, 2.0, 1, 1, 2, 0},      // short, arrives later
  };
  auto res = simulate_schedule(2, SchedPolicy::kSjf, jobs);
  std::map<std::uint64_t, JobOutcome> by_id;
  for (const auto& o : res.jobs) by_id[o.id] = o;
  EXPECT_LT(by_id[2].start, by_id[1].start);  // short jumped the long one
}

TEST(BatchSched, FairShareBalancesUsers) {
  // User 0 floods the queue; user 1 submits one job later. Fair-share should
  // start user 1's job before user 0's queued backlog.
  std::vector<Job> jobs;
  jobs.push_back(Job{0, 0.0, 100, 100, 2, 0});
  for (std::uint64_t i = 1; i <= 5; ++i) {
    jobs.push_back(Job{i, 0.5, 100, 100, 2, 0});
  }
  jobs.push_back(Job{99, 1.0, 10, 10, 2, 1});
  auto res = simulate_schedule(2, SchedPolicy::kFairShare, jobs);
  std::map<std::uint64_t, JobOutcome> by_id;
  for (const auto& o : res.jobs) by_id[o.id] = o;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_LT(by_id[99].start, by_id[i].start);
  }
}

class SchedPolicies : public ::testing::TestWithParam<SchedPolicy> {};

TEST_P(SchedPolicies, ConservationAndCapacity) {
  Rng rng(4242);
  TraceConfig tcfg;
  tcfg.jobs = 300;
  auto jobs = generate_trace(tcfg, rng, 32);
  auto res = simulate_schedule(32, GetParam(), jobs);

  // Every job runs exactly once, never before arrival.
  ASSERT_EQ(res.jobs.size(), jobs.size());
  std::map<std::uint64_t, const Job*> by_id;
  for (const auto& j : jobs) by_id[j.id] = &j;
  for (const auto& o : res.jobs) {
    ASSERT_TRUE(by_id.count(o.id));
    EXPECT_GE(o.start, by_id[o.id]->arrival - 1e-9);
    EXPECT_NEAR(o.finish - o.start, by_id[o.id]->runtime, 1e-9);
    EXPECT_GE(o.bounded_slowdown, 1.0);
  }
  // Node capacity is never exceeded at any event boundary.
  std::vector<std::pair<double, std::int64_t>> deltas;
  for (const auto& o : res.jobs) {
    const auto nodes = static_cast<std::int64_t>(by_id[o.id]->nodes);
    deltas.emplace_back(o.start, nodes);
    deltas.emplace_back(o.finish, -nodes);
  }
  std::sort(deltas.begin(), deltas.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  });
  std::int64_t in_use = 0;
  for (const auto& [t, d] : deltas) {
    in_use += d;
    EXPECT_LE(in_use, 32);
    EXPECT_GE(in_use, 0);
  }
  EXPECT_GT(res.utilization, 0.0);
  EXPECT_LE(res.utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedPolicies,
                         ::testing::Values(SchedPolicy::kFifo, SchedPolicy::kSjf,
                                           SchedPolicy::kEasyBackfill,
                                           SchedPolicy::kFairShare));

TEST(BatchSched, RejectsInfeasibleJobs) {
  EXPECT_THROW(simulate_schedule(4, SchedPolicy::kFifo,
                                 {Job{0, 0, 10, 10, 8, 0}}),
               std::invalid_argument);
  EXPECT_THROW(simulate_schedule(0, SchedPolicy::kFifo, {}), std::invalid_argument);
  EXPECT_THROW(simulate_schedule(4, SchedPolicy::kFifo,
                                 {Job{0, 0, 10, 5, 1, 0}}),  // estimate < runtime
               std::invalid_argument);
}

TEST(BatchSched, EmptyTrace) {
  auto res = simulate_schedule(4, SchedPolicy::kFifo, {});
  EXPECT_TRUE(res.jobs.empty());
  EXPECT_EQ(res.makespan, 0.0);
}

// ---- fair-share ledger + aging (shared with the serve layer) -------------------

TEST(FairShare, RefundNeverMintsPriority) {
  UsageLedger ledger;
  ledger.charge(0, 5.0);
  ledger.refund(0, 10.0);  // double-refund from a task retry
  EXPECT_EQ(ledger.usage(0), 0.0);
  ledger.charge(0, 3.0);
  EXPECT_EQ(ledger.usage(0), 3.0);  // not 3 - 5: the balance was clamped
  EXPECT_THROW(ledger.charge(0, -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.refund(0, -1.0), std::invalid_argument);
}

TEST(FairShare, DrfLedgerClampsReleaseAndValidates) {
  DrfLedger drf({4.0, 100.0});
  drf.acquire(1, {1.0, 20.0});
  EXPECT_DOUBLE_EQ(drf.dominant_share(1), 1.0 / 4.0);
  drf.release(1, {5.0, 500.0});  // retried task releases more than it held
  EXPECT_DOUBLE_EQ(drf.dominant_share(1), 0.0);
  EXPECT_DOUBLE_EQ(drf.total_in_use(0), 0.0);
  EXPECT_THROW(drf.acquire(1, {1.0}), std::invalid_argument);
  EXPECT_THROW(DrfLedger({1.0, 0.0}), std::invalid_argument);
}

TEST(BatchSched, FairShareBurstyArrivalsStarveWithoutAging) {
  // A heavy user (large pre-existing usage) submits one wide job at t=0;
  // bursts of fresh zero-usage jobs keep arriving. Without aging every
  // fresh arrival outranks the heavy user's queued job; with aging the
  // queued job earns credit and overtakes arrivals whose arrival time
  // exceeds usage/aging_rate.
  std::vector<Job> jobs;
  jobs.push_back(Job{0, 0.0, 10, 10, 2, 7});  // the starved heavy user
  // Bursty fresh arrivals from t=0, twice as fast as the service rate, so
  // the 2-node cluster is contended for the whole run.
  for (std::uint64_t i = 1; i <= 30; ++i) {
    jobs.push_back(Job{i, static_cast<double>(i - 1) * 5.0, 10, 10, 2, 0});
  }
  FairShareOptions opts;
  opts.initial_usage.charge(7, 1000.0);

  auto starved = simulate_schedule(2, SchedPolicy::kFairShare, jobs, opts);
  std::map<std::uint64_t, JobOutcome> s;
  for (const auto& o : starved.jobs) s[o.id] = o;
  // aging_rate == 0: the heavy user runs dead last.
  for (std::uint64_t i = 1; i <= 30; ++i) EXPECT_GT(s[0].start, s[i].start);

  opts.aging_rate = 10.0;  // credit outweighs usage 1000 after 100 s waited
  auto aged = simulate_schedule(2, SchedPolicy::kFairShare, jobs, opts);
  std::map<std::uint64_t, JobOutcome> a;
  for (const auto& o : aged.jobs) a[o.id] = o;
  EXPECT_LT(a[0].start, s[0].start);      // aging strictly helped
  EXPECT_LT(a[0].start, a[30].start);     // and it no longer runs last
  // Aging must not delay anyone indefinitely either: run is still complete.
  EXPECT_EQ(aged.jobs.size(), jobs.size());
}

TEST(BatchSched, FairShareZeroAgingMatchesLegacyBehavior) {
  // The FairShareOptions default (no aging, empty ledger) must reproduce
  // the original usage-then-arrival ordering exactly.
  auto legacy = simulate_schedule(4, SchedPolicy::kFairShare, small_trace());
  auto opt = simulate_schedule(4, SchedPolicy::kFairShare, small_trace(),
                               FairShareOptions{});
  ASSERT_EQ(legacy.jobs.size(), opt.jobs.size());
  for (std::size_t i = 0; i < legacy.jobs.size(); ++i) {
    EXPECT_EQ(legacy.jobs[i].id, opt.jobs[i].id);
    EXPECT_DOUBLE_EQ(legacy.jobs[i].start, opt.jobs[i].start);
  }
}

TEST(TraceGen, ProducesValidJobs) {
  Rng rng(1);
  TraceConfig cfg;
  cfg.jobs = 500;
  auto jobs = generate_trace(cfg, rng, 32);
  ASSERT_EQ(jobs.size(), 500u);
  double prev_arrival = 0;
  for (const auto& j : jobs) {
    EXPECT_GE(j.arrival, prev_arrival);
    prev_arrival = j.arrival;
    EXPECT_GE(j.estimate, j.runtime);
    EXPECT_GE(j.nodes, 1u);
    EXPECT_LE(j.nodes, 32u);
    EXPECT_LT(j.user, kTraceUsers);
  }
}

TEST(TraceGen, DeterministicForSeed) {
  Rng a(5), b(5);
  TraceConfig cfg;
  cfg.jobs = 50;
  auto ja = generate_trace(cfg, a, 16);
  auto jb = generate_trace(cfg, b, 16);
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_DOUBLE_EQ(ja[i].arrival, jb[i].arrival);
    EXPECT_DOUBLE_EQ(ja[i].runtime, jb[i].runtime);
  }
}

// ---- IndexedHeap -----------------------------------------------------------------

TEST(IndexedHeap, OrdersByKeyAndPopsInOrder) {
  IndexedHeap<int, double> h;
  h.push(1, 3.0);
  h.push(2, 1.0);
  h.push(3, 2.0);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.top_id(), 2);
  EXPECT_EQ(h.pop(), 2);
  EXPECT_EQ(h.pop(), 3);
  EXPECT_EQ(h.pop(), 1);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, UpdateReordersInPlace) {
  IndexedHeap<int, double> h;
  for (int i = 0; i < 8; ++i) h.push(i, static_cast<double>(i));
  EXPECT_EQ(h.top_id(), 0);
  h.update(7, -1.0);  // decrease-key
  EXPECT_EQ(h.top_id(), 7);
  h.update(7, 100.0);  // increase-key
  EXPECT_EQ(h.top_id(), 0);
  h.upsert(0, 50.0);  // upsert on present id = update
  EXPECT_EQ(h.top_id(), 1);
  h.upsert(99, -5.0);  // upsert on absent id = push
  EXPECT_EQ(h.top_id(), 99);
}

TEST(IndexedHeap, EraseMiddleKeepsInvariant) {
  IndexedHeap<int, double> h;
  for (int i = 0; i < 10; ++i) h.push(i, static_cast<double>((i * 7) % 10));
  EXPECT_TRUE(h.erase(4));
  EXPECT_FALSE(h.erase(4));  // already gone
  EXPECT_FALSE(h.contains(4));
  double prev = -1;
  while (!h.empty()) {
    const double k = h.top_key();
    EXPECT_GE(k, prev);
    prev = k;
    h.pop();
  }
}

TEST(IndexedHeap, RejectsDuplicatePushAndAbsentUpdate) {
  IndexedHeap<int, double> h;
  h.push(1, 1.0);
  EXPECT_THROW(h.push(1, 2.0), std::logic_error);
  EXPECT_THROW(h.update(2, 1.0), std::logic_error);
}

}  // namespace
}  // namespace hpbdc::cluster
