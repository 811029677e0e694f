// Tests for the multi-tenant job service (src/serve): the LRU result cache,
// the JobSlotPool concurrency backend, admission control (token buckets,
// bounded queues, backpressure, deadline sheds), DRF fair sharing across
// tenants, result-cache hits bypassing the executors, metrics plumbing, and
// the 50-seed service-level chaos campaign (executor kills under
// multi-tenant load must preserve per-job exactly-once results).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/plan_gen.hpp"
#include "dataflow/context.hpp"
#include "dstream/runtime.hpp"
#include "dstream/streaming.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "plan/lower.hpp"
#include "plan/optimizer.hpp"
#include "serve/cache.hpp"
#include "serve/campaign.hpp"
#include "serve/service.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace hpbdc::serve {
namespace {

Executor& ref_pool() {
  static ThreadPool p(4);
  return p;
}

sim::NetworkConfig star(std::size_t nodes) {
  sim::NetworkConfig nc;
  nc.nodes = nodes;
  nc.topology = sim::Topology::kStar;
  return nc;
}

dist::DistConfig dist_cfg(std::uint64_t seed = 7) {
  dist::DistConfig dc;
  dc.driver = 0;
  dc.heartbeat_interval = 0.1;
  dc.heartbeat_timeout = 0.5;
  dc.heartbeat_jitter = 0.01;
  dc.attempt_timeout = 10.0;
  dc.max_task_attempts = 8;
  dc.seed = seed;
  return dc;
}

/// Simulated cluster + slot pool, fresh per test.
struct ServeCluster {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  dist::JobSlotPool pool;

  explicit ServeCluster(std::size_t nodes, std::size_t slots,
                        dist::DistConfig dc = dist_cfg())
      : net(sim, star(nodes)), comm(sim, net), dfs(comm, sim::DfsConfig{}),
        pool(comm, dc, slots, &dfs) {}
};

Bytes reference_bytes(const plan::LogicalPlan& p) {
  dataflow::Context ctx(ref_pool());
  return plan::canonical_bytes(plan::lower_local(p, ctx));
}

// ---- LRU cache -------------------------------------------------------------------

TEST(LruCache, HitPromotesAndFullEvictsLru) {
  LruCache<int, std::string> c(2);
  c.put(1, "one");
  c.put(2, "two");
  ASSERT_NE(c.get(1), nullptr);  // promotes 1; LRU is now 2
  c.put(3, "three");             // evicts 2
  EXPECT_EQ(c.get(2), nullptr);
  ASSERT_NE(c.get(1), nullptr);
  EXPECT_EQ(*c.get(1), "one");
  ASSERT_NE(c.get(3), nullptr);
  EXPECT_EQ(c.size(), 2u);
}

TEST(LruCache, OverwriteKeepsSizeAndZeroCapacityThrows) {
  LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(1, 11);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(*c.get(1), 11);
  EXPECT_THROW((LruCache<int, int>(0)), std::invalid_argument);
}

// ---- JobSlotPool -----------------------------------------------------------------

TEST(JobSlotPool, RunsConcurrentJobsWithCorrectResults) {
  ServeCluster cl(5, 2);
  const auto p1 = chaos::make_plan(11, 4, 64);
  const auto p2 = chaos::make_plan(12, 4, 64);
  dist::JobResult r1, r2;
  cl.pool.submit(plan::lower_dist(p1, 3),
                 [&r1](const dist::JobResult& r) { r1 = r; });
  cl.pool.submit(plan::lower_dist(p2, 3),
                 [&r2](const dist::JobResult& r) { r2 = r; });
  EXPECT_TRUE(cl.pool.saturated());
  cl.sim.run();
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(plan::canonical_bytes(plan::rows_from_result(r1)),
            reference_bytes(p1));
  EXPECT_EQ(plan::canonical_bytes(plan::rows_from_result(r2)),
            reference_bytes(p2));
  EXPECT_EQ(cl.pool.busy(), 0u);
}

TEST(JobSlotPool, ThrowsWhenSaturatedAndFreesSlotBeforeCallback) {
  ServeCluster cl(5, 1);
  const auto p = chaos::make_plan(13, 3, 32);
  bool resubmitted = false;
  cl.pool.submit(plan::lower_dist(p, 2), [&](const dist::JobResult&) {
    // The slot must already be free here: resubmission from the callback is
    // the serve layer's dispatch path.
    EXPECT_FALSE(cl.pool.saturated());
    if (!resubmitted) {
      resubmitted = true;
      cl.pool.submit(plan::lower_dist(p, 2), [](const dist::JobResult&) {});
    }
  });
  EXPECT_THROW(cl.pool.submit(plan::lower_dist(p, 2),
                              [](const dist::JobResult&) {}),
               std::logic_error);
  cl.sim.run();
  EXPECT_TRUE(resubmitted);
}

// ---- JobService ------------------------------------------------------------------

TEST(JobService, CompletesAJobWithReferenceRows) {
  ServeCluster cl(5, 2);
  JobService svc(cl.pool, ServeConfig{});
  const auto p = chaos::make_plan(21, 4, 64);
  Completion last;
  int fired = 0;
  svc.submit({.tenant = 0, .plan = p}, [&](const Completion& c) {
    last = c;
    fired++;
  });
  cl.sim.run();
  ASSERT_EQ(fired, 1);
  ASSERT_EQ(last.status, Status::kCompleted);
  EXPECT_FALSE(last.cache_hit);
  EXPECT_EQ(last.dist_submits, 1u);
  EXPECT_EQ(plan::canonical_bytes(last.rows), reference_bytes(p));
  EXPECT_EQ(svc.stats().completed, 1u);
}

TEST(JobService, CacheHitSkipsExecutorsAndIsTenfoldFaster) {
  ServeCluster cl(5, 2);
  JobService svc(cl.pool, ServeConfig{});
  const auto p = chaos::make_plan(22, 4, 64);
  Completion first, second;
  svc.submit({.tenant = 0, .plan = p}, [&](const Completion& c) { first = c; });
  cl.sim.run();
  ASSERT_EQ(first.status, Status::kCompleted);
  // Different tenant, same plan: the cache is keyed by plan fingerprint.
  svc.submit({.tenant = 1, .plan = p}, [&](const Completion& c) { second = c; });
  cl.sim.run();
  ASSERT_EQ(second.status, Status::kCompleted);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.dist_submits, 0u);
  EXPECT_EQ(plan::canonical_bytes(second.rows),
            plan::canonical_bytes(first.rows));
  EXPECT_GE(first.latency(), 10.0 * second.latency());
  EXPECT_EQ(svc.stats().cache_hits, 1u);
}

TEST(JobService, CostBasedAndRuleOnlySubmissionsNeverAliasInTheCache) {
  // One plan, two optimization modes: the cost-based run folds its
  // stats_salt into the fingerprint, so the second submission must MISS the
  // cache (a hit would silently serve rows from a differently-optimized
  // plan), while the row multisets still agree.
  ServeCluster cl(5, 2);
  JobService svc(cl.pool, ServeConfig{});
  const auto p = chaos::make_plan(23, 5, 64);
  Completion rule_only, cost_based;
  svc.submit({.tenant = 0, .plan = p}, [&](const Completion& c) { rule_only = c; });
  cl.sim.run();
  ASSERT_EQ(rule_only.status, Status::kCompleted);
  SubmitRequest req;
  req.tenant = 0;
  req.plan = p;
  req.cost_based = true;
  svc.submit(std::move(req), [&](const Completion& c) { cost_based = c; });
  cl.sim.run();
  ASSERT_EQ(cost_based.status, Status::kCompleted);
  EXPECT_FALSE(cost_based.cache_hit);
  EXPECT_EQ(cost_based.dist_submits, 1u);
  EXPECT_NE(cost_based.fingerprint, rule_only.fingerprint);
  EXPECT_EQ(plan::canonical_bytes(cost_based.rows),
            plan::canonical_bytes(rule_only.rows));
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  EXPECT_EQ(svc.stats().cache_misses, 2u);
}

TEST(JobService, TokenBucketShedsBurstsSynchronously) {
  ServeCluster cl(5, 2);
  ServeConfig cfg;
  cfg.bucket_rate = 0.1;
  cfg.bucket_burst = 2.0;
  JobService svc(cl.pool, cfg);
  const auto p = chaos::make_plan(23, 3, 32);
  std::vector<Completion> rejected;
  for (int i = 0; i < 4; ++i) {
    svc.submit({.tenant = 0, .plan = p}, [&](const Completion& c) {
      if (c.status == Status::kRejected) rejected.push_back(c);
    });
  }
  // Two tokens -> two admissions; the rest shed before sim.run() even starts.
  ASSERT_EQ(rejected.size(), 2u);
  for (const auto& c : rejected) EXPECT_EQ(c.reject, Reject::kRateLimited);
  EXPECT_EQ(svc.stats().shed_by[static_cast<std::size_t>(Reject::kRateLimited)],
            2u);
  cl.sim.run();
  EXPECT_EQ(svc.stats().completed, 2u);
}

TEST(JobService, BoundedQueuesShedWithTypedReasons) {
  ServeCluster cl(5, 1);
  ServeConfig cfg;
  cfg.bucket_rate = 1000;
  cfg.bucket_burst = 1000;
  cfg.tenant_queue_cap = 2;
  cfg.global_queue_cap = 3;
  cfg.backpressure_watermark = 1000;  // keep backpressure out of this test
  cfg.cache_capacity = 0;             // force every job onto an executor
  JobService svc(cl.pool, cfg);
  std::vector<Reject> rejects;
  auto done = [&](const Completion& c) {
    if (c.status == Status::kRejected) rejects.push_back(c.reject);
  };
  // Distinct plans, one tenant: 1 runs, 2 queue, the 4th trips the tenant cap.
  for (std::uint64_t i = 0; i < 4; ++i) {
    svc.submit({.tenant = 0, .plan = chaos::make_plan(30 + i, 3, 32)}, done);
  }
  // Another tenant can still queue one (global cap 3), then trips the global.
  svc.submit({.tenant = 1, .plan = chaos::make_plan(40, 3, 32)}, done);
  svc.submit({.tenant = 1, .plan = chaos::make_plan(41, 3, 32)}, done);
  ASSERT_EQ(rejects.size(), 2u);
  EXPECT_EQ(rejects[0], Reject::kTenantQueueFull);
  EXPECT_EQ(rejects[1], Reject::kGlobalQueueFull);
  cl.sim.run();
  EXPECT_EQ(svc.stats().completed, 4u);
}

TEST(JobService, BackpressureShedsAndSignalsUpstream) {
  ServeCluster cl(5, 1);
  ServeConfig cfg;
  cfg.bucket_rate = 1000;
  cfg.bucket_burst = 1000;
  cfg.tenant_queue_cap = 100;
  cfg.global_queue_cap = 100;
  cfg.backpressure_watermark = 2;
  cfg.cache_capacity = 0;
  JobService svc(cl.pool, cfg);
  std::size_t backpressure_sheds = 0;
  auto done = [&](const Completion& c) {
    if (c.status == Status::kRejected && c.reject == Reject::kBackpressure) {
      backpressure_sheds++;
    }
  };
  EXPECT_FALSE(svc.backpressured());
  for (std::uint64_t i = 0; i < 5; ++i) {
    svc.submit({.tenant = 0, .plan = chaos::make_plan(50 + i, 3, 32)}, done);
  }
  // 1 running + 2 queued = watermark: the service is now backpressured and
  // submissions 4 and 5 were shed immediately.
  EXPECT_TRUE(svc.backpressured());
  EXPECT_EQ(backpressure_sheds, 2u);
  cl.sim.run();
  EXPECT_FALSE(svc.backpressured());
  EXPECT_EQ(svc.stats().completed, 3u);
}

TEST(JobService, SloClassesShedInOrderUnderOverload) {
  ServeCluster cl(5, 1);
  ServeConfig cfg;
  cfg.bucket_rate = 1000;
  cfg.bucket_burst = 1000;
  cfg.tenant_queue_cap = 100;
  cfg.global_queue_cap = 100;
  cfg.backpressure_watermark = 4;  // batch sheds at 2, standard 4, latency 6
  cfg.cache_capacity = 0;
  JobService svc(cl.pool, cfg);
  std::uint64_t sheds[kSloClassCount] = {};
  auto submit = [&](SloClass c, std::uint64_t s) {
    SubmitRequest req;
    req.tenant = 0;
    req.plan = chaos::make_plan(700 + s, 3, 32);
    req.slo = c;
    return svc.submit(std::move(req), [&sheds](const Completion& done) {
      if (done.status == Status::kRejected &&
          done.reject == Reject::kBackpressure) {
        sheds[static_cast<std::size_t>(done.slo)]++;
      }
    });
  };
  // One running + two queued: the pool is saturated and the queue sits at
  // the BATCH watermark (0.5 x 4) but below the standard one.
  for (std::uint64_t i = 0; i < 3; ++i) submit(SloClass::kStandard, i);
  EXPECT_FALSE(svc.backpressured());
  submit(SloClass::kBatch, 10);
  EXPECT_EQ(sheds[static_cast<std::size_t>(SloClass::kBatch)], 1u);
  // Standard still admits until the queue reaches 4...
  submit(SloClass::kStandard, 11);
  submit(SloClass::kStandard, 12);
  EXPECT_EQ(svc.queue_depth(), 4u);
  EXPECT_TRUE(svc.backpressured());
  submit(SloClass::kStandard, 13);
  EXPECT_EQ(sheds[static_cast<std::size_t>(SloClass::kStandard)], 1u);
  // ...while latency work rides through to 1.5 x the watermark.
  submit(SloClass::kLatency, 20);
  submit(SloClass::kLatency, 21);
  EXPECT_EQ(sheds[static_cast<std::size_t>(SloClass::kLatency)], 0u);
  EXPECT_EQ(svc.queue_depth(), 6u);
  submit(SloClass::kLatency, 22);
  EXPECT_EQ(sheds[static_cast<std::size_t>(SloClass::kLatency)], 1u);
  const auto& st = svc.stats();
  EXPECT_EQ(st.shed_by_slo[static_cast<std::size_t>(SloClass::kBatch)], 1u);
  EXPECT_EQ(st.shed_by_slo[static_cast<std::size_t>(SloClass::kStandard)], 1u);
  EXPECT_EQ(st.shed_by_slo[static_cast<std::size_t>(SloClass::kLatency)], 1u);
  cl.sim.run();
  EXPECT_EQ(st.completed + st.failed + st.shed, st.submitted);
}

TEST(JobService, BackpressureWatermarkTracksShrinkingPool) {
  ServeCluster cl(5, 2);
  ServeConfig cfg;
  cfg.bucket_rate = 1000;
  cfg.bucket_burst = 1000;
  cfg.tenant_queue_cap = 100;
  cfg.global_queue_cap = 100;
  cfg.backpressure_watermark = 1;
  cfg.cache_capacity = 0;
  JobService svc(cl.pool, cfg);
  std::size_t bp_sheds = 0, completed = 0;
  auto done = [&](const Completion& c) {
    if (c.status == Status::kCompleted) completed++;
    if (c.status == Status::kRejected && c.reject == Reject::kBackpressure) {
      bp_sheds++;
    }
  };
  svc.submit({.tenant = 0, .plan = chaos::make_plan(800, 3, 32)}, done);
  // One of two slots busy: no saturation, no backpressure.
  EXPECT_FALSE(svc.backpressured());
  // The fleet shrinks the pool underneath the service mid-run: the idle
  // slot retires and saturation/backpressure must track the LIVE size.
  ASSERT_TRUE(cl.pool.retire_idle_slot());
  ASSERT_TRUE(cl.pool.saturated());
  svc.submit({.tenant = 0, .plan = chaos::make_plan(801, 3, 32)}, done);  // queues
  EXPECT_TRUE(svc.backpressured());
  svc.submit({.tenant = 0, .plan = chaos::make_plan(802, 3, 32)}, done);  // shed
  EXPECT_EQ(bp_sheds, 1u);
  // Growth lifts the pressure: a new slot plus the capacity poke dispatches
  // the queued job immediately.
  cl.pool.add_slot();
  svc.notify_capacity_changed();
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_FALSE(svc.backpressured());
  cl.sim.run();
  EXPECT_EQ(completed, 2u);
}

TEST(JobService, ExpiredDeadlineIsShedAtDispatch) {
  ServeCluster cl(5, 1);
  ServeConfig cfg;
  cfg.cache_capacity = 0;
  JobService svc(cl.pool, cfg);
  Completion doomed;
  svc.submit({.tenant = 0, .plan = chaos::make_plan(60, 4, 128)},
             [](const Completion&) {});
  // Queued behind the running job with a deadline it cannot make.
  svc.submit({.tenant = 0, .plan = chaos::make_plan(61, 3, 32), .deadline = 1e-6},
             [&](const Completion& c) { doomed = c; });
  cl.sim.run();
  ASSERT_EQ(doomed.status, Status::kRejected);
  EXPECT_EQ(doomed.reject, Reject::kDeadlineExpired);
  EXPECT_EQ(
      svc.stats().shed_by[static_cast<std::size_t>(Reject::kDeadlineExpired)],
      1u);
}

TEST(JobService, DrfFavorsTheIdleTenantOverTheFlooder) {
  ServeCluster cl(5, 1);
  ServeConfig cfg;
  cfg.bucket_rate = 1000;
  cfg.bucket_burst = 1000;
  cfg.tenant_queue_cap = 100;
  cfg.global_queue_cap = 100;
  cfg.backpressure_watermark = 1000;
  cfg.cache_capacity = 0;
  JobService svc(cl.pool, cfg);
  std::vector<TenantId> completion_order;
  auto done = [&](const Completion& c) {
    if (c.status == Status::kCompleted) completion_order.push_back(c.tenant);
  };
  // Tenant 0 floods; tenant 1 submits one job last. While tenant 0's first
  // job runs its DRF dominant share is positive, so tenant 1's queued job
  // wins the next free slot ahead of tenant 0's backlog.
  for (std::uint64_t i = 0; i < 3; ++i) {
    svc.submit({.tenant = 0, .plan = chaos::make_plan(70 + i, 3, 32)}, done);
  }
  svc.submit({.tenant = 1, .plan = chaos::make_plan(80, 3, 32)}, done);
  cl.sim.run();
  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_EQ(completion_order[0], 0u);  // tenant 0's head started first
  EXPECT_EQ(completion_order[1], 1u);  // then the idle tenant jumps the line
}

TEST(JobService, RecordsLatencyHistograms) {
  ServeCluster cl(5, 2);
  JobService svc(cl.pool, ServeConfig{});
  obs::MetricsRegistry reg;
  svc.bind_metrics(reg);
  const auto p = chaos::make_plan(90, 4, 64);
  svc.submit({.tenant = 3, .plan = p}, [](const Completion&) {});
  svc.submit({.tenant = 3, .plan = p}, [](const Completion&) {});
  cl.sim.run();
  const ServeStats& st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.cache_hits + st.cache_misses, 2u);
  EXPECT_EQ(reg.histogram("serve.latency").snapshot().count(), 2u);
  EXPECT_EQ(reg.histogram("serve.latency.tenant3").snapshot().count(), 2u);
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_EQ(svc.running(), 0u);
  // bind_metrics registers histograms only; counts arrive by export.
  EXPECT_TRUE(reg.snapshot().counters.empty());
  EXPECT_TRUE(reg.snapshot().gauges.empty());
}

// ---- streaming admission ---------------------------------------------------------

TEST(JobService, StreamingJobHoldsASlotChargesEpochsAndSkipsTheCache) {
  ServeCluster cl(6, 2);
  dstream::StreamRuntime streams(cl.comm, dstream::StreamConfig{}, &cl.dfs);
  JobService svc(cl.pool, ServeConfig{}, &streams);
  const auto p = chaos::make_plan(95, 4, 96);
  SubmitRequest req;
  req.tenant = 0;
  req.plan = p;
  req.runtime.transport = dist::TransportKind::kPush;
  req.streaming = dstream::StreamingOptions{};
  Completion c1, c2;
  svc.submit(req, [&](const Completion& c) { c1 = c; });
  // Mid-stream the pool must show the held slot (admission control sees the
  // stream as a running job for its whole lifetime, not per epoch).
  cl.sim.schedule_at(0.25, [&] {
    EXPECT_EQ(cl.pool.busy(), 1u);
    EXPECT_TRUE(streams.busy());
  });
  cl.sim.run();
  ASSERT_EQ(c1.status, Status::kCompleted);
  EXPECT_GT(c1.epochs, 0u);
  EXPECT_EQ(c1.dist_submits, 1u);
  EXPECT_EQ(cl.pool.busy(), 0u);
  // The service optimizes before lowering, so the trusted reference must
  // start from the same optimized plan.
  const auto spec = dstream::lower_streaming(plan::optimize(p), *req.streaming);
  std::vector<plan::Row> want;
  for (const auto& tr : dstream::reference_streaming(spec)) {
    want.push_back(tr.row);
  }
  EXPECT_EQ(plan::canonical_bytes(c1.rows), plan::canonical_bytes(want));
  // Same plan again: streaming neither answers from nor fills the cache.
  svc.submit(req, [&](const Completion& c) { c2 = c; });
  cl.sim.run();
  ASSERT_EQ(c2.status, Status::kCompleted);
  EXPECT_FALSE(c2.cache_hit);
  EXPECT_EQ(c2.dist_submits, 1u);
  // The reused stream runtime runs the second job like the first.
  EXPECT_EQ(c2.epochs, c1.epochs);
  EXPECT_NEAR(c2.latency(), c1.latency(), 1e-9);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  EXPECT_EQ(svc.stats().cache_misses, 0u);
  EXPECT_EQ(svc.stats().streaming_launched, 2u);
  EXPECT_GE(svc.stats().streaming_epochs, c1.epochs + c2.epochs);
}

TEST(JobService, SecondStreamWaitsForTheBackendWhileBatchProceeds) {
  ServeCluster cl(6, 2);
  dstream::StreamRuntime streams(cl.comm, dstream::StreamConfig{}, &cl.dfs);
  ServeConfig cfg;
  cfg.cache_capacity = 0;
  JobService svc(cl.pool, cfg, &streams);
  SubmitRequest s1;
  s1.tenant = 0;
  s1.plan = chaos::make_plan(96, 3, 64);
  s1.runtime.transport = dist::TransportKind::kPush;
  s1.streaming = dstream::StreamingOptions{};
  SubmitRequest s2 = s1;
  s2.tenant = 1;
  s2.plan = chaos::make_plan(97, 3, 64);
  Completion c1, c2, cb;
  svc.submit(s1, [&](const Completion& c) { c1 = c; });
  svc.submit(s2, [&](const Completion& c) { c2 = c; });
  // A batch tenant takes the second slot right away: the queued stream waits
  // on the single-job backend without starving anyone else.
  svc.submit({.tenant = 2, .plan = chaos::make_plan(98, 3, 32)},
             [&](const Completion& c) { cb = c; });
  cl.sim.run();
  ASSERT_EQ(c1.status, Status::kCompleted);
  ASSERT_EQ(c2.status, Status::kCompleted);
  ASSERT_EQ(cb.status, Status::kCompleted);
  EXPECT_LT(cb.finish_time, c2.finish_time);
  EXPECT_GE(c2.finish_time, c1.finish_time);  // streams serialized on the backend
  EXPECT_EQ(svc.stats().streaming_launched, 2u);
}

TEST(JobService, StreamingSubmissionWithoutBackendThrows) {
  ServeCluster cl(5, 1);
  JobService svc(cl.pool, ServeConfig{});
  SubmitRequest req;
  req.plan = chaos::make_plan(99, 3, 32);
  req.streaming = dstream::StreamingOptions{};
  EXPECT_THROW(svc.submit(req, [](const Completion&) {}),
               std::invalid_argument);
}

// ---- service-level chaos campaign ------------------------------------------------

TEST(ServeCampaign, FiftySeedsPreserveExactlyOnceUnderKills) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    CampaignConfig cfg;
    cfg.seed = seed;
    cfg.tenants = 3 + static_cast<std::size_t>(seed % 3);
    cfg.jobs_per_tenant = 4 + static_cast<std::size_t>(seed % 3);
    cfg.kills = 1 + static_cast<std::size_t>(seed % 2);
    const auto out = run_serve_campaign_once(cfg, ref_pool());
    EXPECT_TRUE(out.passed) << campaign_kit().format(cfg) << ": " << out.violation;
    EXPECT_EQ(out.duplicates, 0u) << "seed=" << seed;
    EXPECT_EQ(out.lost, 0u) << "seed=" << seed;
  }
}

TEST(ServeCampaign, OneSeedReproducesBitForBit) {
  CampaignConfig cfg;
  cfg.seed = 7;
  const auto a = run_serve_campaign_once(cfg, ref_pool());
  const auto b = run_serve_campaign_once(cfg, ref_pool());
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.shed, b.stats.shed);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.dist_retries, b.stats.dist_retries);
  EXPECT_EQ(a.dist_stats.tasks_launched, b.dist_stats.tasks_launched);
  EXPECT_EQ(a.dist_stats.task_retries, b.dist_stats.task_retries);
}

}  // namespace
}  // namespace hpbdc::serve
