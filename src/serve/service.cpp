#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "dstream/runtime.hpp"
#include "plan/lower.hpp"
#include "plan/cost.hpp"
#include "plan/optimizer.hpp"

namespace hpbdc::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr double kPriorityWeight = 0.02;  // dominant-share credit per priority unit
constexpr std::size_t kMaxDistSubmits = 3;  // executor runs per job before kFailed
// DRF capacity normalization for the non-slot resources; shares only
// compare across tenants, so scale need not match the cluster exactly.
constexpr double kDrfWorkCapacity = 256;     // task launches in flight
constexpr double kDrfMemCapacity = 1 << 20;  // source rows in flight
constexpr double kCacheHitLatency = 1e-3;    // simulated service time of a hit

/// Source rows the job will materialize (the DRF memory-resource estimate).
std::uint64_t source_rows_of(const plan::LogicalPlan& p) {
  std::uint64_t rows = 0;
  for (const plan::PlanNode& nd : p.nodes) {
    if (nd.op == plan::OpKind::kSource) rows += nd.rows;
    if (nd.op == plan::OpKind::kFused && !nd.steps.empty() &&
        nd.steps.front().op == plan::OpKind::kSource) {
      rows += nd.steps.front().rows;
    }
  }
  return rows;
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* reject_name(Reject r) {
  switch (r) {
    case Reject::kRateLimited: return "rate_limited";
    case Reject::kTenantQueueFull: return "tenant_queue_full";
    case Reject::kGlobalQueueFull: return "global_queue_full";
    case Reject::kBackpressure: return "backpressure";
    case Reject::kDeadlineExpired: return "deadline_expired";
  }
  return "invalid";
}

const char* slo_name(SloClass c) {
  switch (c) {
    case SloClass::kLatency: return "latency";
    case SloClass::kStandard: return "standard";
    case SloClass::kBatch: return "batch";
  }
  return "invalid";
}

JobService::JobService(dist::JobSlotPool& pool, ServeConfig cfg,
                       dstream::StreamRuntime* streams)
    : pool_(pool),
      cfg_(cfg),
      streams_(streams),
      drf_({static_cast<double>(pool.slots()), kDrfWorkCapacity, kDrfMemCapacity}),
      cache_(std::max<std::size_t>(1, cfg.cache_capacity)) {
  if (cfg_.bucket_rate <= 0 || cfg_.bucket_burst < 1) {
    throw std::invalid_argument("JobService: bucket must admit >= 1 request");
  }
  if (cfg_.ntasks == 0) throw std::invalid_argument("JobService: zero ntasks");
  for (std::size_t c = 0; c < kSloClassCount; ++c) {
    const SloClassConfig& sc = cfg_.slo[c];
    if (sc.rate_mult <= 0 || sc.burst_mult <= 0 || sc.drf_weight <= 0 ||
        sc.shed_watermark_mult <= 0) {
      throw std::invalid_argument("JobService: SLO class multipliers must be > 0");
    }
  }
}

void JobService::bind_metrics(obs::MetricsRegistry& reg) {
  metrics_ = &reg;
  h_latency_ = &reg.histogram("serve.latency");
  for (auto& [tid, ts] : tenants_) {
    ts.latency = &reg.histogram("serve.latency.tenant" + std::to_string(tid));
  }
}

void JobService::export_metrics(obs::MetricsRegistry& reg) const {
  const auto set = [&reg](const std::string& name, std::uint64_t v) {
    reg.gauge("serve." + name).set(static_cast<std::int64_t>(v));
  };
  set("submitted", stats_.submitted);
  set("admitted", stats_.admitted);
  set("shed", stats_.shed);
  for (std::size_t r = 0; r < kRejectKindCount; ++r) {
    set(std::string("shed.") + reject_name(static_cast<Reject>(r)), stats_.shed_by[r]);
  }
  set("completed", stats_.completed);
  set("failed", stats_.failed);
  set("cache_hit", stats_.cache_hits);
  set("cache_miss", stats_.cache_misses);
  set("dist_retries", stats_.dist_retries);
  set("queue_depth", queued_);
  set("running", running_);
  set("backpressure", backpressured() ? 1 : 0);
}

bool JobService::backpressured() const noexcept {
  return pool_.saturated() &&
         static_cast<double>(queued_) >=
             static_cast<double>(cfg_.backpressure_watermark);
}

void JobService::notify_capacity_changed() {
  dispatch();
}

JobService::TenantState& JobService::tenant_state(TenantId t) {
  TenantState& ts = tenants_[t];
  if (!ts.seen) {
    ts.seen = true;
    for (std::size_t c = 0; c < kSloClassCount; ++c) {
      ts.tokens[c] = cfg_.bucket_burst * cfg_.slo[c].burst_mult;
      ts.last_refill[c] = sim().now();
    }
    if (metrics_ != nullptr) {
      ts.latency = &metrics_->histogram("serve.latency.tenant" + std::to_string(t));
    }
  }
  return ts;
}

void JobService::refill_bucket(TenantState& ts, SloClass c, double now) {
  const std::size_t ci = static_cast<std::size_t>(c);
  const double rate = cfg_.bucket_rate * cfg_.slo[ci].rate_mult;
  const double burst = cfg_.bucket_burst * cfg_.slo[ci].burst_mult;
  ts.tokens[ci] =
      std::min(burst, ts.tokens[ci] + (now - ts.last_refill[ci]) * rate);
  ts.last_refill[ci] = now;
}

JobService::HeapKey JobService::head_key(TenantId t,
                                         const PendingJob& head) const {
  const std::size_t ci = static_cast<std::size_t>(head.slo);
  HeapKey k;
  // Time-invariant within the class: the dispatch-time score is
  //   key - aging_eff(class) * now
  // and `now` is common to every entry of one class heap.
  k.key = burden(t) / cfg_.slo[ci].drf_weight +
          aging_eff(head.slo) * head.enqueue_time -
          kPriorityWeight * cfg_.slo[ci].priority_mult *
              static_cast<double>(head.priority);
  k.deadline = head.deadline > 0 ? head.deadline : kInf;
  k.id = head.id;
  return k;
}

void JobService::reindex(TenantId t, SloClass c) {
  const std::size_t ci = static_cast<std::size_t>(c);
  auto it = tenants_.find(t);
  if (it == tenants_.end() || it->second.queue[ci].empty()) {
    heap_[ci].erase(t);
    return;
  }
  heap_[ci].upsert(t, head_key(t, it->second.queue[ci].front()));
}

void JobService::reindex_all_classes(TenantId t) {
  for (std::size_t c = 0; c < kSloClassCount; ++c) {
    reindex(t, static_cast<SloClass>(c));
  }
}

void JobService::shed(std::uint64_t id, TenantId tenant, SloClass slo,
                      double submit_time, std::uint64_t fp, Reject why,
                      DoneFn& done) {
  stats_.shed++;
  stats_.shed_by[static_cast<std::size_t>(why)]++;
  stats_.shed_by_slo[static_cast<std::size_t>(slo)]++;
  Completion c;
  c.job_id = id;
  c.tenant = tenant;
  c.status = Status::kRejected;
  c.reject = why;
  c.slo = slo;
  c.submit_time = submit_time;
  c.finish_time = sim().now();
  c.fingerprint = fp;
  if (done) done(c);
}

void JobService::finish(PendingJob& job, Status status, bool cache_hit,
                        std::vector<plan::Row> rows) {
  Completion c;
  c.job_id = job.id;
  c.tenant = job.tenant;
  c.status = status;
  c.cache_hit = cache_hit;
  c.slo = job.slo;
  c.submit_time = job.submit_time;
  c.finish_time = sim().now();
  c.fingerprint = job.fp;
  c.dist_submits = job.dist_submits;
  c.epochs = job.epochs;
  c.rows = std::move(rows);
  if (status == Status::kCompleted) {
    stats_.completed++;
    stats_.completed_by_slo[static_cast<std::size_t>(job.slo)]++;
    if (h_latency_ != nullptr) h_latency_->record(c.latency());
    TenantState& ts = tenant_state(job.tenant);
    if (ts.latency != nullptr) ts.latency->record(c.latency());
  } else {
    stats_.failed++;
  }
  if (job.done) job.done(c);
}

std::uint64_t JobService::submit(SubmitRequest req, DoneFn done) {
  if (req.streaming.has_value() && streams_ == nullptr) {
    throw std::invalid_argument(
        "JobService: streaming submission without a StreamRuntime backend");
  }
  const double now = sim().now();
  const std::uint64_t id = next_id_++;
  const std::size_t ci = static_cast<std::size_t>(req.slo);
  stats_.submitted++;

  // 1. Per-(tenant, class) token bucket.
  TenantState& ts = tenant_state(req.tenant);
  refill_bucket(ts, req.slo, now);
  if (ts.tokens[ci] < 1.0) {
    shed(id, req.tenant, req.slo, now, 0, Reject::kRateLimited, done);
    return id;
  }
  ts.tokens[ci] -= 1.0;

  // Class-scaled backpressure: the pool is saturated and the queue crossed
  // this class's watermark. Batch crosses first (0.5x), latency last (1.5x)
  // — the shed order of an overloaded multi-tier front door.
  const auto class_backpressured = [&] {
    return pool_.saturated() &&
           static_cast<double>(queued_) >=
               static_cast<double>(cfg_.backpressure_watermark) *
                   cfg_.slo[ci].shed_watermark_mult;
  };

  // With the result cache disabled there is nothing to gain from optimizing
  // a request that is about to be shed — and at bench scale (a million
  // submissions against an overloaded service) the optimizer would dominate
  // the run. Sheds taken here report fingerprint 0, exactly like the
  // rate-limit shed above. With the cache ON the optimizer must run first
  // (the cache can absorb a submission that queue bounds would shed), so
  // the classless ordering is preserved.
  if (cfg_.cache_capacity == 0) {
    if (class_backpressured()) {
      shed(id, req.tenant, req.slo, now, 0, Reject::kBackpressure, done);
      return id;
    }
    if (ts.queue[ci].size() >= cfg_.tenant_queue_cap) {
      shed(id, req.tenant, req.slo, now, 0, Reject::kTenantQueueFull, done);
      return id;
    }
    if (queued_ >= cfg_.global_queue_cap) {
      shed(id, req.tenant, req.slo, now, 0, Reject::kGlobalQueueFull, done);
      return id;
    }
  }

  // 2. Optimize once; everything downstream (cache key, scheduling demand,
  // execution) works on the optimized plan.
  PendingJob job;
  job.id = id;
  job.tenant = req.tenant;
  job.deadline = req.deadline;
  job.priority = req.priority;
  job.slo = req.slo;
  job.submit_time = now;
  job.enqueue_time = now;
  job.optimized =
      req.cost_based ? plan::cost_optimize(req.plan) : plan::optimize(req.plan);
  job.runtime = req.runtime;
  job.streaming = req.streaming;
  job.fp = plan::fingerprint(job.optimized);
  const std::size_t job_ntasks =
      job.streaming.has_value() ? job.streaming->ntasks : cfg_.ntasks;
  job.demand = {1.0,
                static_cast<double>((job.optimized.nodes.size() + 1) * job_ntasks),
                static_cast<double>(source_rows_of(job.optimized))};
  for (std::size_t r = 0; r < job.demand.size(); ++r) {
    job.demand_share =
        std::max(job.demand_share, job.demand[r] / drf_.capacities()[r]);
  }
  job.done = std::move(done);

  // 3. Result cache: a hit consumes no queue entry and no executor.
  // Streaming jobs bypass it entirely — lookup AND insert — since a
  // continuous job's output depends on source timing and epoch cadence, not
  // just the plan fingerprint, and must never answer (or poison) a batch
  // submission of the same plan.
  if (cfg_.cache_capacity > 0 && !job.streaming.has_value()) {
    if (const auto* rows = cache_.get(job.fp)) {
      stats_.admitted++;
      stats_.cache_hits++;
      auto sp = std::make_shared<PendingJob>(std::move(job));
      sp->dist_submits = 0;
      std::vector<plan::Row> copy = *rows;
      sim().schedule_after(kCacheHitLatency,
                           [this, sp, copy = std::move(copy)]() mutable {
                             finish(*sp, Status::kCompleted, true, std::move(copy));
                           });
      return id;
    }
    stats_.cache_misses++;
  }

  // 4. Load shedding: backpressure first (overload), then queue bounds.
  if (cfg_.cache_capacity > 0) {
    if (class_backpressured()) {
      shed(id, req.tenant, req.slo, now, job.fp, Reject::kBackpressure, job.done);
      return id;
    }
    if (ts.queue[ci].size() >= cfg_.tenant_queue_cap) {
      shed(id, req.tenant, req.slo, now, job.fp, Reject::kTenantQueueFull,
           job.done);
      return id;
    }
    if (queued_ >= cfg_.global_queue_cap) {
      shed(id, req.tenant, req.slo, now, job.fp, Reject::kGlobalQueueFull,
           job.done);
      return id;
    }
  }

  // 5. Admit and try to dispatch immediately.
  stats_.admitted++;
  ts.queue[ci].push_back(std::move(job));
  queued_++;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queued_);
  if (ts.queue[ci].size() == 1) reindex(req.tenant, req.slo);  // new head
  dispatch();
  return id;
}

void JobService::dispatch() {
  // (tenant, class) entries whose head is a streaming job while the stream
  // backend is busy: popped for the duration of this sweep so batch work
  // behind OTHER tenants still dispatches, then re-derived at the end.
  std::vector<std::pair<TenantId, SloClass>> parked;
  while (!pool_.saturated()) {
    const double now = sim().now();
    const std::uint64_t t0 = wall_ns();
    // Compare only the per-class heap tops: within a class the heap order
    // IS the score order (the aging term is a class-wide constant shift).
    std::size_t best_class = kSloClassCount;
    double best_score = kInf, best_deadline = kInf;
    std::uint64_t best_id = 0;
    for (std::size_t c = 0; c < kSloClassCount; ++c) {
      if (heap_[c].empty()) continue;
      const HeapKey& k = heap_[c].top_key();
      const double score = k.key - aging_eff(static_cast<SloClass>(c)) * now;
      if (best_class == kSloClassCount || score < best_score ||
          (score == best_score &&
           (k.deadline < best_deadline ||
            (k.deadline == best_deadline && k.id < best_id)))) {
        best_class = c;
        best_score = score;
        best_deadline = k.deadline;
        best_id = k.id;
      }
    }
    stats_.decisions++;
    stats_.decision_ns += wall_ns() - t0;
    if (best_class == kSloClassCount) break;
    const TenantId tid = heap_[best_class].top_id();
    TenantState& ts = tenants_.at(tid);
    auto& queue = ts.queue[best_class];
    // The streaming backend runs one job at a time; a streaming head waits
    // (without blocking other tenants' batch competitors) until the previous
    // stream finishes and frees both the backend and its slot.
    if (queue.front().streaming.has_value() && streams_->busy()) {
      heap_[best_class].pop();
      parked.emplace_back(tid, static_cast<SloClass>(best_class));
      continue;
    }
    PendingJob job = std::move(queue.front());
    queue.pop_front();
    queued_--;
    reindex(tid, static_cast<SloClass>(best_class));
    if (job.deadline > 0 && now > job.deadline) {
      // Too late to be useful: shed instead of burning an executor on it.
      shed(job.id, job.tenant, job.slo, job.submit_time, job.fp,
           Reject::kDeadlineExpired, job.done);
      continue;
    }
    launch(std::move(job));
  }
  for (const auto& [tid, c] : parked) reindex(tid, c);
}

void JobService::launch(PendingJob job) {
  if (job.streaming.has_value()) {
    launch_streaming(std::move(job));
    return;
  }
  drf_.acquire(job.tenant, job.demand);
  reindex_all_classes(job.tenant);  // burden went up
  running_++;
  stats_.max_running = std::max(stats_.max_running, running_);
  job.launch_time = sim().now();
  job.dist_submits++;
  auto sp = std::make_shared<PendingJob>(std::move(job));
  pool_.submit(plan::lower_dist(sp->optimized, cfg_.ntasks), sp->runtime,
               [this, sp](const dist::JobResult& r) { on_job_done(sp, r); });
}

void JobService::launch_streaming(PendingJob job) {
  // The job holds resources for its WHOLE lifetime: one pool slot (so batch
  // admission, saturation, and backpressure all see the stream as a running
  // tenant) plus its DRF demand vector. Usage, by contrast, accrues per
  // completed epoch — a long-lived stream steadily loses scheduling priority
  // to its tenant's batch jobs instead of looking free until it ends.
  drf_.acquire(job.tenant, job.demand);
  reindex_all_classes(job.tenant);
  running_++;
  stats_.max_running = std::max(stats_.max_running, running_);
  stats_.streaming_launched++;
  job.launch_time = sim().now();
  job.dist_submits++;
  const std::size_t slot = pool_.reserve_slot();
  auto sp = std::make_shared<PendingJob>(std::move(job));
  dstream::StreamJobSpec spec =
      dstream::lower_streaming(sp->optimized, *sp->streaming);
  streams_->submit(
      std::move(spec), sp->runtime,
      [this, sp, slot](const dstream::StreamResult& r) {
        usage_.charge(sp->tenant,
                      sp->demand_share * (sim().now() - sp->launch_time));
        drf_.release(sp->tenant, sp->demand);
        reindex_all_classes(sp->tenant);
        running_--;
        pool_.release_slot(slot);
        std::vector<plan::Row> rows;
        if (r.ok) {
          rows.reserve(r.committed.size());
          for (const dstream::CommittedRow& c : r.committed) {
            rows.push_back(c.row.row);
          }
        }
        // No service-level retry: the stream runtime already recovers from
        // node deaths internally, so a terminal failure here is structural.
        finish(*sp, r.ok ? Status::kCompleted : Status::kFailed, false,
               std::move(rows));
        dispatch();
      },
      [this, sp](std::uint64_t /*epoch*/, double /*sink_watermark*/) {
        const double now = sim().now();
        usage_.charge(sp->tenant,
                      sp->demand_share * (now - sp->launch_time));
        reindex_all_classes(sp->tenant);
        sp->launch_time = now;
        sp->epochs++;
        stats_.streaming_epochs++;
      });
}

void JobService::on_job_done(const std::shared_ptr<PendingJob>& job,
                             const dist::JobResult& res) {
  drf_.release(job->tenant, job->demand);
  running_--;
  // Executor time was consumed whether or not the run succeeded: charge the
  // tenant its dominant-share-seconds so fairness holds across sequential
  // jobs, not just concurrent ones.
  usage_.charge(job->tenant,
                job->demand_share * (sim().now() - job->launch_time));
  if (res.ok) {
    std::vector<plan::Row> rows = plan::rows_from_result(res);
    if (cfg_.cache_capacity > 0) cache_.put(job->fp, rows);
    reindex_all_classes(job->tenant);
    finish(*job, Status::kCompleted, false, std::move(rows));
  } else if (job->dist_submits < kMaxDistSubmits) {
    // Runtime-level failure (e.g. attempt budget burned by a node death):
    // retry from the front of the tenant's queue, keeping the original
    // enqueue time so the aging credit carries over. The terminal callback
    // fires only once, after the final attempt — exactly-once is on the
    // service, not the caller.
    stats_.dist_retries++;
    const TenantId tid = job->tenant;
    const SloClass slo = job->slo;
    tenant_state(tid).queue[static_cast<std::size_t>(slo)].push_front(
        std::move(*job));
    queued_++;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queued_);
    reindex_all_classes(tid);  // burden dropped AND the head changed
  } else {
    reindex_all_classes(job->tenant);
    finish(*job, Status::kFailed, false, {});
  }
  dispatch();
}

}  // namespace hpbdc::serve
