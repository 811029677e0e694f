#pragma once
// Multi-tenant job service: the cloud front door of the stack. JobService
// accepts Submit{tenant, LogicalPlan, deadline, priority, SLO class}
// requests on the simulated clock and pushes them through a four-step
// pipeline:
//
//   admission — per-(tenant, SLO class) token-bucket rate limiting, then
//               bounded queues (per-tenant-class and global) with load
//               shedding; every shed carries a typed Reject reason. When
//               the executor pool is saturated AND total queue depth
//               crosses a CLASS-scaled watermark the class is in
//               BACKPRESSURE: new work of that class is shed immediately.
//               Batch work sheds first (half the watermark), latency work
//               last (1.5x) — the class-aware shed order of an overloaded
//               cloud front door. backpressured() (the standard-class
//               signal) tells upstream producers to pause.
//   schedule  — admitted jobs wait in per-(tenant, class) FIFO queues; each
//               time a job slot frees, head-of-queue jobs compete on
//               dominant-resource fair share (cluster::DrfLedger over
//               {job slots, task launches, source rows}) scaled by the
//               class DRF weight, minus linear priority/aging credits,
//               with earliest-deadline tie-breaks. Jobs whose deadline
//               already passed are shed at dispatch. The scheduler keeps
//               one UPDATE-KEY HEAP per class (cluster::IndexedHeap) over
//               tenant head-of-queue keys — within a class the key order
//               is time-invariant, so aging never forces a re-sort — and
//               compares only the class winners at dispatch. Decision cost
//               is O(log tenants), not O(tenants): flat from 16 tenants to
//               10k+ (ServeStats::decisions / decision_ns is the measured
//               evidence).
//   execute   — the winning job lowers its OPTIMIZED plan (the optimizer
//               runs once, at admission) onto a dist::JobSlotPool slot; a
//               runtime-level failure is retried at the service level up to
//               three executor runs, so every admitted job gets EXACTLY ONE
//               terminal completion callback.
//   cache     — successful results enter an LRU keyed by
//               plan::fingerprint(optimized plan); a later submission with
//               the same fingerprint is answered after a fixed 1 ms hit
//               latency without consuming a queue entry or an executor.
//
// Everything runs on the single-threaded Simulator, so a (config, seed,
// arrival schedule) triple reproduces a whole serving day bit-for-bit —
// which is what the serve-level chaos campaign (serve/campaign.hpp) leans
// on. Metrics land under serve.* (counters, queue-depth/backpressure
// gauges, global + per-tenant latency histograms).
//
// The executor pool may GROW AND SHRINK underneath the service (the
// src/fleet elasticity loop): saturation, backpressure, and dispatch all
// read the pool's current slot count, and notify_capacity_changed() lets
// the fleet controller trigger a dispatch sweep after adding capacity.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/fair_share.hpp"
#include "cluster/indexed_heap.hpp"
#include "dist/slots.hpp"
#include "dstream/streaming.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "serve/cache.hpp"

namespace hpbdc::dstream {
class StreamRuntime;
}  // namespace hpbdc::dstream

namespace hpbdc::serve {

using TenantId = std::uint32_t;

enum class Reject : std::uint8_t {
  kRateLimited,      // tenant token bucket empty
  kTenantQueueFull,  // per-tenant queue at capacity
  kGlobalQueueFull,  // service-wide queue at capacity
  kBackpressure,     // executor pool saturated + queue over the watermark
  kDeadlineExpired,  // deadline passed while queued (shed at dispatch)
};
inline constexpr std::size_t kRejectKindCount = 5;
const char* reject_name(Reject r);

/// Tenant-facing service tiers. kStandard is the default and reproduces the
/// pre-SLO service exactly (all class multipliers 1.0); kLatency holds
/// admission longest under overload and schedules soonest; kBatch is the
/// first work shed and the last scheduled.
enum class SloClass : std::uint8_t {
  kLatency = 0,
  kStandard = 1,
  kBatch = 2,
};
inline constexpr std::size_t kSloClassCount = 3;
const char* slo_name(SloClass c);

enum class Status : std::uint8_t {
  kCompleted,  // rows valid (from an executor run or the result cache)
  kRejected,   // shed at admission or dispatch; reject says why
  kFailed,     // runtime failed and the retry budget is spent
};

struct SubmitRequest {
  TenantId tenant = 0;
  plan::LogicalPlan plan;
  double deadline = 0;  // absolute simulated time; 0 = none
  int priority = 0;     // higher = scheduled sooner
  /// Per-job executor options (shuffle transport + flow knobs), carried
  /// through queueing/retries down to DistRuntime::submit. Defaults = pull.
  /// Streaming jobs normally select the push transport here — the credit-
  /// paced flow channels are what give the runtime real backpressure.
  dist::RuntimeOptions runtime{};
  /// Present = this is a STREAMING job: the plan lowers through
  /// dstream::lower_streaming onto the service's StreamRuntime instead of a
  /// batch slot. The job holds one pool slot for its whole run (admission
  /// and backpressure see it like any tenant), skips the result cache
  /// (continuous output is not a memoizable function of the plan), and is
  /// DRF-charged per completed epoch rather than once at job end.
  std::optional<dstream::StreamingOptions> streaming{};
  /// Optimize with the stats-driven cost pass (plan::cost_optimize) instead
  /// of the rule passes alone. The cost annotations fold into the plan
  /// fingerprint (non-zero stats_salt), so cost-based and rule-only
  /// submissions of one plan never alias in the result cache.
  bool cost_based = false;
  /// Service tier (admission, shed order, and scheduling weight all key off
  /// this; see ServeConfig::slo).
  SloClass slo = SloClass::kStandard;
};

/// The exactly-once terminal event of a submission.
struct Completion {
  std::uint64_t job_id = 0;
  TenantId tenant = 0;
  Status status = Status::kCompleted;
  Reject reject = Reject::kRateLimited;  // meaningful when kRejected
  SloClass slo = SloClass::kStandard;
  bool cache_hit = false;
  double submit_time = 0;
  double finish_time = 0;
  std::uint64_t fingerprint = 0;
  std::size_t dist_submits = 0;  // executor runs consumed (0 for hits/sheds)
  std::uint64_t epochs = 0;      // streaming jobs: completed epochs
  std::vector<plan::Row> rows;   // kCompleted only
  double latency() const noexcept { return finish_time - submit_time; }
};

/// Per-class multipliers over the base ServeConfig knobs. All 1.0 =
/// byte-identical to the classless service, which is what kStandard keeps.
struct SloClassConfig {
  double rate_mult = 1.0;            // x bucket_rate
  double burst_mult = 1.0;           // x bucket_burst
  double drf_weight = 1.0;           // burden divisor: >1 schedules sooner
  double aging_mult = 1.0;           // x aging_rate
  double priority_mult = 1.0;        // x the priority credit per unit
  double shed_watermark_mult = 1.0;  // x backpressure_watermark: <1 sheds first
};

struct ServeConfig {
  // Admission.
  double bucket_rate = 4.0;   // tokens (submissions) per sim-second per tenant
  double bucket_burst = 8.0;  // bucket depth
  std::size_t tenant_queue_cap = 16;
  std::size_t global_queue_cap = 64;
  std::size_t backpressure_watermark = 32;  // queued jobs, pool saturated
  // Scheduling. A queued job's score is the tenant's instantaneous DRF
  // dominant share plus a weighted sum of its accumulated dominant-share-
  // seconds (the cluster::UsageLedger), divided by the class DRF weight,
  // minus the aging and priority credits; lowest score dispatches first.
  // The accumulated term is what keeps scheduling fair across SEQUENTIAL
  // jobs — with a free slot the instantaneous share of every tenant is zero.
  double aging_rate = 0.02;       // dominant-share credit per queued second
  // Execution.
  std::size_t ntasks = 4;           // tasks per lowered dist stage
  // Result cache.
  std::size_t cache_capacity = 128;  // entries; 0 disables caching
  // Tier policy, indexed by SloClass. kStandard MUST stay all-1.0 to keep
  // the classless behavior; the latency/batch defaults encode the intended
  // shed order (batch first, latency last) and scheduling preference.
  SloClassConfig slo[kSloClassCount] = {
      {1.0, 1.0, 2.0, 2.0, 1.0, 1.5},  // kLatency
      {1.0, 1.0, 1.0, 1.0, 1.0, 1.0},  // kStandard
      {1.0, 1.0, 0.5, 0.5, 1.0, 0.5},  // kBatch
  };
};

struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;  // enqueued or served from cache
  std::uint64_t shed = 0;
  std::uint64_t shed_by[kRejectKindCount] = {};
  std::uint64_t shed_by_slo[kSloClassCount] = {};
  std::uint64_t completed = 0;  // includes cache hits
  std::uint64_t completed_by_slo[kSloClassCount] = {};
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t dist_retries = 0;  // service-level resubmits after a failure
  std::uint64_t streaming_launched = 0;
  std::uint64_t streaming_epochs = 0;  // DRF charge points across all stream jobs
  std::size_t max_queue_depth = 0;
  std::size_t max_running = 0;
  // Scheduler decision cost, REAL wall-clock nanoseconds (everything else
  // here is simulated time): one decision = selecting the winning
  // (tenant, class) head across the class heaps. decision_ns / decisions
  // is the per-decision latency the F17 bench tracks from 16 to 10k
  // tenants.
  std::uint64_t decisions = 0;
  std::uint64_t decision_ns = 0;
};

class JobService {
 public:
  using DoneFn = std::function<void(const Completion&)>;

  /// `streams` is the (single-job) streaming backend; nullptr = streaming
  /// submissions are rejected with std::invalid_argument. Batch-only callers
  /// are unchanged.
  JobService(dist::JobSlotPool& pool, ServeConfig cfg,
             dstream::StreamRuntime* streams = nullptr);

  /// Record completion latencies into `reg` as they happen: the global
  /// serve.latency histogram and a lazily created serve.latency.tenant<N>
  /// per tenant. Every other serve.* number comes from export_metrics.
  void bind_metrics(obs::MetricsRegistry& reg);
  /// Snapshot the ServeStats counters and the current queue_depth, running
  /// and backpressure levels into `reg` as serve.* gauges. Exporting twice
  /// in a row changes nothing.
  void export_metrics(obs::MetricsRegistry& reg) const;

  /// Submit at the current simulated time. Returns the job id. `done` fires
  /// exactly once per call: synchronously for sheds, after a fixed hit
  /// latency for cache hits, and at job completion otherwise.
  std::uint64_t submit(SubmitRequest req, DoneFn done);

  /// True while the executor pool is saturated and the queue is over the
  /// standard-class watermark — upstream producers should stop submitting.
  bool backpressured() const noexcept;

  /// The fleet controller calls this after growing the executor pool:
  /// queued work may now fit, so run a dispatch sweep. Harmless to call
  /// spuriously (shrinks included) — it only re-evaluates.
  void notify_capacity_changed();

  std::size_t queue_depth() const noexcept { return queued_; }
  std::size_t running() const noexcept { return running_; }
  const ServeStats& stats() const noexcept { return stats_; }
  const ServeConfig& config() const noexcept { return cfg_; }

 private:
  struct PendingJob {
    std::uint64_t id = 0;
    TenantId tenant = 0;
    double deadline = 0;
    int priority = 0;
    SloClass slo = SloClass::kStandard;
    double submit_time = 0;
    double enqueue_time = 0;  // original admission; preserved across retries
    plan::LogicalPlan optimized;
    dist::RuntimeOptions runtime;
    std::optional<dstream::StreamingOptions> streaming;
    std::uint64_t fp = 0;
    std::vector<double> demand;  // DRF resource vector
    double demand_share = 0;     // max_r demand[r] / capacity[r]
    double launch_time = 0;  // current run; streaming: last DRF charge point
    std::size_t dist_submits = 0;
    std::uint64_t epochs = 0;  // streaming: completed epochs so far
    DoneFn done;
  };

  struct TenantState {
    double tokens[kSloClassCount] = {};
    double last_refill[kSloClassCount] = {};
    bool seen = false;
    std::deque<PendingJob> queue[kSloClassCount];
    obs::LatencyHistogram* latency = nullptr;
  };

  /// Heap key of a (tenant, class) head-of-queue job. Within one class the
  /// relative order of keys is INDEPENDENT of the current time — the aging
  /// credit shifts every key in the class by the same amount — so entries
  /// only re-key when the tenant's burden or head job changes. The actual
  /// dispatch score is key - aging_eff * now, computed only for the
  /// per-class winners.
  struct HeapKey {
    double key = 0;
    double deadline = 0;      // head deadline, +inf when none
    std::uint64_t id = 0;     // head job id (stable final tie-break)
    bool operator<(const HeapKey& o) const noexcept {
      if (key != o.key) return key < o.key;
      if (deadline != o.deadline) return deadline < o.deadline;
      return id < o.id;
    }
  };

  sim::Simulator& sim() { return pool_.simulator(); }
  TenantState& tenant_state(TenantId t);
  void refill_bucket(TenantState& ts, SloClass c, double now);
  double aging_eff(SloClass c) const noexcept {
    return cfg_.aging_rate * cfg_.slo[static_cast<std::size_t>(c)].aging_mult;
  }
  static constexpr double kUsageWeight = 0.5;  // weight of accumulated past usage
  double burden(TenantId t) const {
    return drf_.dominant_share(t) + kUsageWeight * usage_.usage(t);
  }
  HeapKey head_key(TenantId t, const PendingJob& head) const;
  /// Re-derive the (tenant, class) heap entry after any mutation of the
  /// tenant's queue head or burden (enqueue, dispatch pop, DRF acquire/
  /// release, usage charge, retry requeue).
  void reindex(TenantId t, SloClass c);
  void reindex_all_classes(TenantId t);
  void shed(std::uint64_t id, TenantId tenant, SloClass slo, double submit_time,
            std::uint64_t fp, Reject why, DoneFn& done);
  void finish(PendingJob& job, Status status, bool cache_hit,
              std::vector<plan::Row> rows);
  void dispatch();
  void launch(PendingJob job);
  void launch_streaming(PendingJob job);
  void on_job_done(const std::shared_ptr<PendingJob>& job,
                   const dist::JobResult& res);

  dist::JobSlotPool& pool_;
  ServeConfig cfg_;
  dstream::StreamRuntime* streams_ = nullptr;
  cluster::DrfLedger drf_;      // in-flight resources
  cluster::UsageLedger usage_;  // accumulated dominant-share-seconds
  LruCache<std::uint64_t, std::vector<plan::Row>> cache_;
  std::map<TenantId, TenantState> tenants_;  // ordered: deterministic scans
  cluster::IndexedHeap<TenantId, HeapKey> heap_[kSloClassCount];
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  std::uint64_t next_id_ = 1;
  ServeStats stats_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::LatencyHistogram* h_latency_ = nullptr;
};

}  // namespace hpbdc::serve
