#pragma once
// HPC batch-job scheduling (experiment T3). Jobs request a node count and
// run for `runtime` seconds; the scheduler sees only the user-supplied
// `estimate` (>= runtime by convention, as in real systems where jobs are
// killed at their limit). Policies:
//   FIFO          — strict arrival order; head-of-line blocking.
//   SJF           — shortest estimate first; still blocks if the shortest
//                   job does not fit (no skipping).
//   EASY backfill — FIFO with a reservation for the head job; later jobs
//                   may jump the queue iff they cannot delay the head's
//                   reservation (Lifka '95).
//   FairShare     — queue ordered by accumulated per-user usage (node-
//                   seconds), then arrival; blocks like FIFO.
// The simulation is event-driven and deterministic.

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fair_share.hpp"
#include "common/rng.hpp"

namespace hpbdc::cluster {

struct Job {
  std::uint64_t id = 0;
  double arrival = 0;     // seconds
  double runtime = 0;     // actual execution time (unknown to scheduler)
  double estimate = 0;    // user estimate (scheduler-visible)
  std::size_t nodes = 1;  // nodes requested
  std::uint32_t user = 0;
};

enum class SchedPolicy { kFifo, kSjf, kEasyBackfill, kFairShare };

const char* sched_policy_name(SchedPolicy p) noexcept;

struct JobOutcome {
  std::uint64_t id = 0;
  double start = 0;
  double finish = 0;
  double wait = 0;
  double bounded_slowdown = 1;  // max(1, (wait+run)/max(run, 10s))
};

struct ScheduleResult {
  std::vector<JobOutcome> jobs;
  double makespan = 0;
  double mean_wait = 0;
  double p95_wait = 0;
  double mean_bounded_slowdown = 0;
  double utilization = 0;  // busy node-seconds / (nodes * makespan)
  std::uint64_t backfilled = 0;  // jobs started ahead of an earlier arrival
};

/// Fair-share knobs (ignored by the other policies). Usage accounting goes
/// through cluster::UsageLedger, the accounting shared with the serve-layer
/// DRF scheduler; aging_rate > 0 turns on the starvation guard: a queued
/// job's effective key is aged_priority(usage, wait, aging_rate), so a
/// high-usage tenant stuck behind an endless stream of fresh zero-usage
/// arrivals still runs once its aging credit outweighs the usage gap.
struct FairShareOptions {
  double aging_rate = 0.0;    // usage credit per second of queue wait
  UsageLedger initial_usage;  // pre-existing per-user balances
};

/// Simulate the full trace to completion under the given policy.
ScheduleResult simulate_schedule(std::size_t cluster_nodes, SchedPolicy policy,
                                 std::vector<Job> jobs,
                                 const FairShareOptions& fair = {});

// --- Workload generation -------------------------------------------------

struct TraceConfig {
  std::size_t jobs = 1000;
  double arrival_rate = 0.02;     // jobs/sec (Poisson)
};

/// Users submitting a generated trace; job user ids are in [0, this).
inline constexpr std::uint32_t kTraceUsers = 8;

/// Deterministic synthetic trace with production-like marginals:
/// Poisson arrivals, log-normal runtimes, power-of-two node counts,
/// zipf-skewed users. estimate = runtime * U[1, 3].
std::vector<Job> generate_trace(const TraceConfig& cfg, Rng& rng,
                                std::size_t cluster_nodes);

}  // namespace hpbdc::cluster
