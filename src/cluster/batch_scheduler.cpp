#include "cluster/batch_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <list>
#include <queue>
#include <stdexcept>
#include <unordered_map>

namespace hpbdc::cluster {

const char* sched_policy_name(SchedPolicy p) noexcept {
  switch (p) {
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kSjf: return "sjf";
    case SchedPolicy::kEasyBackfill: return "easy-backfill";
    case SchedPolicy::kFairShare: return "fair-share";
  }
  return "?";
}

namespace {

// Generated-trace marginals.
constexpr double kRuntimeMu = 6.5;       // log-normal: median ~665 s
constexpr double kRuntimeSigma = 1.4;    // heavy tail, as in production traces
constexpr std::size_t kMaxNodesLog2 = 5;  // requests are 2^k nodes, k in [0, this]
constexpr double kUserZipfTheta = 0.8;   // a few users submit most jobs

struct Running {
  double finish;          // actual completion (simulator-known)
  double est_finish;      // start + estimate (scheduler-visible)
  std::size_t nodes;
  bool operator>(const Running& o) const noexcept { return finish > o.finish; }
};

struct SimState {
  std::size_t free_nodes;
  std::priority_queue<Running, std::vector<Running>, std::greater<>> running;
  std::list<Job> queue;  // pending, arrival order
  UsageLedger usage;     // fair-share node-seconds (shared accounting type)
  double aging_rate = 0.0;
  std::uint64_t backfilled = 0;
};

void start_job(SimState& st, std::vector<JobOutcome>& out, const Job& j, double t,
               double& busy_node_seconds) {
  st.free_nodes -= j.nodes;
  st.running.push(Running{t + j.runtime, t + j.estimate, j.nodes});
  st.usage.charge(j.user, static_cast<double>(j.nodes) * j.runtime);
  busy_node_seconds += static_cast<double>(j.nodes) * j.runtime;
  JobOutcome o;
  o.id = j.id;
  o.start = t;
  o.finish = t + j.runtime;
  o.wait = t - j.arrival;
  const double denom = std::max(j.runtime, 10.0);
  o.bounded_slowdown = std::max(1.0, (o.wait + j.runtime) / denom);
  out.push_back(o);
}

/// Dispatch as many queued jobs as the policy allows at time t.
void dispatch(SimState& st, SchedPolicy policy, std::vector<JobOutcome>& out,
              double t, double& busy_node_seconds) {
  switch (policy) {
    case SchedPolicy::kFifo: {
      while (!st.queue.empty() && st.queue.front().nodes <= st.free_nodes) {
        start_job(st, out, st.queue.front(), t, busy_node_seconds);
        st.queue.pop_front();
      }
      break;
    }
    case SchedPolicy::kSjf: {
      while (!st.queue.empty()) {
        auto shortest = st.queue.begin();
        for (auto it = st.queue.begin(); it != st.queue.end(); ++it) {
          if (it->estimate < shortest->estimate ||
              (it->estimate == shortest->estimate && it->arrival < shortest->arrival)) {
            shortest = it;
          }
        }
        if (shortest->nodes > st.free_nodes) break;  // strict order, no skipping
        start_job(st, out, *shortest, t, busy_node_seconds);
        st.queue.erase(shortest);
      }
      break;
    }
    case SchedPolicy::kFairShare: {
      while (!st.queue.empty()) {
        // Effective key: accumulated usage minus the aging credit earned in
        // the queue (aged_priority). aging_rate == 0 reproduces the classic
        // usage-ordered policy exactly.
        auto key = [&st, t](const Job& j) {
          return aged_priority(st.usage.usage(j.user), t - j.arrival,
                               st.aging_rate);
        };
        auto best = st.queue.begin();
        for (auto it = st.queue.begin(); it != st.queue.end(); ++it) {
          const double u_it = key(*it);
          const double u_best = key(*best);
          if (u_it < u_best || (u_it == u_best && it->arrival < best->arrival)) {
            best = it;
          }
        }
        if (best->nodes > st.free_nodes) break;
        start_job(st, out, *best, t, busy_node_seconds);
        st.queue.erase(best);
      }
      break;
    }
    case SchedPolicy::kEasyBackfill: {
      // Start FIFO prefix.
      while (!st.queue.empty() && st.queue.front().nodes <= st.free_nodes) {
        start_job(st, out, st.queue.front(), t, busy_node_seconds);
        st.queue.pop_front();
      }
      if (st.queue.empty()) break;
      // Head blocked: compute its reservation (shadow time) from the
      // scheduler-visible estimated finish times of running jobs.
      const Job& head = st.queue.front();
      std::vector<Running> running_copy;
      {
        auto pq = st.running;
        while (!pq.empty()) {
          running_copy.push_back(pq.top());
          pq.pop();
        }
      }
      std::sort(running_copy.begin(), running_copy.end(),
                [](const Running& a, const Running& b) { return a.est_finish < b.est_finish; });
      std::size_t avail = st.free_nodes;
      double shadow = std::numeric_limits<double>::infinity();
      for (const auto& r : running_copy) {
        avail += r.nodes;
        if (avail >= head.nodes) {
          shadow = r.est_finish;
          break;
        }
      }
      // Nodes spare at the shadow time after the head's reservation.
      std::size_t at_shadow = st.free_nodes;
      for (const auto& r : running_copy) {
        if (r.est_finish <= shadow) at_shadow += r.nodes;
      }
      const std::size_t extra = at_shadow >= head.nodes ? at_shadow - head.nodes : 0;
      // Backfill pass over the rest of the queue, arrival order.
      for (auto it = std::next(st.queue.begin()); it != st.queue.end();) {
        const bool fits_now = it->nodes <= st.free_nodes;
        const bool ends_before_shadow = t + it->estimate <= shadow;
        const bool within_extra = it->nodes <= extra;
        if (fits_now && (ends_before_shadow || within_extra)) {
          start_job(st, out, *it, t, busy_node_seconds);
          ++st.backfilled;
          it = st.queue.erase(it);
        } else {
          ++it;
        }
      }
      break;
    }
  }
}

}  // namespace

ScheduleResult simulate_schedule(std::size_t cluster_nodes, SchedPolicy policy,
                                 std::vector<Job> jobs,
                                 const FairShareOptions& fair) {
  if (cluster_nodes == 0) throw std::invalid_argument("simulate_schedule: empty cluster");
  for (const auto& j : jobs) {
    if (j.nodes == 0 || j.nodes > cluster_nodes) {
      throw std::invalid_argument("simulate_schedule: infeasible job node request");
    }
    if (j.runtime < 0 || j.estimate < j.runtime) {
      throw std::invalid_argument("simulate_schedule: estimate must cover runtime");
    }
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const Job& a, const Job& b) { return a.arrival < b.arrival; });

  SimState st;
  st.free_nodes = cluster_nodes;
  st.usage = fair.initial_usage;
  st.aging_rate = fair.aging_rate;
  std::vector<JobOutcome> out;
  out.reserve(jobs.size());
  double busy_node_seconds = 0;
  std::size_t next_arrival = 0;
  double t = 0;

  while (next_arrival < jobs.size() || !st.running.empty() || !st.queue.empty()) {
    // Advance to the next event: completion or arrival, completions first.
    const double t_complete =
        st.running.empty() ? std::numeric_limits<double>::infinity() : st.running.top().finish;
    const double t_arrive = next_arrival < jobs.size()
                                ? jobs[next_arrival].arrival
                                : std::numeric_limits<double>::infinity();
    if (!std::isfinite(t_complete) && !std::isfinite(t_arrive)) {
      throw std::logic_error("simulate_schedule: deadlock (queued job can never start)");
    }
    t = std::min(t_complete, t_arrive);
    while (!st.running.empty() && st.running.top().finish <= t) {
      st.free_nodes += st.running.top().nodes;
      st.running.pop();
    }
    while (next_arrival < jobs.size() && jobs[next_arrival].arrival <= t) {
      st.queue.push_back(jobs[next_arrival]);
      ++next_arrival;
    }
    dispatch(st, policy, out, t, busy_node_seconds);
  }

  ScheduleResult res;
  res.jobs = std::move(out);
  res.backfilled = st.backfilled;
  if (res.jobs.empty()) return res;
  std::vector<double> waits;
  waits.reserve(res.jobs.size());
  double sum_wait = 0, sum_slow = 0;
  for (const auto& o : res.jobs) {
    res.makespan = std::max(res.makespan, o.finish);
    waits.push_back(o.wait);
    sum_wait += o.wait;
    sum_slow += o.bounded_slowdown;
  }
  std::sort(waits.begin(), waits.end());
  res.mean_wait = sum_wait / static_cast<double>(res.jobs.size());
  res.p95_wait = waits[static_cast<std::size_t>(0.95 * static_cast<double>(waits.size() - 1))];
  res.mean_bounded_slowdown = sum_slow / static_cast<double>(res.jobs.size());
  res.utilization = res.makespan > 0
                        ? busy_node_seconds /
                              (static_cast<double>(cluster_nodes) * res.makespan)
                        : 0;
  return res;
}

std::vector<Job> generate_trace(const TraceConfig& cfg, Rng& rng,
                                std::size_t cluster_nodes) {
  std::vector<Job> jobs;
  jobs.reserve(cfg.jobs);
  ZipfGenerator user_gen(kTraceUsers, kUserZipfTheta);
  double t = 0;
  for (std::size_t i = 0; i < cfg.jobs; ++i) {
    t += rng.next_exponential(cfg.arrival_rate);
    Job j;
    j.id = i;
    j.arrival = t;
    j.runtime = std::max(1.0, rng.next_lognormal(kRuntimeMu, kRuntimeSigma));
    j.estimate = j.runtime * (1.0 + 2.0 * rng.next_double());
    const auto k = rng.next_below(kMaxNodesLog2 + 1);
    j.nodes = std::min<std::size_t>(cluster_nodes, 1ULL << k);
    j.user = static_cast<std::uint32_t>(user_gen.next(rng));
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace hpbdc::cluster
