// F17 — Elastic fleet serving at 10k-tenant scale (DESIGN.md src/fleet):
// an open-loop multi-tenant workload pushed through the SLO-tiered
// JobService while a FleetController grows and shrinks the executor fleet
// underneath it. Four tables:
//   1. fairness under sustained 1.5x overload at full tenant width — Jain
//      index over per-tenant completions (expected >= 0.99: the DRF usage
//      ledger round-robins backlogged tenants regardless of width), plus
//      per-SLO-tier p99 and shed rate (batch sheds first, latency last);
//   2. the headline: a diurnal day (two peaks at ~2.2x fleet capacity,
//      valleys at ~0.26x) served by a STATIC full fleet, an ELASTIC fleet,
//      and an ELASTIC+SPOT fleet (half the machines preemptible at 0.3x
//      price) — cost-weighted node-seconds, latency-tier p99, shed rate,
//      and scale/preemption event counts. Elastic is expected to cut
//      node-seconds >= 25% below static at equal-or-better latency-tier
//      p99; spot cuts the bill further at the price of preemption churn;
//   3. scheduler decision latency (REAL nanoseconds per dispatch decision,
//      everything else simulated) from 16 tenants to the full width — the
//      per-class indexed heaps keep it flat (expected within 2x);
//   4. per-tier completion latency percentiles for the elastic day.
// Submissions are generated tick-wise (one simulator event per 100ms of
// simulated time, not one per job), so a ~1M-job day costs thousands of
// generator events, not a million closures.
// All simulated times are seed-deterministic; --json=FILE emits the
// headline numbers (bench_json.hpp), plus the overload run's event count and
// host nanoseconds per simulated event (the event core's ledger point).
// --tenants=N / --jobs=N rescale.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "chaos/plan_gen.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dist/slots.hpp"
#include "fleet/fleet.hpp"
#include "serve/service.hpp"
#include "sim/comm.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hpbdc;
using serve::Completion;
using serve::JobService;
using serve::ServeConfig;
using serve::SloClass;
using serve::Status;

constexpr std::size_t kWorkers = 16;  // + node 0 hosting the drivers
constexpr std::size_t kJobsPerNode = 2;
constexpr std::size_t kNtasks = 2;
constexpr double kTickDt = 0.1;  // arrival-generator granularity (sim s)
constexpr std::size_t kPlanPool = 64;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a * 0x9e3779b97f4a7c15ULL + b;
  return splitmix64(s);
}

sim::NetworkConfig star() {
  sim::NetworkConfig nc;
  nc.nodes = kWorkers + 1;
  nc.topology = sim::Topology::kStar;
  return nc;
}

dist::DistConfig dist_cfg(std::uint64_t seed) {
  dist::DistConfig dc;
  dc.driver = 0;
  dc.slots_per_node = 2;
  dc.heartbeat_interval = 0.5;  // coarse: a day is millions of events already
  dc.heartbeat_timeout = 2.0;
  dc.heartbeat_jitter = 0.02;
  dc.attempt_timeout = 60.0;
  dc.speculate = false;
  dc.seed = seed;
  return dc;
}

double single_job_makespan(const plan::LogicalPlan& p) {
  sim::Simulator sim;
  sim::Network net(sim, star());
  sim::Comm comm(sim, net);
  dist::JobSlotPool pool(comm, dist_cfg(99), 1);
  double makespan = 0;
  pool.submit(plan::lower_dist(plan::optimize(p), kNtasks),
              [&makespan](const dist::JobResult& r) { makespan = r.makespan; });
  sim.run();
  return makespan;
}

/// Fixed plan family of NEAR-EQUAL cost, generated once: candidates are
/// measured on an idle single-slot cluster and only those within +/-15% of
/// the median makespan are kept. Equal-cost jobs matter for the fairness
/// table — DRF equalizes service-seconds, so with unequal job costs the
/// per-tenant COMPLETION counts would differ by each tenant's plan-cost
/// draw no matter how fair the scheduler is. `mean_makespan` comes back as
/// the calibration: full-fleet service rate = slots / mean_makespan.
std::vector<plan::LogicalPlan> make_plan_pool(double* mean_makespan) {
  std::vector<plan::LogicalPlan> cand;
  std::vector<double> cost;
  for (std::size_t i = 0; i < 2 * kPlanPool; ++i) {
    cand.push_back(chaos::make_plan(mix(0xF17, i), 2, 24));
    cost.push_back(single_job_makespan(cand.back()));
  }
  std::vector<double> sorted = cost;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<plan::LogicalPlan> pool;
  double sum = 0;
  for (std::size_t i = 0; i < cand.size() && pool.size() < kPlanPool; ++i) {
    if (std::abs(cost[i] - median) <= 0.15 * median) {
      pool.push_back(std::move(cand[i]));
      sum += cost[i];
    }
  }
  if (mean_makespan != nullptr) {
    *mean_makespan = sum / static_cast<double>(pool.size());
  }
  return pool;
}

enum class Mode { kStatic, kElastic, kElasticSpot };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kStatic: return "static";
    case Mode::kElastic: return "elastic";
    case Mode::kElasticSpot: return "elastic+spot";
  }
  return "?";
}

struct RunOut {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  double p99_by_class[serve::kSloClassCount] = {};
  double p50_by_class[serve::kSloClassCount] = {};
  std::uint64_t shed_by_class[serve::kSloClassCount] = {};
  std::uint64_t submitted_by_class[serve::kSloClassCount] = {};
  double jain = 1.0;
  double node_seconds = 0;      // cost-weighted bill
  double node_seconds_raw = 0;  // unpriced machine-seconds
  fleet::FleetStats fleet;
  std::uint64_t decisions = 0;
  double decision_ns = 0;  // real ns per dispatch decision
  double window = 0;
  std::uint64_t sim_events = 0;
  double host_ns_per_event = 0;  // real ns per event of the simulation loop
};

/// One serving day. `rate` is the offered submission rate (jobs/s of sim
/// time) as a function of time over [0, window); submissions are generated
/// in kTickDt batches. Tenants are symmetric; the SLO mix is ~20/50/30
/// latency/standard/batch. `watermark` is the backpressure shed threshold:
/// the fairness table sets it to 2x the tenant width so every tenant stays
/// backlogged (the DRF usage ledger can only round-robin tenants that have
/// something queued); the diurnal table keeps it small to bound queue wait.
/// The fleet time constants are sized for capacity-derived windows (tiny
/// calibrated jobs make a "day" tens to hundreds of simulated seconds).
RunOut run_day(Mode mode, std::size_t tenants,
               const std::function<double(double)>& rate, double window,
               std::size_t watermark, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Network net(sim, star());
  sim::Comm comm(sim, net);

  fleet::FleetConfig fc;
  fc.jobs_per_node = kJobsPerNode;
  fc.control_interval = 0.25;
  fc.target_utilization = 0.9;  // right-size aggressively; warm pool + spare
                                // headroom come from the boost signal instead
  fc.scale_up_cooldown = 0.5;
  fc.scale_down_cooldown = 2.5;
  fc.provision_delay = 1.5;
  fc.warm_activate_delay = 0.25;
  fc.warm_target = 2;
  fc.drain_grace = 0.5;
  if (mode == Mode::kStatic) {
    fc.min_nodes = fc.max_nodes = fc.initial_nodes = kWorkers;
    fc.warm_target = 0;
  } else {
    fc.min_nodes = 2;
    fc.max_nodes = kWorkers;
    fc.initial_nodes = 4;
  }
  if (mode == Mode::kElasticSpot) {
    fc.spot_fraction = 0.5;
    fc.spot_cost_factor = 0.3;
    fc.preempt_seed = mix(seed, 0x59);
    fc.preemptions = 8;
    fc.preempt_horizon = window;
  }

  dist::JobSlotPool pool(
      comm, dist_cfg(mix(seed, 1)),
      std::max<std::size_t>(1, fc.initial_nodes * kJobsPerNode));

  ServeConfig sc;
  sc.ntasks = kNtasks;
  sc.cache_capacity = 0;  // pure load: every completion is an executor run
  sc.bucket_rate = 1000;  // admission pressure comes from the queues, not
  sc.bucket_burst = 1000; // per-tenant rate limits (tenants are symmetric)
  sc.tenant_queue_cap = 4;
  sc.global_queue_cap = 1u << 20;
  sc.backpressure_watermark = watermark;
  JobService svc(pool, sc);
  fleet::FleetController ctrl(pool, svc, fc);

  const auto plans = make_plan_pool(nullptr);
  std::vector<std::uint64_t> per_tenant(tenants, 0);
  std::vector<double> lat[serve::kSloClassCount];
  RunOut out;
  out.window = window;

  Rng arrivals(mix(seed, 2));
  const std::size_t nticks =
      static_cast<std::size_t>(std::ceil(window / kTickDt));
  // Tenants take turns submitting (equal offered load by construction, the
  // closed-demand setup fairness harnesses use): the Jain index then
  // measures the service path — admission, scheduling, shed selection —
  // rather than arrival noise. With random tenant draws the index is
  // bounded by Poisson arrival variance (~mean/(mean+1)), which no
  // scheduler can beat at ~15 completions per tenant.
  std::size_t rr = 0;
  // One generator event per tick submits that tick's Poisson-ish batch —
  // the event-queue footprint of a million-job day stays a few thousand.
  std::function<void(std::size_t)> tick = [&](std::size_t k) {
    const double t = static_cast<double>(k) * kTickDt;
    const double expect = rate(t) * kTickDt;
    std::size_t n = static_cast<std::size_t>(expect);
    if (arrivals.next_double() < expect - static_cast<double>(n)) ++n;
    for (std::size_t j = 0; j < n; ++j) {
      serve::SubmitRequest req;
      const std::size_t tenant = rr % tenants;
      // Exact 20/50/30 class mix PER TENANT (phase-shifted so each round of
      // tenants still spans all classes): a random class draw would hand
      // some tenants more batch jobs — the tier that sheds first — and cap
      // the completions Jain at the draw variance, not scheduler fairness.
      const std::size_t c = (rr / tenants + tenant) % 10;
      ++rr;
      req.tenant = static_cast<serve::TenantId>(tenant);
      req.plan = plans[arrivals.next_below(plans.size())];
      req.priority = static_cast<int>(arrivals.next_below(3));
      req.slo = c < 2 ? SloClass::kLatency
                      : (c < 7 ? SloClass::kStandard : SloClass::kBatch);
      out.submitted_by_class[static_cast<std::size_t>(req.slo)]++;
      svc.submit(std::move(req),
                 [&per_tenant, &lat, tenant](const Completion& done) {
                   if (done.status != Status::kCompleted) return;
                   per_tenant[tenant]++;
                   lat[static_cast<std::size_t>(done.slo)].push_back(
                       done.latency());
                 });
    }
    if (k + 1 < nticks) {
      sim.schedule_at(static_cast<double>(k + 1) * kTickDt,
                      [&tick, k] { tick(k + 1); });
    }
  };
  sim.schedule_at(0.0, [&tick] { tick(0); });
  ctrl.start();

  // Short drain margin: a watermark-bounded queue drains in a few seconds,
  // and every mode is billed over the same [0, stop) span — a long idle
  // tail would flatter elasticity for free.
  const double stop = window + 20.0;
  sim.schedule_at(stop, [&ctrl] { ctrl.stop(); });
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(stop + 10.0);
  const double loop_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  out.sim_events = sim.events_processed();
  if (out.sim_events > 0) {
    out.host_ns_per_event = loop_ns / static_cast<double>(out.sim_events);
  }

  const serve::ServeStats& st = svc.stats();
  out.submitted = st.submitted;
  out.completed = st.completed;
  out.shed = st.shed;
  for (std::size_t c = 0; c < serve::kSloClassCount; ++c) {
    out.shed_by_class[c] = st.shed_by_slo[c];
    auto& v = lat[c];
    std::sort(v.begin(), v.end());
    if (!v.empty()) {
      out.p50_by_class[c] = v[v.size() / 2];
      out.p99_by_class[c] =
          v[std::min(v.size() - 1,
                     static_cast<std::size_t>(
                         std::ceil(0.99 * static_cast<double>(v.size()))))];
    }
  }
  double sum = 0, sq = 0;
  for (std::uint64_t x : per_tenant) {
    sum += static_cast<double>(x);
    sq += static_cast<double>(x) * static_cast<double>(x);
  }
  if (sq > 0) {
    out.jain = (sum * sum) / (static_cast<double>(tenants) * sq);
  }
  out.fleet = ctrl.stats();
  out.node_seconds = out.fleet.node_seconds;
  out.node_seconds_raw = out.fleet.node_seconds_raw;
  out.decisions = st.decisions;
  if (st.decisions > 0) {
    out.decision_ns = static_cast<double>(st.decision_ns) /
                      static_cast<double>(st.decisions);
  }
  return out;
}

std::string pct(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "0%";
  return Table::num(100.0 * static_cast<double>(part) /
                        static_cast<double>(whole), 1) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  hpbdc::bench::JsonWriter json("f17_elastic_fleet", argc, argv);
  std::size_t tenants = 10000;
  std::uint64_t jobs = 1000000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tenants=", 10) == 0) {
      tenants = std::stoull(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::stoull(argv[i] + 7);
    }
  }

  double makespan = 0;
  const auto plans = make_plan_pool(&makespan);
  const double capacity =
      static_cast<double>(kWorkers * kJobsPerNode) / makespan;
  std::cout << "F17: elastic fleet serving (" << kWorkers << " workers x "
            << kJobsPerNode << " job slots, " << tenants << " tenants, ~"
            << jobs << " submissions)\ncalibration: mean job makespan "
            << Table::num(makespan, 3) << "s -> full-fleet capacity "
            << Table::num(capacity, 1) << " jobs/s\n\n";
  json.metric("calibrated_capacity_jobs_per_s", capacity);

  // Job budget split: fairness gets ~22%, each diurnal mode ~22%, the
  // decision sweep the remainder.
  const double fair_jobs = 0.22 * static_cast<double>(jobs);
  const double day_jobs = 0.22 * static_cast<double>(jobs);

  // ---- Table 1: DRF fairness + SLO shed order under sustained overload ----
  {
    const double lambda = 1.5 * capacity;
    const double window = fair_jobs / lambda;
    // Watermark 3x the width: the queue equilibrates at the standard-class
    // threshold with nearly all shedding absorbed by the batch tier, so
    // per-tenant completion variance is service-driven, not shed-lottery.
    const RunOut o = run_day(Mode::kElastic, tenants,
                             [lambda](double) { return lambda; }, window,
                             3 * tenants, 12);
    std::cout << "Table 1: sustained 1.5x overload, elastic fleet, "
              << tenants << " tenants, " << Table::num(window, 0)
              << "s window\n";
    Table t1({"submitted", "completed", "shed", "Jain", "p99 lat (s)",
              "p99 std (s)", "p99 batch (s)"});
    t1.row({std::to_string(o.submitted), std::to_string(o.completed),
            pct(o.shed, o.submitted), Table::num(o.jain, 4),
            Table::num(o.p99_by_class[0], 2), Table::num(o.p99_by_class[1], 2),
            Table::num(o.p99_by_class[2], 2)});
    t1.print(std::cout);
    Table t1b({"tier", "submitted", "shed", "shed rate"});
    const char* names[] = {"latency", "standard", "batch"};
    for (std::size_t c = 0; c < serve::kSloClassCount; ++c) {
      t1b.row({names[c], std::to_string(o.submitted_by_class[c]),
               std::to_string(o.shed_by_class[c]),
               pct(o.shed_by_class[c], o.submitted_by_class[c])});
      json.metric("shed_rate", o.submitted_by_class[c]
                      ? static_cast<double>(o.shed_by_class[c]) /
                            static_cast<double>(o.submitted_by_class[c])
                      : 0,
                  {{"tier", names[c]}});
    }
    t1b.print(std::cout);
    json.metric("jain_fairness", o.jain, {{"tenants", std::to_string(tenants)}});
    json.metric("p99_latency_tier_s", o.p99_by_class[0], {{"table", "overload"}});
    json.metric("sim_events", static_cast<double>(o.sim_events), {{"table", "overload"}});
    json.metric("host_ns_per_event", o.host_ns_per_event, {{"table", "overload"}});
    std::cout << "  Jain over per-tenant completions: " << Table::num(o.jain, 4)
              << (o.jain >= 0.99 ? " (>= 0.99: PASS)" : " (< 0.99)") << "\n\n";
  }

  // ---- Table 2: the diurnal day, static vs elastic vs elastic+spot --------
  {
    // Two sin^8 rush hours at 1.8x full-fleet capacity over a ~0.09x floor:
    // sharp peaks that saturate even the full fleet, long off-peak valleys
    // (the shape elasticity is for). Mean load = 0.31 * peak = 0.56x
    // capacity, so a right-sized fleet averages well under the static 16.
    const double peak = 1.8 * capacity;
    const double window = day_jobs / (0.31 * peak);
    auto diurnal = [peak, window](double t) {
      constexpr double kTau = 6.283185307179586;
      const double s = std::sin(kTau * t / window);
      const double s4 = s * s * s * s;
      return peak * (0.05 + 0.95 * s4 * s4);
    };
    std::cout << "Table 2: diurnal day (" << Table::num(window, 0)
              << "s, rush-hour peaks 1.8x capacity)\n";
    Table t2({"mode", "node-s (bill)", "vs static", "machine-s", "completed",
              "shed", "p99 lat (s)", "ups/downs", "preempt"});
    double static_bill = 0, static_p99 = 0;
    // Small watermark: the day's story is cost vs latency, so queue wait
    // stays bounded (~watermark/capacity) instead of tenant-backlogged.
    const std::size_t wm = std::max<std::size_t>(64, tenants / 10);
    for (Mode m : {Mode::kStatic, Mode::kElastic, Mode::kElasticSpot}) {
      const RunOut o = run_day(m, tenants, diurnal, window, wm, 21);
      if (m == Mode::kStatic) {
        static_bill = o.node_seconds;
        static_p99 = o.p99_by_class[0];
      }
      const double saving =
          static_bill > 0 ? 100.0 * (1.0 - o.node_seconds / static_bill) : 0;
      t2.row({mode_name(m), Table::num(o.node_seconds, 0),
              m == Mode::kStatic ? "-" : "-" + Table::num(saving, 1) + "%",
              Table::num(o.node_seconds_raw, 0), std::to_string(o.completed),
              pct(o.shed, o.submitted), Table::num(o.p99_by_class[0], 2),
              std::to_string(o.fleet.scale_ups) + "/" +
                  std::to_string(o.fleet.scale_downs),
              std::to_string(o.fleet.preemptions)});
      json.metric("node_seconds", o.node_seconds, {{"mode", mode_name(m)}});
      json.metric("p99_latency_tier_s", o.p99_by_class[0],
                  {{"mode", mode_name(m)}});
      if (m == Mode::kElastic) {
        json.metric("elastic_node_seconds_saving_pct", saving);
        std::cout << "  elastic bill " << Table::num(saving, 1)
                  << "% below static ("
                  << (saving >= 25.0 ? ">= 25%: PASS" : "< 25%")
                  << "), latency-tier p99 " << Table::num(o.p99_by_class[0], 2)
                  << "s vs static " << Table::num(static_p99, 2) << "s\n";
      }
      if (m == Mode::kElasticSpot) {
        json.metric("spot_node_seconds_saving_pct", saving);
        json.metric("spot_preemptions",
                    static_cast<double>(o.fleet.preemptions));
      }
    }
    t2.print(std::cout);
    std::cout << "\n";
  }

  // ---- Table 3: dispatch decision latency, 16 -> full width ---------------
  {
    std::cout << "Table 3: dispatch decision latency (REAL ns; per-class "
                 "indexed heaps)\n";
    Table t3({"tenants", "decisions", "ns/decision"});
    const double lambda = 3.0 * capacity;
    double ns16 = 0, ns_full = 0;
    for (std::size_t w : {std::size_t{16}, tenants}) {
      const double window =
          0.06 * static_cast<double>(jobs) / lambda;  // ~6% of the budget each
      const RunOut o = run_day(Mode::kElastic, w,
                               [lambda](double) { return lambda; }, window,
                               2 * w, 33);
      t3.row({std::to_string(w), std::to_string(o.decisions),
              Table::num(o.decision_ns, 0)});
      json.metric("decision_ns", o.decision_ns,
                  {{"tenants", std::to_string(w)}});
      if (w == 16) ns16 = o.decision_ns;
      else ns_full = o.decision_ns;
    }
    t3.print(std::cout);
    const double ratio = ns16 > 0 ? ns_full / ns16 : 0;
    json.metric("decision_ns_ratio_full_over_16", ratio);
    std::cout << "  " << tenants << "-tenant decision cost = "
              << Table::num(ratio, 2) << "x the 16-tenant cost ("
              << (ratio <= 2.0 ? "<= 2x: FLAT" : "> 2x") << ")\n";
  }
  return 0;
}
