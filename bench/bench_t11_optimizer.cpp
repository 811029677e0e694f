// T11 — Plan optimizer (DESIGN.md src/plan): optimized-vs-raw execution of
// the same logical plans on both engines. Swept over (1) generated chaos
// plan families (the shapes the differential oracle certifies) and (2) the
// named wordcount/terasort plan shapes. Reported per plan: dist stage count,
// simulated shuffle bytes, simulated makespan, host time of the dist run
// (best of 3: lowering, stage kernels and simulator), and shared-memory
// wall time;
// plus the plan.rules_applied.* / plan.stages_eliminated counters the
// optimizer feeds through the obs registry. Expected shape: fusion removes
// one hash-partitioned stage per absorbed narrow op, and the map-side
// combine collapses reduce-bound shuffles to ≤ kKeyDomain rows per task.

#include <chrono>
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "chaos/plan_gen.hpp"
#include "common/stats.hpp"
#include "dataflow/context.hpp"
#include "dist/runtime.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "plan/jobs.hpp"
#include "plan/lower.hpp"
#include "plan/optimizer.hpp"

namespace {

using namespace hpbdc;
using plan::LogicalPlan;

struct DistOut {
  std::size_t stages = 0;
  double makespan = 0;
  std::uint64_t shuffle_bytes = 0;
  double host_ms = 0;  // best of run_dist's repetitions
};

DistOut run_dist_once(const LogicalPlan& p, std::size_t ntasks) {
  sim::Simulator s;
  sim::NetworkConfig nc;
  nc.nodes = 10;
  nc.topology = sim::Topology::kStar;
  sim::Network net(s, nc);
  sim::Comm comm(s, net);
  sim::Dfs dfs(comm, {});
  dist::DistConfig dc;
  dc.seed = 42;
  dc.slots_per_node = 2;
  dist::DistRuntime rt(comm, dc, &dfs);
  dist::JobSpec job = plan::lower_dist(p, ntasks);
  DistOut out;
  out.stages = job.stages.size();
  dist::JobResult res;
  rt.submit(std::move(job), [&res](const dist::JobResult& r) { res = r; });
  s.run();
  out.makespan = res.makespan;
  out.shuffle_bytes = rt.stats().shuffle_bytes;
  return out;
}

/// The dist run repeated 3 times (each simulates the same events); host_ms
/// is the fastest repetition's wall time.
DistOut run_dist(const LogicalPlan& p, std::size_t ntasks) {
  DistOut out;
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    out = run_dist_once(p, ntasks);
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  out.host_ms = best;
  return out;
}

double wall_local(const LogicalPlan& p, Executor& pool, int reps) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    dataflow::Context ctx(pool);
    const auto t0 = std::chrono::steady_clock::now();
    const auto rows = plan::lower_local(p, ctx);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (rows.empty() && p.rows_per_source > 0) std::cerr << "";  // keep rows live
    best = std::min(best, s);
  }
  return best;
}

std::string mb(std::uint64_t bytes) {
  return Table::num(static_cast<double>(bytes) / 1e6, 2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("t11_optimizer", argc, argv);
  ThreadPool pool(4);
  obs::MetricsRegistry reg;  // optimizer counters across the whole bench

  std::cout << "T11: rule-based plan optimizer, optimized vs raw execution "
               "(dist: 10 nodes, 8 tasks/stage, seed 42)\n\n";

  std::cout << "Table 1: generated chaos-plan families (10 nodes/plan, "
               "4096 rows/source)\n";
  Table t1({"seed", "stages raw", "stages opt", "shuffle MB raw",
            "shuffle MB opt", "makespan raw (s)", "makespan opt (s)",
            "dist host raw (ms)", "dist host opt (ms)", "rules"});
  std::size_t better_stages = 0, total = 0;
  std::uint64_t sum_raw_bytes = 0, sum_opt_bytes = 0;
  for (std::uint64_t seed : {3, 9, 17, 29, 41, 57}) {
    const LogicalPlan raw = chaos::make_plan(seed, 10, 4096);
    plan::OptimizerStats st;
    const LogicalPlan opt = plan::optimize(raw, &st, &reg);
    const DistOut dr = run_dist(raw, 8);
    const DistOut od = run_dist(opt, 8);
    ++total;
    if (od.stages < dr.stages) ++better_stages;
    sum_raw_bytes += dr.shuffle_bytes;
    sum_opt_bytes += od.shuffle_bytes;
    t1.row({std::to_string(seed), std::to_string(dr.stages),
            std::to_string(od.stages), mb(dr.shuffle_bytes),
            mb(od.shuffle_bytes), Table::num(dr.makespan, 2),
            Table::num(od.makespan, 2), Table::num(dr.host_ms, 2),
            Table::num(od.host_ms, 2), std::to_string(st.rules_applied())});
    const std::string seed_label = std::to_string(seed);
    json.metric("stages_raw", static_cast<double>(dr.stages),
                {{"seed", seed_label}});
    json.metric("stages_opt", static_cast<double>(od.stages),
                {{"seed", seed_label}});
    json.metric("makespan_raw_s", dr.makespan, {{"seed", seed_label}});
    json.metric("makespan_opt_s", od.makespan, {{"seed", seed_label}});
    json.metric("dist_host_ms", dr.host_ms, {{"seed", seed_label}, {"plan", "raw"}});
    json.metric("dist_host_ms", od.host_ms, {{"seed", seed_label}, {"plan", "opt"}});
  }
  t1.print(std::cout);
  json.metric("shuffle_bytes_raw_total", static_cast<double>(sum_raw_bytes));
  json.metric("shuffle_bytes_opt_total", static_cast<double>(sum_opt_bytes));
  std::cout << "  " << better_stages << "/" << total
            << " plans lost stages; total shuffle " << mb(sum_raw_bytes)
            << " MB -> " << mb(sum_opt_bytes) << " MB\n\n";

  std::cout << "Table 2: named plan shapes (262144 rows)\n";
  Table t2({"job", "stages raw", "stages opt", "shuffle MB raw",
            "shuffle MB opt", "makespan raw (s)", "makespan opt (s)",
            "dist host raw (ms)", "dist host opt (ms)", "local wall raw (ms)",
            "local wall opt (ms)"});
  struct Named {
    const char* name;
    LogicalPlan raw;
  };
  const std::uint64_t kRows = 1ULL << 18;
  for (const Named& j : {Named{"wordcount", plan::wordcount_plan(kRows)},
                         Named{"terasort", plan::terasort_plan(kRows)}}) {
    const LogicalPlan opt = plan::optimize(j.raw, nullptr, &reg);
    const DistOut dr = run_dist(j.raw, 8);
    const DistOut od = run_dist(opt, 8);
    const double wr = wall_local(j.raw, pool, 5);
    const double wo = wall_local(opt, pool, 5);
    t2.row({j.name, std::to_string(dr.stages), std::to_string(od.stages),
            mb(dr.shuffle_bytes), mb(od.shuffle_bytes),
            Table::num(dr.makespan, 2), Table::num(od.makespan, 2),
            Table::num(dr.host_ms, 2), Table::num(od.host_ms, 2),
            Table::num(wr * 1e3, 2), Table::num(wo * 1e3, 2)});
    json.metric("makespan_raw_s", dr.makespan, {{"job", j.name}});
    json.metric("makespan_opt_s", od.makespan, {{"job", j.name}});
    json.metric("dist_host_ms", dr.host_ms, {{"job", j.name}, {"plan", "raw"}});
    json.metric("dist_host_ms", od.host_ms, {{"job", j.name}, {"plan", "opt"}});
    json.metric("local_wall_raw_s", wr, {{"job", j.name}});
    json.metric("local_wall_opt_s", wo, {{"job", j.name}});
  }
  t2.print(std::cout);

  const auto c = [&reg](const char* name) { return reg.counter(name).value(); };
  std::cout << "\nplan.rules_applied: fuse_narrow="
            << c("plan.rules_applied.fuse_narrow")
            << " push_filter=" << c("plan.rules_applied.push_filter")
            << " combine=" << c("plan.rules_applied.combine")
            << " shuffle_elim=" << c("plan.rules_applied.shuffle_elim")
            << " prune_dead=" << c("plan.rules_applied.prune_dead")
            << "\nplan.stages_eliminated=" << c("plan.stages_eliminated")
            << "\n";
  return 0;
}
