// F10 — Distributed dataflow runtime (DESIGN.md extension): makespan of a
// synthetic shuffle-heavy DAG on the simulated cluster, swept over (1) node
// count, (2) node failure rate (a seeded sim::FaultPlan of kill/recover
// pairs) with and without stage checkpointing, and (3) checkpoint interval at
// a fixed failure rate. Expected shape: near-linear makespan reduction with
// nodes until shuffle fan-in dominates; failures inflate makespan via lineage
// recomputation, and checkpoints cap that inflation at the cost of extra DFS
// writes.
//
// `--trace=FILE` additionally records one failure-injected run as a Chrome
// trace (simulated time) loadable in chrome://tracing or ui.perfetto.dev.
// `--json=FILE` also writes the headline numbers (bench_json.hpp): makespan
// and speedup per node count, makespan and recomputes per MTBF and
// checkpoint setting.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/stats.hpp"
#include "dist/jobs.hpp"
#include "dist/runtime.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"

namespace {

using namespace hpbdc;
using namespace hpbdc::dist;

constexpr std::uint64_t MiB = 1ULL << 20;

struct RunOut {
  JobResult result;
  DistStats stats;
};

RunOut run_job(std::size_t nodes, double mtbf, std::size_t checkpoint_every,
               std::size_t ntasks, obs::TraceSession* trace = nullptr) {
  sim::Simulator s;
  sim::NetworkConfig nc;
  nc.nodes = nodes;
  nc.topology = sim::Topology::kStar;
  sim::Network net(s, nc);
  sim::Comm comm(s, net);
  sim::Dfs dfs(comm, {});
  DistConfig dc;
  dc.seed = 42;
  dc.slots_per_node = 2;
  dc.heartbeat_interval = 0.1;
  dc.heartbeat_timeout = 0.5;
  dc.attempt_timeout = 8.0;
  DistRuntime rt(comm, dc, &dfs);
  if (trace != nullptr) rt.bind_trace(*trace);

  // Random failures (mtbf 0 = none): every node but the driver dies after
  // exponential gaps of mean `mtbf`, drawn in kill order from one stream
  // seeded by the master seed, until the horizon. Outages must outlast the
  // heartbeat timeout to be detectable; attempts stuck on silently-restarted
  // executors are swept well before that.
  constexpr double kDowntime = 2.0;
  constexpr double kHorizon = 120.0;
  Rng rng(mix_seed(dc.seed, 2));
  std::vector<double> next_kill(nodes, kHorizon);
  for (std::size_t n = 0; n < nodes && mtbf > 0; ++n) {
    if (n != dc.driver) next_kill[n] = rng.next_exponential(1.0 / mtbf);
  }
  sim::FaultPlan faults;
  for (auto t = std::min_element(next_kill.begin(), next_kill.end()); *t < kHorizon;
       t = std::min_element(next_kill.begin(), next_kill.end())) {
    const auto n = static_cast<std::size_t>(t - next_kill.begin());
    faults.kill(*t, n).recover(*t + kDowntime, n);
    *t += kDowntime + rng.next_exponential(1.0 / mtbf);
  }
  sim::FaultTargets targets;
  targets.kill_node = [&rt, &s](std::size_t n) { rt.kill_node_at(n, s.now()); };
  targets.recover_node = [&rt, &s](std::size_t n) { rt.recover_node_at(n, s.now()); };
  sim::FaultInjector injector(s, targets);
  injector.arm(faults);
  JobResult out;
  rt.submit(synthetic_job(3, ntasks, MiB, checkpoint_every),
            [&](const JobResult& r) { out = r; });
  s.run();
  return RunOut{out, rt.stats()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("f10_dist_runtime", argc, argv);
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }

  std::cout << "F10: distributed dataflow runtime, 3-stage shuffle DAG, "
               "1 MiB blocks, seed 42\n\n";

  std::cout << "Table 1: makespan vs cluster size (64 tasks/stage, no failures)\n";
  Table t1({"nodes", "makespan (s)", "speedup", "shuffle GB"});
  double base = 0;
  for (std::size_t nodes : {4, 8, 16, 32}) {
    const auto r = run_job(nodes, 0.0, 0, 64);
    if (base == 0) base = r.result.makespan;
    t1.row({std::to_string(nodes), Table::num(r.result.makespan, 2),
            Table::num(base / r.result.makespan, 2),
            Table::num(static_cast<double>(r.stats.shuffle_bytes) / 1e9, 2)});
    json.metric("makespan_s", r.result.makespan, {{"nodes", std::to_string(nodes)}});
    json.metric("speedup", base / r.result.makespan,
                {{"nodes", std::to_string(nodes)}});
  }
  t1.print(std::cout);

  auto record_failures = [&json](const std::string& mtbf, const std::string& ckpt,
                                 const RunOut& r) {
    const bench::JsonWriter::Labels labels = {{"mtbf_s", mtbf}, {"ckpt_every", ckpt}};
    json.metric("makespan_s", r.result.makespan, labels);
    json.metric("recomputes", static_cast<double>(r.stats.tasks_recomputed), labels);
  };
  std::cout << "\nTable 2: failure rate sweep (16 nodes, 32 tasks/stage; "
               "ckpt = checkpoint every stage)\n";
  Table t2({"node MTBF (s)", "deaths", "makespan (s)", "recomputes", "retries",
            "ckpt makespan (s)", "ckpt recomputes"});
  for (double mtbf : {0.0, 60.0, 30.0, 15.0}) {
    const auto plain = run_job(16, mtbf, 0, 32);
    const auto ckpt = run_job(16, mtbf, 1, 32);
    const std::string mtbf_label = mtbf == 0.0 ? "inf" : Table::num(mtbf, 0);
    t2.row({mtbf_label,
            std::to_string(plain.stats.executors_declared_dead),
            Table::num(plain.result.makespan, 2),
            std::to_string(plain.stats.tasks_recomputed),
            std::to_string(plain.stats.task_retries),
            Table::num(ckpt.result.makespan, 2),
            std::to_string(ckpt.stats.tasks_recomputed)});
    record_failures(mtbf_label, "off", plain);
    record_failures(mtbf_label, "1", ckpt);
  }
  t2.print(std::cout);

  std::cout << "\nTable 3: checkpoint interval sweep (16 nodes, 32 tasks/stage, "
               "MTBF 20 s)\n";
  Table t3({"ckpt every k stages", "makespan (s)", "recomputes",
            "ckpts written", "ckpt restores"});
  for (std::size_t k : {0, 1, 2, 4}) {
    const auto r = run_job(16, 20.0, k, 32);
    const std::string ckpt_label = k == 0 ? "off" : std::to_string(k);
    t3.row({ckpt_label, Table::num(r.result.makespan, 2),
            std::to_string(r.stats.tasks_recomputed),
            std::to_string(r.stats.checkpoints_written),
            std::to_string(r.stats.checkpoint_restores)});
    record_failures("20", ckpt_label, r);
  }
  t3.print(std::cout);

  std::cout << "\nexpected shape: table 1 speedup flattens once per-node slots "
               "outnumber tasks; table 2 recomputes (and makespan) climb as "
               "MTBF shrinks while the checkpointed column climbs slower; "
               "table 3 shows a sweet spot — frequent checkpoints cut "
               "recomputes but pay DFS write time.\n";

  if (!trace_path.empty()) {
    obs::TraceSession session;
    run_job(16, 20.0, 1, 32, &session);
    if (session.write_chrome_json_file(trace_path)) {
      std::cout << "\nwrote Chrome trace (simulated time) to " << trace_path
                << "\n";
    } else {
      std::cerr << "\nfailed to write trace to " << trace_path << "\n";
      return 1;
    }
  }
  return 0;
}
