// Distributed dataflow demo: the WordCount and TeraSort plans lowered to
// stage DAGs (plan::lower_dist) and scheduled across a simulated 16-node
// fat-tree cluster — DFS-backed input with locality-aware placement, shuffle
// over the simulated network, then the same WordCount again with a mid-job
// node kill recovered through lineage recomputation. Every result is checked
// against the plan on the shared-memory engine (lower_local), and any failed
// check exits 1. The clean run's counters are exported into an obs metrics
// registry afterwards; `--trace=FILE` writes a Chrome trace of the failure
// run in simulated time.
//
//   $ ./dist_demo [--trace=FILE]

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>

#include "dist/runtime.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/jobs.hpp"
#include "plan/lower.hpp"

namespace {

using namespace hpbdc;
using namespace hpbdc::dist;

constexpr std::uint64_t MiB = 1ULL << 20;

struct Cluster {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  DistRuntime rt;

  explicit Cluster(DistConfig dc = make_config())
      : net(sim, fat_tree_16()), comm(sim, net), dfs(comm, {}),
        rt(comm, dc, &dfs) {}

  static sim::NetworkConfig fat_tree_16() {
    sim::NetworkConfig nc;
    nc.nodes = 16;
    nc.topology = sim::Topology::kFatTree;
    nc.hosts_per_rack = 4;
    nc.racks_per_pod = 2;
    return nc;
  }

  static DistConfig make_config() {
    DistConfig dc;
    dc.seed = 7;
    dc.slots_per_node = 2;
    dc.heartbeat_interval = 0.1;
    dc.heartbeat_timeout = 0.5;
    return dc;
  }

  JobResult run(JobSpec job) {
    JobResult out;
    rt.submit(std::move(job), [&](const JobResult& r) { out = r; });
    sim.run();
    return out;
  }
};

/// Rows sorted into one canonical order, so runs compare byte for byte.
Bytes canonical(std::vector<plan::Row> rows) {
  std::sort(rows.begin(), rows.end());
  return to_bytes(rows);
}

Bytes local_bytes(const plan::LogicalPlan& p) {
  ThreadPool pool{2};
  dataflow::Context ctx{pool};
  return canonical(plan::lower_local(p, ctx));
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }

  bool all_ok = true;
  auto check = [&all_ok](bool ok) {
    all_ok = all_ok && ok;
    return ok ? "yes" : "NO";
  };

  // ---- WordCount over a DFS-resident corpus ------------------------------
  const plan::LogicalPlan wc_plan = plan::wordcount_plan(4000);
  const std::size_t ntasks = 16;
  // Source task t scans block t of /corpus: 64 MiB simulated per task.
  auto wc_job = [&] {
    JobSpec job = plan::lower_dist(wc_plan, ntasks);
    job.stages[0].input_file = "/corpus";
    job.stages[0].input_bytes_per_task = 64 * MiB;
    return job;
  };

  Cluster wc;

  // Stage the corpus into the DFS first so source tasks can chase block
  // replicas.
  bool staged = false;
  wc.dfs.write(0, "/corpus", ntasks * 64 * MiB, [&](bool ok) { staged = ok; });
  wc.sim.run();
  check(staged);
  std::cout << "staged /corpus into the DFS: " << (staged ? "ok" : "FAILED")
            << " (" << ntasks << " blocks x 64 MiB, 3-way replicated)\n";

  const auto wc_res = wc.run(wc_job());
  const auto wc_rows = plan::rows_from_result(wc_res);
  std::cout << "wordcount: ok=" << wc_res.ok << " makespan=" << wc_res.makespan
            << "s keys=" << wc_rows.size() << " matches lower_local: "
            << check(wc_res.ok && canonical(wc_rows) == local_bytes(wc_plan))
            << "\n";
  obs::MetricsRegistry reg;
  wc.rt.export_metrics(reg);
  wc.net.export_metrics(reg);
  std::cout << "  locality: " << reg.gauge("dist.locality_hits").value()
            << " source tasks on a block replica, "
            << reg.gauge("dist.locality_misses").value() << " misses\n";
  std::cout << "  shuffle:  " << reg.gauge("dist.shuffle_bytes").value()
            << " simulated bytes, net sent "
            << reg.gauge("net.msgs_sent").value() << " msgs\n\n";

  // ---- TeraSort ----------------------------------------------------------
  Cluster ts;
  const plan::LogicalPlan ts_plan = plan::terasort_plan(20000);
  const auto ts_res = ts.run(plan::lower_dist(ts_plan, 8));
  const auto ts_rows = plan::rows_from_result(ts_res);
  std::cout << "terasort: ok=" << ts_res.ok << " makespan=" << ts_res.makespan
            << "s records=" << ts_rows.size() << " matches lower_local: "
            << check(ts_res.ok && canonical(ts_rows) == local_bytes(ts_plan))
            << "\n\n";

  // ---- the same WordCount with a mid-job node kill -----------------------
  Cluster fail;
  obs::TraceSession trace;
  if (!trace_path.empty()) fail.rt.bind_trace(trace);
  bool restaged = false;
  fail.dfs.write(0, "/corpus", ntasks * 64 * MiB, [&](bool ok) { restaged = ok; });
  fail.sim.run();
  check(restaged);
  // Kill both non-writer replicas of block 3 partway through the source
  // stage: whichever of them took task 3 dies with the work in flight, and
  // the recompute has to fall back to the writer's copy of the block.
  const auto locs = fail.dfs.block_locations("/corpus", 3);
  const sim::SimTime kill_t = fail.sim.now() + wc_res.makespan * 0.4;
  fail.rt.kill_node_at(locs[1], kill_t);
  fail.rt.kill_node_at(locs[2], kill_t);
  const auto fr = fail.run(wc_job());
  const auto& fs = fail.rt.stats();
  std::cout << "wordcount with nodes " << locs[1] << "," << locs[2]
            << " killed mid-scan: ok=" << fr.ok << " makespan=" << fr.makespan
            << "s (clean was " << wc_res.makespan << "s)\n";
  std::cout << "  declared dead: " << fs.executors_declared_dead
            << ", recomputed: " << fs.tasks_recomputed
            << ", retries: " << fs.task_retries
            << ", fetch failures: " << fs.fetch_failures << "\n";
  std::cout << "  result identical to the clean run: "
            << check(fr.ok && plan::rows_from_result(fr) == wc_rows)
            << "\n";

  if (!trace_path.empty()) {
    if (trace.write_chrome_json_file(trace_path)) {
      std::cout << "\nwrote Chrome trace of the failure run to " << trace_path
                << "\n";
    } else {
      std::cerr << "\nfailed to write trace to " << trace_path << "\n";
      return 1;
    }
  }
  return all_ok ? 0 : 1;
}
