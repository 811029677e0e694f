// F13 — Push-based flow shuffle vs pull-based fetch (DESIGN.md, src/dist/flow):
// the same broadcast-join and all-to-all jobs run under both ShuffleTransport
// implementations on one simulated cluster. Reported per transport: total
// makespan, the shuffle-bound join stage's span (JobResult::stages), and
// bytes on the wire (sim::NetworkStats). Expected shape: push overlaps
// transfer with upstream compute and moves the replicated build side as ONE
// multicast stream per producer instead of a copy per child, so the join
// stage shrinks (>= 1.3x on the broadcast join) and wire bytes drop
// strictly; the all-to-all chain shows the overlap benefit alone.
//
//   $ ./bench_f13_flow_shuffle [--json=FILE]

#include <cstdint>
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "common/stats.hpp"
#include "dist/jobs.hpp"
#include "dist/runtime.hpp"

namespace {

using namespace hpbdc;
using namespace hpbdc::dist;

constexpr std::uint64_t MiB = 1ULL << 20;

struct RunOut {
  JobResult result;
  DistStats stats;
  flow::FlowStats flow;
  std::uint64_t wire_bytes = 0;
  double stage_span = 0;  // span of `stage_name`
};

RunOut run_job(const JobSpec& job, TransportKind tk, const std::string& stage_name,
               std::size_t nodes) {
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
  DistRuntime rt(comm, dc, &dfs);
  RuntimeOptions ro;
  ro.transport = tk;
  RunOut out;
  rt.submit(job, ro, [&](const JobResult& r) { out.result = r; });
  s.run();
  out.stats = rt.stats();
  out.flow = rt.flow_stats();
  out.wire_bytes = net.stats().bytes;
  for (const auto& sp : out.result.stages) {
    if (sp.name == stage_name && sp.end >= 0) out.stage_span = sp.end - sp.start;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("f13_flow_shuffle", argc, argv);

  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kTasks = 12;

  std::cout << "F13: push flow shuffle vs pull fetch, " << kNodes
            << "-node star, seed 42\n\n";

  // ---- broadcast join: multicast build side + transfer/compute overlap ----
  const JobSpec bj =
      broadcast_join_job(2048, 1 << 16, kTasks, 42, 8 * MiB, 512 * 1024);
  const auto bj_pull = run_job(bj, TransportKind::kPull, "bj-join", kNodes);
  const auto bj_push = run_job(bj, TransportKind::kPush, "bj-join", kNodes);

  std::cout << "Table 1: broadcast join (8 MiB replicated build blocks, "
            << kTasks << " tasks)\n";
  Table t1({"transport", "makespan (s)", "join stage (s)", "wire MB",
            "mcast segs", "overlap wait (s)"});
  for (const auto* r : {&bj_pull, &bj_push}) {
    const bool push = r == &bj_push;
    t1.row({push ? "push" : "pull", Table::num(r->result.makespan, 3),
            Table::num(r->stage_span, 3),
            Table::num(static_cast<double>(r->wire_bytes) / 1e6, 1),
            std::to_string(r->flow.multicast_segments),
            Table::num(r->flow.overlap_wait_s, 3)});
  }
  t1.print(std::cout);
  const double join_speedup = bj_pull.stage_span / bj_push.stage_span;
  const double wire_ratio = static_cast<double>(bj_pull.wire_bytes) /
                            static_cast<double>(bj_push.wire_bytes);
  std::cout << "join-stage speedup push/pull: " << Table::num(join_speedup, 2)
            << "x, wire bytes pull/push: " << Table::num(wire_ratio, 2)
            << "x\n\n";

  // ---- all-to-all chain: overlap only, no multicast ----
  const JobSpec chain = synthetic_job(4, kTasks, 4 * MiB);
  const auto ch_pull = run_job(chain, TransportKind::kPull, "s3", kNodes);
  const auto ch_push = run_job(chain, TransportKind::kPush, "s3", kNodes);

  std::cout << "Table 2: 4-stage all-to-all chain (4 MiB blocks)\n";
  Table t2({"transport", "makespan (s)", "s3 stage (s)", "wire MB",
            "credit stalls"});
  for (const auto* r : {&ch_pull, &ch_push}) {
    const bool push = r == &ch_push;
    t2.row({push ? "push" : "pull", Table::num(r->result.makespan, 3),
            Table::num(r->stage_span, 3),
            Table::num(static_cast<double>(r->wire_bytes) / 1e6, 1),
            std::to_string(r->flow.credit_stalls)});
  }
  t2.print(std::cout);
  std::cout << "chain makespan speedup push/pull: "
            << Table::num(ch_pull.result.makespan / ch_push.result.makespan, 2)
            << "x\n";

  for (const auto& [r, tp] : {std::pair{&bj_pull, "pull"}, {&bj_push, "push"}}) {
    json.metric("makespan_s", r->result.makespan,
                {{"workload", "broadcast_join"}, {"transport", tp}});
    json.metric("shuffle_stage_s", r->stage_span,
                {{"workload", "broadcast_join"}, {"transport", tp}});
    json.metric("wire_bytes", static_cast<double>(r->wire_bytes),
                {{"workload", "broadcast_join"}, {"transport", tp}});
  }
  for (const auto& [r, tp] : {std::pair{&ch_pull, "pull"}, {&ch_push, "push"}}) {
    json.metric("makespan_s", r->result.makespan,
                {{"workload", "all_to_all"}, {"transport", tp}});
    json.metric("wire_bytes", static_cast<double>(r->wire_bytes),
                {{"workload", "all_to_all"}, {"transport", tp}});
    json.metric("credit_stalls", static_cast<double>(r->flow.credit_stalls),
                {{"workload", "all_to_all"}, {"transport", tp}});
  }
  json.metric("join_stage_speedup", join_speedup,
              {{"workload", "broadcast_join"}});
  json.metric("wire_bytes_ratio", wire_ratio, {{"workload", "broadcast_join"}});
  return 0;
}
