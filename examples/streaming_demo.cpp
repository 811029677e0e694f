// Distributed streaming walkthrough: the dstream runtime (src/dstream) on a
// simulated six-node cluster, narrated like job_service_demo. Four acts:
//
//   1. a windowed aggregation streams fault-free — the coordinator triggers
//      aligned-barrier epochs, the sink commits exactly-once windows, and
//      the committed multiset is bit-identical to the trusted local
//      reference evaluation;
//   2. the input rate ramps against a deliberately slow operator — the
//      credit-paced push channels stall, the stall cascades upstream, and
//      the sources pause: backpressure onset, measured not asserted;
//   3. a node dies mid-window and recovers — heartbeat silence trips the
//      generation fence, tasks restore from the last durable checkpoint,
//      sources rewind to recorded offsets, and the committed output is STILL
//      bit-identical to the fault-free run;
//   4. the same kill with the seeded restore bug armed (sources resume one
//      event past their checkpointed offset) — the differential check
//      catches the silent event loss the oracle exists for.
//
// Ends with the dstream.* metrics registry. Everything runs on the
// deterministic simulator: rerunning prints byte-identical output. Exits 1
// when any check above prints NO.
//
//   $ ./streaming_demo

#include <iostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "dstream/runtime.hpp"
#include "dstream/streaming.hpp"
#include "obs/metrics.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hpbdc;

/// Fresh simulated cluster per run: star topology, DFS for checkpoints.
struct Cluster {
  sim::Simulator sim;
  sim::Network net;
  sim::Comm comm;
  sim::Dfs dfs;
  dstream::StreamRuntime rt;

  explicit Cluster(std::size_t nodes, dstream::StreamConfig sc = {})
      : net(sim, make_net(nodes)), comm(sim, net), dfs(comm, sim::DfsConfig{}),
        rt(comm, sc, &dfs) {}

  static sim::NetworkConfig make_net(std::size_t nodes) {
    sim::NetworkConfig nc;
    nc.nodes = nodes;
    nc.topology = sim::Topology::kStar;
    return nc;
  }
};

plan::LogicalPlan aggregate_plan(std::uint64_t salt, std::uint64_t rows) {
  plan::LogicalPlan p;
  p.nodes.resize(2);
  p.nodes[0].op = plan::OpKind::kSource;
  p.nodes[0].salt = salt;
  p.nodes[0].rows = rows;
  p.nodes[1].op = plan::OpKind::kReduceByKey;
  p.nodes[1].left = 0;
  p.sinks = {1};
  return p;
}

dist::RuntimeOptions push_opts() {
  dist::RuntimeOptions ro;
  ro.transport = dist::TransportKind::kPush;
  return ro;
}

dstream::StreamResult run_job(Cluster& c, const dstream::StreamJobSpec& spec,
                              const dist::RuntimeOptions& ro,
                              dstream::StreamRuntime::EpochFn on_epoch = nullptr) {
  dstream::StreamResult result;
  c.rt.submit(spec, ro, [&](const dstream::StreamResult& r) { result = r; },
              std::move(on_epoch));
  c.sim.run_until(600.0);
  return result;
}

hpbdc::Bytes canonical(const dstream::StreamResult& r) {
  return dstream::canonical_stream_bytes(r.rows());
}

}  // namespace

int main() {
  const plan::LogicalPlan plan = aggregate_plan(/*salt=*/7, /*rows=*/192);
  dstream::StreamingOptions opts;  // rate 64 ev/s, 1 s tumbling windows
  const dstream::StreamJobSpec spec = dstream::lower_streaming(plan, opts);
  const Bytes reference =
      dstream::canonical_stream_bytes(dstream::reference_streaming(spec));
  bool all_ok = true;
  auto check = [&all_ok](bool ok, const char* yes = "yes") {
    all_ok = all_ok && ok;
    return ok ? yes : "NO";
  };

  std::cout << "Act 1: windowed aggregation, aligned-barrier epochs, "
               "exactly-once sink\n";
  Cluster c1(6);
  const auto r1 = run_job(c1, spec, push_opts(),
                          [&](std::uint64_t epoch, double sink_wm) {
                            std::cout << "  t=" << Table::num(c1.sim.now(), 3)
                                      << "s epoch " << epoch
                                      << " complete, sink watermark "
                                      << Table::num(sink_wm, 3) << "s\n";
                          });
  std::cout << "  committed " << r1.committed.size() << " window rows over "
            << c1.rt.stats().epochs_completed << " epochs in "
            << Table::num(r1.makespan, 3) << "s simulated\n"
            << "  bit-identical to the local reference: "
            << check(canonical(r1) == reference) << "\n";
  obs::MetricsRegistry reg;
  c1.rt.export_metrics(reg);

  std::cout << "\nAct 2: rate ramp against a slow operator -> backpressure "
               "onset\n";
  const plan::LogicalPlan long_plan = aggregate_plan(/*salt=*/7, /*rows=*/2000);
  for (const double rate : {250.0, 1000.0, 4000.0}) {
    dstream::StreamConfig sc;
    sc.event_cost = 2e-3;  // the operator is the bottleneck, not the wire
    sc.max_buffered_segments = 2;
    dstream::StreamingOptions ramp = opts;
    ramp.rate = rate;
    Cluster c(6, sc);
    dist::RuntimeOptions ro = push_opts();
    ro.flow.segment_bytes = 16 * 4096;
    ro.flow.credits_per_channel = 2;
    const dstream::StreamJobSpec ramped = dstream::lower_streaming(long_plan, ramp);
    const auto r = run_job(c, ramped, ro);
    const auto& st = c.rt.stats();
    std::cout << "  rate " << Table::num(rate, 0) << " ev/s: credit stalls "
              << st.credit_stalls << ", source pauses "
              << st.backpressure_pauses
              << (st.backpressure_pauses > 0 ? "  <- backpressured" : "")
              << ", output identical: "
              << check(canonical(r) == dstream::canonical_stream_bytes(
                                             dstream::reference_streaming(ramped)))
              << "\n";
  }

  std::cout << "\nAct 3: node 2 dies mid-window, recovers 2.2s later\n";
  Cluster c3(6);
  c3.rt.kill_node_at(2, 1.3);
  c3.rt.recover_node_at(2, 3.5);
  const auto r3 = run_job(c3, spec, push_opts());
  const auto& s3 = c3.rt.stats();
  std::cout << "  recoveries " << s3.recoveries << ", epochs aborted "
            << s3.epochs_aborted << ", checkpoints written "
            << s3.checkpoints_written << ", stale messages fenced "
            << s3.stale_dropped << "\n"
            << "  committed output bit-identical to the fault-free run: "
            << check(canonical(r3) == canonical(r1)) << "\n";

  std::cout << "\nAct 4: same kill, seeded restore bug armed (offset "
               "off-by-one)\n";
  dstream::StreamConfig buggy;
  buggy.buggy_restore = true;
  Cluster c4(6, buggy);
  c4.rt.kill_node_at(2, 1.3);
  c4.rt.recover_node_at(2, 3.5);
  const auto r4 = run_job(c4, spec, push_opts());
  std::cout << "  output differs from the reference: "
            << check(canonical(r4) != reference, "yes (bug caught)")
            << "  (chaos_demo --streaming --bug shrinks this to a one-line "
               "replay)\n";

  std::cout << "\ndstream.* metrics from Act 1:\n";
  reg.print(std::cout);
  return all_ok ? 0 : 1;
}
