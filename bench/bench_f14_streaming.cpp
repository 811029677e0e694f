// F14 — Distributed streaming under increasing input rate (DESIGN.md,
// src/dstream), SProBench-shaped: one windowed-aggregation job is driven at
// a ramp of input rates against an operator whose per-event cost makes it
// the bottleneck. Reported per rate: sustained throughput (events the
// pipeline actually absorbed per simulated second), per-window commit
// latency percentiles (committed_at − window end), and the credit-stall /
// source-pause counters whose first non-zero row is the backpressure onset.
// Expected shape: below saturation the sustained throughput tracks the
// input rate and latency stays near the epoch cadence; past onset the
// credit-paced push channels pause the sources, throughput plateaus at the
// operator's service rate, and latency grows with the stretched makespan.
// Every run's committed multiset is checked bit-identical against the local
// reference — a benchmark row from a wrong pipeline is worthless.
//
//   $ ./bench_f14_streaming [--json=FILE]

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/stats.hpp"
#include "dstream/runtime.hpp"
#include "dstream/streaming.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hpbdc;

struct RateOut {
  double rate = 0;
  bool ok = false;
  bool identical = false;
  double makespan = 0;
  double sustained = 0;  // events absorbed per simulated second
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  dstream::StreamStats stats;
};

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

RateOut run_rate(const plan::LogicalPlan& plan, double rate) {
  sim::Simulator s;
  sim::NetworkConfig nc;
  nc.nodes = 6;
  nc.topology = sim::Topology::kStar;
  sim::Network net(s, nc);
  sim::Comm comm(s, net);
  sim::Dfs dfs(comm, {});
  dstream::StreamConfig sc;
  sc.event_cost = 1e-3;  // ~1000 ev/s service rate per operator task
  sc.max_buffered_segments = 2;
  dstream::StreamRuntime rt(comm, sc, &dfs);

  dstream::StreamingOptions opts;
  opts.rate = rate;
  opts.window = 0.5;
  const dstream::StreamJobSpec spec = dstream::lower_streaming(plan, opts);

  dist::RuntimeOptions ro;
  ro.transport = dist::TransportKind::kPush;
  ro.flow.segment_bytes = 16 * 4096;
  ro.flow.credits_per_channel = 2;

  RateOut out;
  out.rate = rate;
  dstream::StreamResult result;
  rt.submit(spec, ro, [&](const dstream::StreamResult& r) {
    result = r;
    out.ok = r.ok;
  });
  s.run_until(3600.0);
  out.stats = rt.stats();
  if (!out.ok) return out;
  out.makespan = result.makespan;
  out.sustained =
      static_cast<double>(out.stats.events_emitted) / result.makespan;
  std::vector<double> lat;
  lat.reserve(result.committed.size());
  for (const dstream::CommittedRow& c : result.committed) {
    lat.push_back((c.committed_at - c.row.time) * 1e3);
  }
  out.p50_ms = percentile(lat, 0.50);
  out.p95_ms = percentile(lat, 0.95);
  out.p99_ms = percentile(lat, 0.99);
  out.identical =
      dstream::canonical_stream_bytes(result.rows()) ==
      dstream::canonical_stream_bytes(dstream::reference_streaming(spec));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("f14_streaming", argc, argv);

  std::cout << "F14: streaming throughput vs input rate, 6-node star, "
               "windowed aggregation, push transport\n"
               "(operator service rate ~1000 ev/s per task; 0.5s windows; "
               "4s of input per rate)\n\n";

  std::vector<RateOut> outs;
  double onset_rate = 0;
  for (const double rate : {250.0, 500.0, 1000.0, 2000.0, 4000.0}) {
    // Fixed stream DURATION (rows scale with rate): the SProBench shape —
    // the same 4 seconds of event time arrive faster and faster.
    plan::LogicalPlan plan;
    plan.nodes.resize(2);
    plan.nodes[0].op = plan::OpKind::kSource;
    plan.nodes[0].salt = 7;
    plan.nodes[0].rows = static_cast<std::uint64_t>(4.0 * rate);
    plan.nodes[1].op = plan::OpKind::kReduceByKey;
    plan.nodes[1].left = 0;
    plan.sinks = {1};
    RateOut o = run_rate(plan, rate);
    if (onset_rate == 0 && o.stats.backpressure_pauses > 0) onset_rate = o.rate;
    outs.push_back(std::move(o));
  }

  Table t({"input ev/s", "sustained ev/s", "makespan (s)", "p50 (ms)",
           "p95 (ms)", "p99 (ms)", "credit stalls", "src pauses", "identical"});
  for (const RateOut& o : outs) {
    t.row({Table::num(o.rate, 0), Table::num(o.sustained, 0),
           Table::num(o.makespan, 2), Table::num(o.p50_ms, 0),
           Table::num(o.p95_ms, 0), Table::num(o.p99_ms, 0),
           std::to_string(o.stats.credit_stalls),
           std::to_string(o.stats.backpressure_pauses),
           o.ok ? (o.identical ? "yes" : "NO") : "TIMEOUT"});
  }
  t.print(std::cout);
  if (onset_rate > 0) {
    std::cout << "backpressure onset: first source pauses at "
              << Table::num(onset_rate, 0) << " ev/s input\n";
  } else {
    std::cout << "backpressure onset: not reached in this ramp\n";
  }

  for (const RateOut& o : outs) {
    const bench::JsonWriter::Labels labels = {
        {"rate", Table::num(o.rate, 0)}, {"transport", "push"}};
    json.metric("sustained_throughput_ev_s", o.sustained, labels);
    json.metric("window_latency_p50_ms", o.p50_ms, labels);
    json.metric("window_latency_p95_ms", o.p95_ms, labels);
    json.metric("window_latency_p99_ms", o.p99_ms, labels);
    json.metric("credit_stalls", static_cast<double>(o.stats.credit_stalls), labels);
    json.metric("backpressure_pauses",
                static_cast<double>(o.stats.backpressure_pauses), labels);
    json.metric("output_identical", o.identical ? 1.0 : 0.0, labels);
  }
  json.metric("backpressure_onset_rate_ev_s", onset_rate);
  return 0;
}
