// Multi-tenant job service walkthrough: the serve layer (src/serve) front-
// ending a JobSlotPool cluster on the simulated clock. Four acts:
//
//   1. three tenants submit distinct analytics plans concurrently — DRF
//      shares the four job slots and every submission completes;
//   2. tenant 0 resubmits its plan — answered from the fingerprint-keyed
//      result cache in ~1ms of simulated time, no executor consumed;
//   3. tenant 9 floods 30 submissions in one instant — the token bucket
//      and bounded queues shed the excess with typed reject reasons while
//      the other tenants keep completing;
//   4. a cluster node dies mid-run and recovers — the dist runtime retries
//      the affected tasks and every admitted job still gets exactly one
//      terminal callback.
//
// Ends with the serve.* metrics registry and the exactly-once ledger, and
// exits 1 when the ledger does not balance. Everything is deterministic:
// rerunning prints byte-identical output.
//
//   $ ./job_service_demo

#include <iostream>
#include <string>

#include "chaos/plan_gen.hpp"
#include "common/stats.hpp"
#include "dist/slots.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "sim/comm.hpp"
#include "sim/dfs.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hpbdc;
using serve::Completion;
using serve::Status;

std::string describe(const Completion& c) {
  std::string out = "t=" + Table::num(c.finish_time, 3) + "s tenant " +
                    std::to_string(c.tenant) + " job " +
                    std::to_string(c.job_id);
  switch (c.status) {
    case Status::kCompleted:
      out += c.cache_hit ? " CACHE HIT" : " completed";
      out += " (" + std::to_string(c.rows.size()) + " rows, latency " +
             Table::num(c.latency(), 3) + "s";
      if (c.dist_submits > 1) {
        out += ", " + std::to_string(c.dist_submits) + " executor runs";
      }
      out += ")";
      break;
    case Status::kRejected:
      out += std::string(" SHED [") + serve::reject_name(c.reject) + "]";
      break;
    case Status::kFailed:
      out += " FAILED";
      break;
  }
  return out;
}

}  // namespace

int main() {
  sim::Simulator sim;
  sim::NetworkConfig nc;
  nc.nodes = 6;
  nc.topology = sim::Topology::kStar;
  sim::Network net(sim, nc);
  sim::Comm comm(sim, net);
  sim::Dfs dfs(comm, sim::DfsConfig{});

  dist::DistConfig dc;
  dc.driver = 0;
  dc.slots_per_node = 2;
  dc.heartbeat_interval = 0.1;
  dc.heartbeat_timeout = 0.5;
  dc.heartbeat_jitter = 0.01;
  dc.attempt_timeout = 10.0;
  dc.seed = 7;
  dist::JobSlotPool pool(comm, dc, 4, &dfs);

  serve::ServeConfig sc;
  sc.ntasks = 3;
  sc.bucket_rate = 2.0;
  sc.bucket_burst = 4.0;
  sc.tenant_queue_cap = 8;
  serve::JobService svc(pool, sc);

  obs::MetricsRegistry reg;
  svc.bind_metrics(reg);  // latency histograms fill live

  const auto submit = [&](serve::TenantId tenant, std::uint64_t plan_seed,
                          int priority = 0) {
    serve::SubmitRequest req;
    req.tenant = tenant;
    req.plan = chaos::make_plan(plan_seed, 4, 96);
    req.priority = priority;
    svc.submit(std::move(req), [](const Completion& c) {
      std::cout << "  " << describe(c) << "\n";
    });
  };

  std::cout << "Act 1: three tenants, four job slots, concurrent plans\n";
  sim.schedule_at(0.0, [&] { submit(0, 11); });
  sim.schedule_at(0.0, [&] { submit(1, 22); });
  sim.schedule_at(0.01, [&] { submit(2, 33, /*priority=*/1); });
  sim.schedule_at(0.02, [&] { submit(1, 44); });
  sim.run();

  std::cout << "\nAct 2: tenant 0 resubmits plan 11 -> result cache\n";
  sim.schedule_at(sim.now() + 1.0, [&] { submit(0, 11); });
  sim.run();

  std::cout << "\nAct 3: tenant 9 floods 12 submissions in one instant\n";
  sim.schedule_at(sim.now() + 1.0, [&] {
    for (int i = 0; i < 12; ++i) submit(9, 100 + i);
  });
  sim.run();
  std::cout << "  (the token bucket admits its depth of " << sc.bucket_burst
            << "; the rest shed synchronously, other tenants unaffected)\n";

  std::cout << "\nAct 4: node 3 dies mid-run, recovers 1.5s later\n";
  const double t4 = sim.now() + 1.0;
  const auto repair = [&pool] {
    const dist::DistStats s = pool.aggregate_stats();
    return s.task_retries + s.tasks_recomputed;
  };
  const std::uint64_t repairs_before = repair();
  pool.kill_node_at(3, t4 + 0.005);
  pool.recover_node_at(3, t4 + 1.505);
  sim.schedule_at(t4, [&] {
    submit(4, 55);
    submit(5, 66);
  });
  sim.run();
  std::cout << "  (dist runtime relaunched " << repair() - repairs_before
            << " task attempts around the death; completions above are still "
               "exactly-once)\n";

  std::cout << "\nserve.* metrics after the full day:\n";
  svc.export_metrics(reg);
  pool.export_metrics(reg);
  reg.print(std::cout);

  const serve::ServeStats& st = svc.stats();
  const bool balanced = st.completed + st.shed == st.submitted;
  std::cout << "\nexactly-once ledger: submitted=" << st.submitted
            << " completed=" << st.completed << " shed=" << st.shed
            << " failed=" << st.failed << " (completed + shed == submitted: "
            << (balanced ? "yes" : "NO") << ")\n";
  return balanced ? 0 : 1;
}
