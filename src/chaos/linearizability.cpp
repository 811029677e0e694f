#include "chaos/linearizability.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "chaos/harness.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "kvstore/raft.hpp"
#include "sim/comm.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace hpbdc::chaos {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct RegisterOp {
  bool write = false;
  std::uint64_t value = 0;
  double invoke = 0;
  double respond = kInf;  // infinity for incomplete (unacknowledged) writes
};

/// Wing–Gong search over one key's history. An op is eligible next iff no
/// other unlinearized op responded before it was invoked; the search
/// succeeds once every COMPLETE op is linearized (incomplete writes may be
/// dropped, i.e. left unlinearized forever).
class KeyChecker {
 public:
  explicit KeyChecker(std::vector<RegisterOp> ops) : ops_(std::move(ops)) {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].respond < kInf) complete_mask_ |= 1ULL << i;
    }
  }

  bool linearizable() { return search(0, 0); }

 private:
  bool search(std::uint64_t mask, std::uint64_t reg) {
    if ((mask & complete_mask_) == complete_mask_) return true;
    if (!visited_.insert({mask, reg}).second) return false;
    // Real-time frontier: nothing may be linearized after an op that has
    // already responded among the remaining ones.
    double frontier = kInf;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if ((mask >> i) & 1) continue;
      frontier = std::min(frontier, ops_[i].respond);
    }
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if ((mask >> i) & 1) continue;
      if (ops_[i].invoke > frontier) continue;  // someone responded earlier
      const RegisterOp& op = ops_[i];
      if (op.write) {
        if (search(mask | (1ULL << i), op.value)) return true;
      } else if (op.value == reg) {
        if (search(mask | (1ULL << i), reg)) return true;
      }
    }
    return false;
  }

  std::vector<RegisterOp> ops_;
  std::uint64_t complete_mask_ = 0;
  std::unordered_set<std::pair<std::uint64_t, std::uint64_t>,
                     Hasher<std::pair<std::uint64_t, std::uint64_t>>>
      visited_;
};

}  // namespace

bool linearizable(const std::vector<KvOp>& history, std::string* why) {
  std::map<std::uint64_t, std::vector<RegisterOp>> per_key;
  for (const KvOp& op : history) {
    if (op.kind == KvOpKind::kRead && !op.complete) continue;  // no effect
    RegisterOp r;
    r.write = op.kind == KvOpKind::kWrite;
    r.value = op.value;
    r.invoke = op.invoke;
    r.respond = op.complete ? op.respond : kInf;
    per_key[op.key].push_back(r);
  }
  for (auto& [key, ops] : per_key) {
    if (ops.size() > 64) {
      throw std::invalid_argument("linearizable: >64 ops on one key");
    }
    if (!KeyChecker(std::move(ops)).linearizable()) {
      if (why != nullptr) {
        *why = "history of key " + std::to_string(key) + " is not linearizable";
      }
      return false;
    }
  }
  return true;
}

namespace {

constexpr std::size_t kOps = 24;     // client operations to issue
constexpr std::uint64_t kKeys = 4;   // key domain
constexpr double kOpGap = 0.35;      // mean gap between client ops (exponential)

/// "W|<key>|<value>" / "R|<key>|<opid>" command codecs.
std::string write_cmd(std::uint64_t key, std::uint64_t value) {
  return "W|" + std::to_string(key) + "|" + std::to_string(value);
}
std::string read_cmd(std::uint64_t key, std::size_t opid) {
  return "R|" + std::to_string(key) + "|" + std::to_string(opid);
}
bool parse_write(const std::string& cmd, std::uint64_t* key, std::uint64_t* value) {
  if (cmd.size() < 4 || cmd[0] != 'W' || cmd[1] != '|') return false;
  const std::size_t bar = cmd.find('|', 2);
  if (bar == std::string::npos) return false;
  *key = std::stoull(cmd.substr(2, bar - 2));
  *value = std::stoull(cmd.substr(bar + 1));
  return true;
}

}  // namespace

RaftChaosOutcome run_raft_chaos(const RaftChaosOptions& opt) {
  RaftChaosOutcome out;

  sim::Simulator sim;
  sim::NetworkConfig nc;
  nc.nodes = opt.nodes;
  nc.topology = sim::Topology::kFullMesh;
  nc.loss_seed = mix_seed(opt.seed, 1);
  sim::Network net(sim, nc);
  sim::Comm comm(sim, net);

  kvstore::RaftConfig rc;
  rc.seed = mix_seed(opt.seed, 2);
  kvstore::RaftCluster cluster(comm, rc);
  cluster.start();

  FaultGenOptions fo;
  fo.nodes = opt.nodes;
  fo.protect = opt.nodes;  // out of range: every node is fair game
  fo.horizon = opt.horizon * 0.6;
  fo.target_leader = true;
  fo.max_stragglers = 0;  // Raft has no compute-speed knob
  fo.max_dfs_losses = 0;
  const sim::FaultPlan faults = make_fault_plan(mix_seed(opt.seed, 3), fo);

  sim::FaultTargets targets;
  targets.kill_node = [&cluster](std::size_t n) { cluster.fail_node(n); };
  targets.recover_node = [&cluster](std::size_t n) { cluster.recover_node(n); };
  targets.pick_leader = [&cluster] { return cluster.leader(); };
  targets.net = &net;
  sim::FaultInjector injector(sim, targets, mix_seed(opt.seed, 4));
  injector.arm(faults);

  struct Rec {
    KvOp op;
    std::string marker;  // reads only: the unique log entry proposed
    bool committed = false;
  };
  std::vector<Rec> recs(kOps);

  Rng rng(mix_seed(opt.seed, 5));
  double t = 0.6;  // let the first election settle
  for (std::size_t i = 0; i < kOps; ++i) {
    Rec& rec = recs[i];
    rec.op.key = rng.next_below(kKeys);
    const bool is_write = rng.next_bool(0.5);
    if (is_write) {
      rec.op.kind = KvOpKind::kWrite;
      rec.op.value = i + 1;  // unique, nonzero
    } else {
      rec.op.kind = KvOpKind::kRead;
      rec.marker = read_cmd(rec.op.key, i);
    }
    sim.schedule_at(t, [&sim, &cluster, &rec] {
      rec.op.invoke = sim.now();
      const std::string cmd = rec.op.kind == KvOpKind::kWrite
                                  ? write_cmd(rec.op.key, rec.op.value)
                                  : rec.marker;
      cluster.propose(cmd, [&sim, &rec](bool ok, std::uint64_t) {
        if (!ok) return;  // conservatively incomplete (maybe applied)
        rec.committed = true;
        rec.op.respond = sim.now();
        rec.op.complete = true;
      });
    });
    t += rng.next_exponential(1.0 / kOpGap);
  }

  sim.run_until(opt.horizon);
  cluster.stop();
  sim.run();  // drain in-flight messages and callbacks
  out.fired = injector.fired();

  // Invariant: all nodes agree on the committed prefix. Checking everyone
  // against the longest prefix catches any pairwise disagreement.
  std::vector<std::string> canon;
  for (std::size_t n = 0; n < opt.nodes; ++n) {
    auto cmds = cluster.committed_commands(n);
    if (cmds.size() > canon.size()) canon = std::move(cmds);
  }
  for (std::size_t n = 0; n < opt.nodes; ++n) {
    const auto cmds = cluster.committed_commands(n);
    if (!std::equal(cmds.begin(), cmds.end(), canon.begin())) {
      out.fail("agreement: node " + std::to_string(n) +
           " committed a prefix diverging from the cluster's");
    }
  }

  // Derive each committed read's value from its position in the committed
  // log: the last write to its key among the entries before the marker.
  for (Rec& rec : recs) {
    if (rec.op.kind != KvOpKind::kRead || !rec.committed) continue;
    const auto it = std::find(canon.begin(), canon.end(), rec.marker);
    if (it == canon.end()) {
      out.fail("durability: committed read marker missing from the final log");
      rec.op.complete = false;
      continue;
    }
    std::uint64_t value = 0;
    for (auto p = canon.begin(); p != it; ++p) {
      std::uint64_t k = 0, v = 0;
      if (parse_write(*p, &k, &v) && k == rec.op.key) value = v;
    }
    rec.op.value = value;
  }

  out.history.reserve(recs.size());
  for (const Rec& rec : recs) {
    out.history.push_back(rec.op);
    if (rec.op.complete) {
      out.ops_complete++;
    } else {
      out.ops_incomplete++;
    }
  }

  std::string why;
  if (!linearizable(out.history, &why)) out.fail("linearizability: " + why);
  return out;
}

}  // namespace hpbdc::chaos
