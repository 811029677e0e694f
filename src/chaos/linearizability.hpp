#pragma once
// Linearizability checking for the replicated kvstore under chaos.
//
// The checker is the Wing & Gong algorithm on a per-key register history:
// search for a total order of operations consistent with (a) real-time
// precedence (op A before op B whenever A responded before B invoked) and
// (b) register semantics (every read returns the most recently linearized
// write, or 0 if none). Incomplete writes (invoked, never acknowledged) may
// be linearized at any point after invocation or dropped entirely;
// incomplete reads are ignored. The search memoizes (linearized-set mask,
// register value) states, which keeps the bounded histories the harness
// produces cheap to check.
//
// run_raft_chaos drives a RaftCluster with a leader-targeting FaultPlan,
// issues writes and reads as log commands (reads are proposed as unique
// marker entries so a read's value is derived from its committed log
// position — naive leader-local reads are NOT linearizable under leader
// churn and would make the checker fail the protocol unfairly), then checks
// the resulting history plus the committed-prefix agreement invariant.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/kit.hpp"
#include "sim/fault.hpp"

namespace hpbdc::chaos {

enum class KvOpKind : std::uint8_t { kWrite, kRead };

struct KvOp {
  KvOpKind kind = KvOpKind::kWrite;
  std::uint64_t key = 0;
  std::uint64_t value = 0;  // written value, or the value the read returned
  double invoke = 0;        // invocation time (seconds)
  double respond = 0;       // response time; meaningful only when complete
  bool complete = false;
};

/// True iff `history` is linearizable as a set of independent per-key
/// registers initialized to 0. On failure, `why` (if non-null) names the
/// offending key. Throws std::invalid_argument if any single key carries
/// more than 64 operations (the memo mask width).
bool linearizable(const std::vector<KvOp>& history, std::string* why = nullptr);

struct RaftChaosOptions {
  std::uint64_t seed = 1;
  std::size_t nodes = 5;
  double horizon = 40.0;     // simulated seconds to run
};

struct RaftChaosOutcome : Outcome {
  std::size_t ops_complete = 0;
  std::size_t ops_incomplete = 0;
  std::array<std::uint64_t, sim::kFaultKindCount> fired{};
  std::vector<KvOp> history;
};

/// One seeded Raft chaos run: leader kills/recoveries plus message-level
/// faults while clients write and read. Checks (1) committed-prefix
/// agreement across all nodes and (2) linearizability of the client history.
RaftChaosOutcome run_raft_chaos(const RaftChaosOptions& opt);

}  // namespace hpbdc::chaos
