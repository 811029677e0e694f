#pragma once
// Push-based shuffle fabric (ROADMAP item 2, DFI-style). Producers stream
// map output to its consumers' nodes as fixed-size SEGMENTS over sim::Comm,
// paced by credit-based flow control; consumers find complete streams
// already resident when they start, or register a reader that wakes as the
// tail segments arrive — that is the compute/transfer overlap the pull
// registry's stage barrier forbids.
//
// Design notes (mirrors Spark's Magnet / push-based shuffle):
//   - The pushed copy is an OPTIMIZATION, never the source of truth. The
//     producer's spilled registry block remains authoritative; any stream
//     that is incomplete when a reader loses patience — loss burst, dead
//     producer, reassigned consumer — falls back to a classic origin fetch
//     (the transport layer owns that fallback; the fabric just reports
//     stream state).
//   - A stream is keyed (consumer node, stage, task, child). Segments carry
//     (seg index, nseg); arrival order is irrelevant, the stream completes
//     when all nseg distinct segments arrived. Segment PAYLOADS are not
//     materialized: as with Comm::send_sized, only simulated sizes ride the
//     wire, and the content is copied from the producer's registry block at
//     completion time (deterministic — block content is a pure function of
//     the job spec). A producer that died before completion breaks the
//     stream instead.
//   - Unicast pushes are credit-paced per (src, dst) channel through the
//     dist::CreditWindow (options.hpp) that the streaming runtime's data
//     channels share: at most `credits_per_channel` segments in flight, each
//     delivery acked by a small credit-return message, excess segments queue
//     at the producer (counted as credit stalls). Lost segments or acks leak credits for
//     the remainder of the job; liveness never depends on them — the
//     reader-patience fallback covers every such hole, so no retransmit or
//     credit-timeout machinery exists.
//   - Broadcast streams use Comm::multicast_sized: ONE fabric frame fans
//     out to all consumer nodes (TX serialized once at the source), keyed
//     with the kBroadcastChild sentinel. Multicast is not credit-paced —
//     per-destination pacing of a shared frame has no single queue to push
//     back on; bounded in practice by nseg * segment_bytes per stream.
//   - Job epochs fence everything: reset() bumps the epoch, segments and
//     acks from a previous job are dropped on arrival.

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/serialize.hpp"
#include "dist/options.hpp"
#include "obs/metrics.hpp"
#include "sim/comm.hpp"

namespace hpbdc::dist::flow {

struct FlowStats {
  std::uint64_t segments_pushed = 0;     // unicast segments sent (incl. queued-then-sent)
  std::uint64_t multicast_segments = 0;  // broadcast segments (one fabric frame each)
  std::uint64_t bytes_pushed = 0;        // body bytes handed to the fabric
  std::uint64_t credit_stalls = 0;       // segments that had to queue for credit
  std::uint64_t streams_completed = 0;
  std::uint64_t streams_broken = 0;      // completed arrival but producer was gone
  std::uint64_t waits_satisfied = 0;     // readers woken by a completing stream
  double overlap_wait_s = 0.0;           // reader time spent blocked on in-flight streams
};

/// The per-cluster push fabric. One instance serves every job of a
/// DistRuntime; reset() re-arms it for a new job epoch. Single-threaded like
/// everything in the sim — no locking, determinism comes from the event
/// queue.
class FlowFabric {
 public:
  /// Child index used to key broadcast streams (a broadcast block is the
  /// same for every consumer task, so there is one stream per target node,
  /// not one per child partition).
  static constexpr std::uint32_t kBroadcastChild = 0xFFFFFFFFu;
  static constexpr std::size_t kNone = ~std::size_t{0};

  enum class StreamState : std::uint8_t {
    kAbsent,    // no segment seen, no reader registered
    kInFlight,  // some segments arrived (or a reader is waiting ahead of them)
    kComplete,  // all segments arrived and content resolved — data() is valid
    kBroken,    // all segments arrived but the producer died first
  };

  /// Everything the fabric needs from its host, kept as hooks so flow_test
  /// can drive it without a DistRuntime.
  struct Hooks {
    std::function<bool(std::size_t node)> node_alive;
    /// Authoritative content of (stage, task, child) at the producer `src`,
    /// or nullptr if the producer no longer holds it (dead / restarted).
    std::function<const Bytes*(std::size_t src, std::size_t stage, std::size_t task,
                               std::uint32_t child)>
        resolve_block;
  };

  FlowFabric(sim::Comm& comm, Hooks hooks);

  /// Re-arm for a new job: new epoch fences stale traffic, channels refill
  /// to opts.credits_per_channel, all buffered streams are dropped.
  void reset(const FlowOptions& opts, std::uint64_t epoch);

  const FlowOptions& options() const noexcept { return opts_; }
  const FlowStats& stats() const noexcept { return stats_; }

  /// Unicast segments sent and not yet acked: the credits currently drawn
  /// from every (src, dst) channel.
  std::size_t segments_in_flight() const;

  // ---- producer side ------------------------------------------------------

  /// Stream child block `child` of (stage, task) from src to dst,
  /// credit-paced. sim_bytes is the simulated block size; it is cut into
  /// ceil(sim_bytes / segment_bytes) segments.
  void push_block(std::size_t src, std::size_t dst, std::size_t stage, std::size_t task,
                  std::uint32_t child, std::uint64_t sim_bytes);

  /// Stream one broadcast block to every node in dsts via fabric multicast
  /// (TX paid once per segment). Not credit-paced — see file header.
  void push_broadcast(std::size_t src, const std::vector<std::size_t>& dsts,
                      std::size_t stage, std::size_t task, std::uint64_t sim_bytes);

  // ---- consumer side ------------------------------------------------------

  StreamState stream_state(std::size_t node, std::size_t stage, std::size_t task,
                           std::uint32_t child) const;

  /// Content of a kComplete stream buffered at `node` (nullptr otherwise).
  /// The pointer is owned by the fabric and valid until the stream is
  /// cleared (reset / node_killed / node_recovered).
  const Bytes* stream_data(std::size_t node, std::size_t stage, std::size_t task,
                           std::uint32_t child) const;

  /// A consumer finding its pushed stream incomplete waits this long
  /// (simulated seconds) for the tail segments before falling back to an
  /// origin pull fetch — the liveness valve for segments lost to loss
  /// bursts or a producer death mid-stream.
  static constexpr double kReaderPatience = 1.0;

  /// Wait for the stream to turn terminal. cb(true) on completion, cb(false)
  /// on breakage or after kReaderPatience simulated seconds — fired exactly
  /// once, synchronously if the stream is already terminal. Registering on an
  /// absent stream is the reader-ahead-of-writer case: the reader blocks
  /// until segments catch up or patience expires.
  void await(std::size_t node, std::size_t stage, std::size_t task, std::uint32_t child,
             std::function<void(bool)> cb);

  // ---- cluster membership -------------------------------------------------

  /// Node died: its buffered streams vanish with its memory, its waiting
  /// readers are abandoned without callback (their attempts died with it),
  /// streams it was producing elsewhere will resolve broken, and its
  /// channels drop queued segments and refill credit.
  void node_killed(std::size_t node);

  /// Node rejoined with fresh memory: identical cleanup (a stream buffered
  /// across the crash would be stale state the real machine lost).
  void node_recovered(std::size_t node);

 private:
  struct Waiter {
    std::uint64_t id = 0;
    double registered_at = 0.0;
    std::function<void(bool)> cb;
  };

  struct Stream {
    std::size_t src = kNone;  // producer of the segments seen so far
    std::uint32_t nseg = 0;   // 0 until the first segment announces it
    std::uint32_t received = 0;
    StreamState state = StreamState::kInFlight;
    Bytes data;  // resolved at completion
    std::vector<Waiter> waiters;
  };

  struct PendingSeg {
    std::size_t src = 0, dst = 0;
    std::uint64_t stage = 0, task = 0;
    std::uint32_t child = 0, seg = 0, nseg = 0;
    std::uint64_t body = 0;
  };

  struct Channel {
    CreditWindow<PendingSeg> window;
    std::uint64_t gen = 0;  // reset generation this channel was last armed in
  };

  static std::uint64_t key(std::size_t stage, std::size_t task, std::uint32_t child) {
    return (static_cast<std::uint64_t>(stage) << 48) |
           (static_cast<std::uint64_t>(task) << 32) | child;
  }

  /// The (src, dst) channel, re-armed on its first touch since reset():
  /// full credits, empty queue. Resetting every channel eagerly would cost
  /// O(nodes^2) per job.
  Channel& chan(std::size_t src, std::size_t dst) {
    Channel& ch = chans_[src * nranks_ + dst];
    if (ch.gen != reset_gen_) {
      ch.gen = reset_gen_;
      ch.window.arm(opts_.credits_per_channel);
    }
    return ch;
  }

  void send_segment(const PendingSeg& s);
  void on_message(std::size_t me, std::size_t from, const Bytes& payload);
  void on_segment(std::size_t me, std::size_t from, std::uint64_t stage,
                  std::uint64_t task, std::uint32_t child, std::uint32_t nseg);
  void complete_stream(std::size_t me, std::uint64_t k, Stream& st);
  void finish_waiters(Stream& st, bool ok);

  sim::Comm& comm_;
  Hooks hooks_;
  FlowOptions opts_;
  std::uint64_t epoch_ = 0;
  std::size_t nranks_ = 0;
  int tag_ = 0;
  std::uint64_t next_waiter_ = 1;
  // Bumped by every reset(), independently of the job epoch (which callers
  // may repeat): a channel whose gen differs is stale and re-armed by chan().
  std::uint64_t reset_gen_ = 1;
  std::vector<Channel> chans_;                          // [src * nranks + dst]
  std::vector<std::map<std::uint64_t, Stream>> bufs_;   // [node][key]
  FlowStats stats_;
};

/// Write `st` and the in-flight level into `reg` as the dist.flow.* gauges
/// (overlap_wait_s as whole microseconds). A snapshot: calling it again
/// with the same arguments leaves the registry unchanged.
void export_metrics(obs::MetricsRegistry& reg, const FlowStats& st,
                    std::size_t segments_in_flight);

}  // namespace hpbdc::dist::flow
