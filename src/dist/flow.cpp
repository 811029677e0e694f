#include "dist/flow.hpp"

#include <algorithm>

namespace hpbdc::dist::flow {

namespace {

// Wire format of every fabric message (body size is simulated separately;
// this payload is the small real header that rides along).
enum MsgKind : std::uint8_t { kSeg = 1, kAck = 2, kMcastSeg = 3 };

struct Header {
  std::uint8_t kind = 0;
  std::uint64_t epoch = 0;
  std::uint64_t stage = 0;
  std::uint64_t task = 0;
  std::uint32_t child = 0;
  std::uint32_t seg = 0;
  std::uint32_t nseg = 0;
};

Bytes encode(const Header& h) {
  BufWriter w(40);
  w.write_pod(h.kind);
  w.write_pod(h.epoch);
  w.write_pod(h.stage);
  w.write_pod(h.task);
  w.write_pod(h.child);
  w.write_pod(h.seg);
  w.write_pod(h.nseg);
  return w.take();
}

Header decode(const Bytes& b) {
  BufReader r(b);
  Header h;
  h.kind = r.read_pod<std::uint8_t>();
  h.epoch = r.read_pod<std::uint64_t>();
  h.stage = r.read_pod<std::uint64_t>();
  h.task = r.read_pod<std::uint64_t>();
  h.child = r.read_pod<std::uint32_t>();
  h.seg = r.read_pod<std::uint32_t>();
  h.nseg = r.read_pod<std::uint32_t>();
  return h;
}

std::uint32_t segment_count(std::uint64_t bytes, std::uint64_t seg_bytes) {
  if (bytes == 0) return 1;  // empty blocks still announce themselves
  return static_cast<std::uint32_t>((bytes + seg_bytes - 1) / seg_bytes);
}

std::uint64_t segment_body(std::uint64_t bytes, std::uint64_t seg_bytes,
                           std::uint32_t seg, std::uint32_t nseg) {
  if (nseg == 1) return bytes;
  return seg + 1 == nseg ? bytes - static_cast<std::uint64_t>(nseg - 1) * seg_bytes
                         : seg_bytes;
}

// Every unicast segment draws one credit.
constexpr auto needs_credit = [](const auto& /*segment*/) { return true; };

}  // namespace

FlowFabric::FlowFabric(sim::Comm& comm, Hooks hooks)
    : comm_(comm),
      hooks_(std::move(hooks)),
      nranks_(comm.nranks()),
      tag_(comm.next_tag()),
      chans_(nranks_ * nranks_),
      bufs_(nranks_) {
  for (std::size_t r = 0; r < nranks_; ++r) {
    comm_.set_handler(r, tag_, [this, r](std::size_t from, const Bytes& payload) {
      on_message(r, from, payload);
    });
  }
}

void FlowFabric::reset(const FlowOptions& opts, std::uint64_t epoch) {
  opts_ = opts;
  epoch_ = epoch;
  ++reset_gen_;  // every channel re-arms on its next touch
  for (auto& m : bufs_) m.clear();  // waiters die silently: their jobs are gone
}

std::size_t FlowFabric::segments_in_flight() const {
  std::size_t n = 0;
  for (const auto& ch : chans_) {
    if (ch.gen == reset_gen_) n += ch.window.in_flight();
  }
  return n;
}

void FlowFabric::push_block(std::size_t src, std::size_t dst, std::size_t stage,
                            std::size_t task, std::uint32_t child,
                            std::uint64_t sim_bytes) {
  const std::uint32_t nseg = segment_count(sim_bytes, opts_.segment_bytes);
  Channel& ch = chan(src, dst);
  for (std::uint32_t i = 0; i < nseg; ++i) {
    PendingSeg s{src, dst, stage, task, child, i, nseg,
                 segment_body(sim_bytes, opts_.segment_bytes, i, nseg)};
    if (ch.window.push(s)) ++stats_.credit_stalls;
    ch.window.pump([this](const PendingSeg& seg) { send_segment(seg); }, needs_credit);
  }
}

void FlowFabric::push_broadcast(std::size_t src, const std::vector<std::size_t>& dsts,
                                std::size_t stage, std::size_t task,
                                std::uint64_t sim_bytes) {
  if (dsts.empty()) return;
  const std::uint32_t nseg = segment_count(sim_bytes, opts_.segment_bytes);
  for (std::uint32_t i = 0; i < nseg; ++i) {
    const std::uint64_t body = segment_body(sim_bytes, opts_.segment_bytes, i, nseg);
    Header h{kMcastSeg, epoch_, stage, task, kBroadcastChild, i, nseg};
    ++stats_.multicast_segments;
    stats_.bytes_pushed += body;
    comm_.multicast_sized(src, dsts, tag_, body, encode(h));
  }
}

void FlowFabric::send_segment(const PendingSeg& s) {
  Header h{kSeg, epoch_, s.stage, s.task, s.child, s.seg, s.nseg};
  ++stats_.segments_pushed;
  stats_.bytes_pushed += s.body;
  comm_.send_sized(s.src, s.dst, tag_, s.body, encode(h));
}

void FlowFabric::on_message(std::size_t me, std::size_t from, const Bytes& payload) {
  const Header h = decode(payload);
  if (h.epoch != epoch_) return;  // traffic from a previous job
  if (h.kind == kAck) {
    // `me` is the producer; `from` returns one credit on channel (me, from).
    Channel& ch = chan(me, from);
    ch.window.grant();
    ch.window.pump([this](const PendingSeg& seg) { send_segment(seg); }, needs_credit);
    return;
  }
  const bool unicast = h.kind == kSeg;
  if (!hooks_.node_alive(me)) {
    // Dead target: segment evaporates, no ack — the channel's credit leaks
    // until node_killed() resets it.
    return;
  }
  if (unicast) {
    // Return the credit before stream bookkeeping so the ack's send time
    // never depends on resolve work.
    Header ack{kAck, epoch_, h.stage, h.task, h.child, h.seg, h.nseg};
    comm_.send_sized(me, from, tag_, kCreditAckBytes, encode(ack));
  }
  on_segment(me, from, h.stage, h.task, h.child, h.nseg);
}

void FlowFabric::on_segment(std::size_t me, std::size_t from, std::uint64_t stage,
                            std::uint64_t task, std::uint32_t child,
                            std::uint32_t nseg) {
  const std::uint64_t k = key(stage, task, child);
  Stream& st = bufs_[me][k];
  if (st.state == StreamState::kComplete) return;  // duplicate from a re-push
  if (st.src != from || st.state == StreamState::kBroken) {
    // New producer incarnation (speculation or lineage re-run): restart the
    // stream from scratch — mixing segments of two incarnations would fake
    // completeness.
    st.src = from;
    st.nseg = nseg;
    st.received = 0;
    st.state = StreamState::kInFlight;
    st.data.clear();
  }
  ++st.received;
  if (st.received >= st.nseg) complete_stream(me, k, st);
}

void FlowFabric::complete_stream(std::size_t /*me*/, std::uint64_t k, Stream& st) {
  const std::size_t stage = k >> 48;
  const std::size_t task = (k >> 32) & 0xFFFF;
  const auto child = static_cast<std::uint32_t>(k & 0xFFFFFFFFu);
  const Bytes* content =
      hooks_.node_alive(st.src) ? hooks_.resolve_block(st.src, stage, task, child)
                                : nullptr;
  if (content != nullptr) {
    st.data = *content;
    st.state = StreamState::kComplete;
    ++stats_.streams_completed;
    finish_waiters(st, true);
  } else {
    st.state = StreamState::kBroken;
    ++stats_.streams_broken;
    finish_waiters(st, false);
  }
}

void FlowFabric::finish_waiters(Stream& st, bool ok) {
  std::vector<Waiter> ws;
  ws.swap(st.waiters);
  const double now = comm_.simulator().now();
  for (auto& w : ws) {
    const double waited = now - w.registered_at;
    stats_.overlap_wait_s += waited;
    if (ok) ++stats_.waits_satisfied;
    w.cb(ok);
  }
}

FlowFabric::StreamState FlowFabric::stream_state(std::size_t node, std::size_t stage,
                                                 std::size_t task,
                                                 std::uint32_t child) const {
  const auto& m = bufs_[node];
  const auto it = m.find(key(stage, task, child));
  if (it == m.end()) return StreamState::kAbsent;
  const Stream& st = it->second;
  // A waiter-created placeholder has seen no segments yet; report it absent
  // so state queries stay side-effect-honest.
  if (st.state == StreamState::kInFlight && st.nseg == 0) return StreamState::kAbsent;
  return st.state;
}

const Bytes* FlowFabric::stream_data(std::size_t node, std::size_t stage,
                                     std::size_t task, std::uint32_t child) const {
  const auto& m = bufs_[node];
  const auto it = m.find(key(stage, task, child));
  if (it == m.end() || it->second.state != StreamState::kComplete) return nullptr;
  return &it->second.data;
}

void FlowFabric::await(std::size_t node, std::size_t stage, std::size_t task,
                       std::uint32_t child, std::function<void(bool)> cb) {
  const std::uint64_t k = key(stage, task, child);
  Stream& st = bufs_[node][k];
  if (st.state == StreamState::kComplete) {
    cb(true);
    return;
  }
  if (st.state == StreamState::kBroken) {
    cb(false);
    return;
  }
  auto& sim = comm_.simulator();
  const std::uint64_t wid = next_waiter_++;
  st.waiters.push_back(Waiter{wid, sim.now(), std::move(cb)});
  sim.schedule_after(kReaderPatience, [this, node, k, wid, epoch = epoch_] {
    if (epoch != epoch_) return;
    auto it = bufs_[node].find(k);
    if (it == bufs_[node].end()) return;  // stream cleared (node died)
    auto& ws = it->second.waiters;
    const auto w = std::find_if(ws.begin(), ws.end(),
                                [wid](const Waiter& x) { return x.id == wid; });
    if (w == ws.end()) return;  // already satisfied
    const double waited = comm_.simulator().now() - w->registered_at;
    stats_.overlap_wait_s += waited;
    auto cb2 = std::move(w->cb);
    ws.erase(w);
    cb2(false);
  });
}

void FlowFabric::node_killed(std::size_t node) {
  // Buffered streams (and their waiters) die with the node's memory, and the
  // channels touching it, local pushes included, lose their queued segments.
  node_recovered(node);
  chan(node, node).window.arm(opts_.credits_per_channel);
  // Streams it was producing elsewhere can never complete from this
  // incarnation: break the in-flight ones now so waiting readers fall back
  // immediately instead of burning their full patience.
  for (std::size_t n = 0; n < nranks_; ++n) {
    if (n == node) continue;
    for (auto& [k, st] : bufs_[n]) {
      if (st.src == node && st.state == StreamState::kInFlight && st.nseg > 0) {
        st.state = StreamState::kBroken;
        ++stats_.streams_broken;
        finish_waiters(st, false);
      }
    }
  }
}

void FlowFabric::node_recovered(std::size_t node) {
  bufs_[node].clear();
  // Channels touching the node: queued segments are lost, credits refill
  // for the next incarnation.
  for (std::size_t n = 0; n < nranks_; ++n) {
    if (n == node) continue;
    for (auto* ch : {&chan(node, n), &chan(n, node)}) {
      ch->window.arm(opts_.credits_per_channel);
    }
  }
}

void export_metrics(obs::MetricsRegistry& reg, const FlowStats& st,
                    std::size_t segments_in_flight) {
  const auto set = [&reg](const char* name, std::uint64_t v) {
    reg.gauge(std::string("dist.flow.") + name).set(static_cast<std::int64_t>(v));
  };
  set("bytes_pushed", st.bytes_pushed);
  set("credit_stalls", st.credit_stalls);
  set("segments_pushed", st.segments_pushed);
  set("multicast_segments", st.multicast_segments);
  set("streams_broken", st.streams_broken);
  set("overlap_wait_us", static_cast<std::uint64_t>(st.overlap_wait_s * 1e6));
  set("segments_in_flight", segments_in_flight);
}

}  // namespace hpbdc::dist::flow
