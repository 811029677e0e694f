#include "dstream/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"

namespace hpbdc::dstream {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

constexpr double kEpochInterval = 0.5;  // barrier cadence, simulated seconds
constexpr double kRetryDelay = 0.25;    // checkpoint-read retry backoff
constexpr std::uint64_t kCtrlBytes = 96;  // trigger/ack wire body
constexpr std::uint64_t kHeartbeatPhaseSeed = 1;  // the membership service's seed

// Message type bytes. Data plane (tag_data_) and control plane (tag_ctrl_)
// each carry a one-byte discriminator so every rank needs exactly two
// handlers regardless of how many tasks it hosts.
enum : std::uint8_t {
  kMsgSegment = 1,
  kMsgAck = 2,
};
enum : std::uint8_t {
  kMsgTrigger = 1,
  kMsgTaskAck,
  kMsgRestore,
  kMsgRestoreAck,
};

}  // namespace

// The membership service rejects an out-of-range coordinator.
StreamRuntime::StreamRuntime(sim::Comm& comm, StreamConfig cfg, sim::Dfs* dfs)
    : comm_(comm),
      cfg_(cfg),
      dfs_(dfs),
      members_(comm, cfg.coordinator, cfg.heartbeat_interval, cfg.heartbeat_timeout,
               0.0, kHeartbeatPhaseSeed, dfs) {
  members_.subscribe(*this);
  tag_data_ = comm_.next_tag();
  tag_ctrl_ = comm_.next_tag();
  for (std::size_t r = 0; r < comm_.nranks(); ++r) {
    comm_.set_handler(r, tag_data_,
                      [this, r](std::size_t, const Bytes& p) { on_data(r, p); });
    comm_.set_handler(r, tag_ctrl_,
                      [this, r](std::size_t, const Bytes& p) { on_ctrl(r, p); });
  }
}

std::size_t StreamRuntime::stage_ntasks(std::size_t stage) const {
  return spec_.stages[stage].kind == StreamStage::Kind::kSink ? 1
                                                              : spec_.opts.ntasks;
}

std::size_t StreamRuntime::ch_index(const Edge& e, std::size_t src_local,
                                    std::size_t dst_local) const {
  return e.ch_base + src_local * stage_ntasks(e.dst_stage) + dst_local;
}

void StreamRuntime::submit(StreamJobSpec spec, const dist::RuntimeOptions& opts,
                           DoneFn done, EpochFn on_epoch) {
  if (running_) throw std::logic_error("StreamRuntime: a streaming job is running");
  if (comm_.nranks() < 2) {
    throw std::invalid_argument("StreamRuntime: need >= 2 ranks (coordinator + worker)");
  }
  if (spec.stages.empty() || spec.stages.back().kind != StreamStage::Kind::kSink) {
    throw std::invalid_argument("StreamRuntime: spec must end with a sink stage");
  }
  running_ = true;
  recovering_ = false;
  spec_ = std::move(spec);
  opts_ = opts;
  done_ = std::move(done);
  on_epoch_ = std::move(on_epoch);
  start_ = sim().now();
  ++fence_;
  ++submits_;
  stats_ = StreamStats{};
  beats_at_submit_ = members_.stats().heartbeats;
  committed_.clear();
  ckpt_state_.clear();
  ckpt_file_.clear();
  acks_.clear();
  epoch_ = 0;
  last_completed_ = 0;
  sink_wm_ = kNegInf;
  reassign_rr_ = 0;

  // Segment sizing + credits from the per-job transport options. Streaming
  // events are tiny (~24 wire bytes), so segment_bytes maps to an event
  // count; under the pull transport the data plane degrades to uncredited
  // push (segments flow, nothing paces them) — serve always selects kPush
  // for streaming jobs, and the F14 backpressure sweep depends on it.
  events_per_segment_ = std::clamp<std::size_t>(opts_.flow.segment_bytes / 4096, 1, 4096);
  init_credits_ = opts_.transport == dist::TransportKind::kPush
                      ? opts_.flow.credits_per_channel
                      : (std::size_t{1} << 30);

  // Placement: the sink rides the coordinator (its output is the job result);
  // every other stage spreads ntasks round-robin over the worker ranks not
  // declared dead — over all of them when none is left, and the job then
  // starts in a recovery that waits for one to rejoin.
  std::vector<std::size_t> workers;
  for (std::size_t r = 0; r < comm_.nranks(); ++r) {
    if (r != cfg_.coordinator && !members_.declared_dead(r)) workers.push_back(r);
  }
  const bool none_live = workers.empty();
  for (std::size_t r = 0; none_live && r < comm_.nranks(); ++r) {
    if (r != cfg_.coordinator) workers.push_back(r);
  }
  tasks_.clear();
  stage_first_gid_.assign(spec_.stages.size(), 0);
  std::size_t rr = 0;
  for (std::size_t s = 0; s < spec_.stages.size(); ++s) {
    stage_first_gid_[s] = tasks_.size();
    for (std::size_t l = 0; l < stage_ntasks(s); ++l) {
      Task t;
      t.stage = s;
      t.local = l;
      t.gid = tasks_.size();
      t.busy_until = sim().now();
      const StreamStage& st = spec_.stages[s];
      if (st.kind == StreamStage::Kind::kSink) {
        t.node = cfg_.coordinator;
        sink_gid_ = t.gid;
      } else {
        t.node = workers[rr++ % workers.size()];
      }
      if (st.kind == StreamStage::Kind::kSource) {
        std::uint64_t dropped = 0;
        t.items = source_partition_items(st, spec_.opts, l, stage_ntasks(s), &dropped);
        stats_.events_late_dropped += dropped;
      }
      switch (st.kind) {
        case StreamStage::Kind::kAggregate:
          t.agg = std::make_unique<SumAggregator>(
              dataflow::stream::WindowSpec::tumbling(spec_.opts.window), kInf,
              RowKeyFn{}, RowCombineFn{});
          break;
        case StreamStage::Kind::kDistinct:
          t.dis = std::make_unique<DistinctAggregator>(
              dataflow::stream::WindowSpec::tumbling(spec_.opts.window), kInf,
              RowIdentityFn{}, RowCountFn{});
          break;
        case StreamStage::Kind::kJoin:
          t.join = std::make_unique<RowWindowJoin>(spec_.opts.window, kInf,
                                                   TimedRowKeyFn{}, TimedRowKeyFn{});
          break;
        default:
          break;
      }
      tasks_.push_back(std::move(t));
    }
  }

  // Channel grids, one per (edge, src task, dst task).
  edges_.clear();
  channels_.clear();
  stage_out_edges_.assign(spec_.stages.size(), {});
  for (std::size_t s = 0; s < spec_.stages.size(); ++s) {
    const StreamStage& st = spec_.stages[s];
    for (std::size_t side = 0; side < st.parents.size(); ++side) {
      Edge e;
      e.src_stage = st.parents[side];
      e.dst_stage = s;
      e.side = side;
      e.ch_base = channels_.size();
      const std::size_t eidx = edges_.size();
      stage_out_edges_[e.src_stage].push_back(eidx);
      for (std::size_t sl = 0; sl < stage_ntasks(e.src_stage); ++sl) {
        for (std::size_t dl = 0; dl < stage_ntasks(s); ++dl) {
          Channel ch;
          ch.edge = eidx;
          ch.src_gid = first_gid(e.src_stage) + sl;
          ch.dst_gid = first_gid(s) + dl;
          ch.window.arm(init_credits_);
          channels_.push_back(std::move(ch));
          tasks_[first_gid(s) + dl].in_channels.push_back(channels_.size() - 1);
        }
      }
      edges_.push_back(e);
    }
  }

  // Start the machinery: source generators, the membership service's
  // heartbeats and failure monitor, and the first barrier epoch.
  const std::uint64_t f = fence_;
  for (const Task& t : tasks_) {
    if (spec_.stages[t.stage].kind == StreamStage::Kind::kSource) {
      const std::size_t gid = t.gid;
      sim().schedule_after(0, [this, gid, f] {
        if (running_ && fence_ == f) source_pump(gid);
      });
    }
  }
  members_.job_started();
  sim().schedule_after(kEpochInterval, [this, f] {
    if (running_ && fence_ == f && !recovering_) trigger_epoch(1);
  });
  if (none_live) start_recovery();
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void StreamRuntime::emit(Task& t, const TimedRow& ev) {
  for (std::size_t eidx : stage_out_edges_[t.stage]) {
    const Edge& e = edges_[eidx];
    const std::size_t dst_local =
        static_cast<std::size_t>(hash_u64(ev.row.first)) % stage_ntasks(e.dst_stage);
    Channel& ch = channels_[ch_index(e, t.local, dst_local)];
    ch.open.push_back(ev);
    if (ch.open.size() >= events_per_segment_) {
      seal(ch);
      pump(ch_index(e, t.local, dst_local));
    }
  }
}

void StreamRuntime::seal(Channel& ch) {
  if (ch.open.empty()) return;
  QItem q;
  q.events = std::move(ch.open);
  ch.open.clear();
  ch.window.push(std::move(q));
}

void StreamRuntime::pump(std::size_t ch_idx) {
  Channel& ch = channels_[ch_idx];
  if (!members_.alive(tasks_[ch.src_gid].node)) return;
  // FIFO: a barrier needs no credit but still waits behind stalled
  // segments — barrier overtaking would tear the consistent cut.
  if (ch.window.pump([this, ch_idx](QItem item) { send_item(ch_idx, std::move(item)); },
                     [](const QItem& item) { return !item.barrier; })) {
    ++stats_.credit_stalls;
    return;
  }
  maybe_resume_source(ch.src_gid);
}

void StreamRuntime::send_item(std::size_t ch_idx, QItem item) {
  Channel& ch = channels_[ch_idx];
  BufWriter w(item.events.size() * 24 + 32);
  w.write_pod(std::uint8_t{kMsgSegment});
  w.write_pod(fence_);
  w.write_varint(ch_idx);
  w.write_varint(ch.next_seq++);
  w.write_pod(static_cast<std::uint8_t>(item.barrier ? 1 : 0));
  w.write_varint(item.epoch);
  w.write_pod(item.wm);
  Serde<std::vector<TimedRow>>::write(w, item.events);
  if (!item.barrier) ++stats_.segments_sent;
  comm_.send(tasks_[ch.src_gid].node, tasks_[ch.dst_gid].node, tag_data_, w.take());
}

void StreamRuntime::on_data(std::size_t rank, const Bytes& payload) {
  if (!running_ || !members_.alive(rank)) return;
  BufReader r(payload);
  const auto type = r.read_pod<std::uint8_t>();
  const auto fence = r.read_pod<std::uint64_t>();
  if (!fence_ok(fence)) {
    ++stats_.stale_dropped;
    return;
  }
  const std::size_t ch_idx = r.read_varint();
  Channel& ch = channels_[ch_idx];
  if (type == kMsgAck) {
    if (tasks_[ch.src_gid].node != rank) return;  // reassigned mid-flight
    ch.window.grant();
    ++stats_.segment_acks;
    pump(ch_idx);
    return;
  }
  if (tasks_[ch.dst_gid].node != rank) return;
  const std::uint64_t seq = r.read_varint();
  QItem item;
  item.barrier = r.read_pod<std::uint8_t>() != 0;
  item.epoch = r.read_varint();
  item.wm = r.read_pod<double>();
  item.events = Serde<std::vector<TimedRow>>::read(r);
  if (seq != ch.expect_seq) {
    ch.stash.emplace(seq, std::move(item));  // defensive; fabric is FIFO
    return;
  }
  deliver(ch_idx, std::move(item));
  while (true) {
    auto it = ch.stash.find(ch.expect_seq);
    if (it == ch.stash.end()) break;
    QItem next = std::move(it->second);
    ch.stash.erase(it);
    deliver(ch_idx, std::move(next));
  }
}

void StreamRuntime::deliver(std::size_t ch_idx, QItem item) {
  Channel& ch = channels_[ch_idx];
  ++ch.expect_seq;
  if (item.barrier) {
    // Alignment: block the channel AT DELIVERY (segments that slip in behind
    // the barrier must not be applied before the snapshot) and queue the
    // zero-cost alignment accounting behind any in-service segments.
    ch.blocked = true;
    ch.barrier_epoch = item.epoch;
    ch.barrier_wm = item.wm;
    enqueue_work(ch_idx, std::move(item));
    return;
  }
  if (ch.blocked) {
    ch.backlog.push_back(std::move(item));  // epoch n+1 data; ack withheld
    return;
  }
  enqueue_work(ch_idx, std::move(item));
}

void StreamRuntime::enqueue_work(std::size_t ch_idx, QItem item) {
  Channel& ch = channels_[ch_idx];
  Task& t = tasks_[ch.dst_gid];
  const double start = std::max(sim().now(), t.busy_until);
  const double cost =
      item.barrier ? 0.0 : static_cast<double>(item.events.size()) * cfg_.event_cost;
  t.busy_until = start + cost;
  const std::uint64_t f = fence_;
  sim().schedule_at(t.busy_until, [this, ch_idx, f, it = std::move(item)]() mutable {
    if (!running_ || fence_ != f) return;
    service(ch_idx, it);
  });
}

void StreamRuntime::service(std::size_t ch_idx, QItem& item) {
  Channel& ch = channels_[ch_idx];
  Task& t = tasks_[ch.dst_gid];
  if (!members_.alive(t.node)) return;
  if (item.barrier) {
    ++t.aligned;
    if (t.aligned == t.in_channels.size()) complete_barrier(t);
    return;
  }
  apply_segment(t, edges_[ch.edge].side, item.events);
  // Processing done: return the credit (this is what makes backpressure
  // propagate — a busy or barrier-blocked consumer sits on its credits).
  BufWriter w(16);
  w.write_pod(std::uint8_t{kMsgAck});
  w.write_pod(fence_);
  w.write_varint(ch_idx);
  comm_.send_sized(t.node, tasks_[ch.src_gid].node, tag_data_, dist::kCreditAckBytes,
                   w.take());
}

void StreamRuntime::apply_segment(Task& t, std::size_t side,
                                  const std::vector<TimedRow>& events) {
  const StreamStage& st = spec_.stages[t.stage];
  stats_.events_processed += events.size();
  switch (st.kind) {
    case StreamStage::Kind::kStateless:
      for (const TimedRow& ev : events) {
        if (st.steps.empty()) {
          emit(t, ev);
        } else {
          for (const plan::Row& r : plan::apply_steps(st.steps, 0, {ev.row})) {
            emit(t, TimedRow{ev.time, r});
          }
        }
      }
      break;
    case StreamStage::Kind::kAggregate:
      for (const TimedRow& ev : events) {
        t.agg->on_event(dataflow::stream::Event<plan::Row>{ev.time, ev.row});
      }
      break;
    case StreamStage::Kind::kDistinct:
      for (const TimedRow& ev : events) {
        t.dis->on_event(dataflow::stream::Event<plan::Row>{ev.time, ev.row});
      }
      break;
    case StreamStage::Kind::kJoin: {
      for (const TimedRow& ev : events) {
        if (side == 0) {
          t.join->on_left(dataflow::stream::Event<TimedRow>{ev.time, ev});
        } else {
          t.join->on_right(dataflow::stream::Event<TimedRow>{ev.time, ev});
        }
      }
      // Pairs surface incrementally (probe-then-insert): they are epoch-n
      // data and must travel ahead of this operator's barrier n.
      for (auto& jr : t.join->take_results()) {
        emit(t, TimedRow{std::max(jr.left.time, jr.right.time),
                         plan::join_rows(jr.key, jr.left.row.second,
                                         jr.right.row.second)});
      }
      break;
    }
    case StreamStage::Kind::kSink:
      t.epoch_buf.insert(t.epoch_buf.end(), events.begin(), events.end());
      break;
    case StreamStage::Kind::kSource:
      break;  // sources have no inputs
  }
}

bool StreamRuntime::backpressured(const Task& t) const {
  for (std::size_t eidx : stage_out_edges_[t.stage]) {
    const Edge& e = edges_[eidx];
    for (std::size_t dl = 0; dl < stage_ntasks(e.dst_stage); ++dl) {
      if (channels_[ch_index(e, t.local, dl)].window.queued() >=
          cfg_.max_buffered_segments) {
        return true;
      }
    }
  }
  return false;
}

void StreamRuntime::maybe_resume_source(std::size_t src_gid) {
  Task& t = tasks_[src_gid];
  if (!t.paused || spec_.stages[t.stage].kind != StreamStage::Kind::kSource) return;
  if (backpressured(t)) return;
  t.paused = false;
  const std::uint64_t f = fence_;
  const std::size_t gid = t.gid;
  sim().schedule_after(0, [this, gid, f] {
    if (running_ && fence_ == f) source_pump(gid);
  });
}

void StreamRuntime::source_pump(std::size_t gid) {
  Task& t = tasks_[gid];
  if (!members_.alive(t.node) || t.paused) return;
  const std::uint64_t f = fence_;
  while (t.offset < t.items.size()) {
    const SourceItem& it = t.items[t.offset];
    const double target = start_ + it.emit_at;
    if (sim().now() < target) {
      sim().schedule_at(target, [this, gid, f] {
        if (running_ && fence_ == f) source_pump(gid);
      });
      return;
    }
    // Backpressure gate: with an outgoing channel already holding a full
    // queue of unsendable segments, generating more would only grow memory —
    // pause until credits drain the queues (maybe_resume_source).
    if (backpressured(t)) {
      t.paused = true;
      ++stats_.backpressure_pauses;
      return;
    }
    for (const plan::Row& r : it.rows) {
      emit(t, TimedRow{it.time, r});
      ++stats_.events_emitted;
    }
    t.src_wm = it.wm_after;
    ++t.offset;
  }
  t.src_wm = kInf;  // stream exhausted: the next barrier flushes everything
}

// ---------------------------------------------------------------------------
// Barriers, snapshots, epochs
// ---------------------------------------------------------------------------

void StreamRuntime::enqueue_barrier(Task& t, std::uint64_t epoch, double wm) {
  for (std::size_t eidx : stage_out_edges_[t.stage]) {
    const Edge& e = edges_[eidx];
    for (std::size_t dl = 0; dl < stage_ntasks(e.dst_stage); ++dl) {
      const std::size_t ci = ch_index(e, t.local, dl);
      Channel& ch = channels_[ci];
      seal(ch);  // the barrier rides BEHIND everything emitted so far
      QItem q;
      q.barrier = true;
      q.epoch = epoch;
      q.wm = wm;
      ch.window.push(std::move(q));
      pump(ci);
    }
  }
  ++stats_.barriers_forwarded;
}

void StreamRuntime::complete_barrier(Task& t) {
  const StreamStage& st = spec_.stages[t.stage];
  double wm = kInf;
  std::uint64_t epoch = 0;
  for (std::size_t ci : t.in_channels) {
    wm = std::min(wm, channels_[ci].barrier_wm);
    epoch = channels_[ci].barrier_epoch;
  }
  // Fire-then-snapshot-then-forward: closed windows are epoch data emitted
  // BEFORE the forwarded barrier, so downstream snapshots absorb them while
  // this snapshot no longer carries them.
  switch (st.kind) {
    case StreamStage::Kind::kAggregate: {
      t.agg->advance_watermark(wm);
      auto results = t.agg->take_results();
      stats_.windows_fired += results.size();
      for (auto& r : results) {
        emit(t, TimedRow{r.window.end, plan::Row{r.key, r.value}});
      }
      break;
    }
    case StreamStage::Kind::kDistinct: {
      t.dis->advance_watermark(wm);
      auto results = t.dis->take_results();
      stats_.windows_fired += results.size();
      for (auto& r : results) emit(t, TimedRow{r.window.end, r.key});
      break;
    }
    case StreamStage::Kind::kJoin:
      t.join->advance_watermark(wm);  // pairs already emitted; just expire
      break;
    case StreamStage::Kind::kSink:
      t.pending[epoch] = std::move(t.epoch_buf);
      t.epoch_buf.clear();
      break;
    default:
      break;
  }
  Bytes state = snapshot(t);
  BufWriter w(state.size() + 48);
  w.write_pod(std::uint8_t{kMsgTaskAck});
  w.write_pod(fence_);
  w.write_varint(epoch);
  w.write_varint(t.gid);
  w.write_pod(wm);
  w.write_bytes(state);
  comm_.send_sized(t.node, cfg_.coordinator, tag_ctrl_,
                   kCtrlBytes + state.size(), w.take());
  if (st.kind != StreamStage::Kind::kSink) enqueue_barrier(t, epoch, wm);
  // Unblock and drain the alignment backlog (epoch n+1 data).
  t.aligned = 0;
  for (std::size_t ci : t.in_channels) {
    Channel& ch = channels_[ci];
    ch.blocked = false;
    while (!ch.backlog.empty()) {
      QItem q = std::move(ch.backlog.front());
      ch.backlog.pop_front();
      enqueue_work(ci, std::move(q));
    }
  }
}

Bytes StreamRuntime::snapshot(const Task& t) const {
  BufWriter w;
  switch (spec_.stages[t.stage].kind) {
    case StreamStage::Kind::kSource:
      w.write_varint(t.offset);
      break;
    case StreamStage::Kind::kAggregate:
      // Count, then (start, end, key, acc) tuples. Iteration order of the
      // per-window hash maps is unspecified — irrelevant, restore_open is
      // order-independent and all result comparisons are canonical multisets.
      {
        std::uint64_t n = 0;
        t.agg->for_each_open([&](double, double, std::uint64_t, std::uint64_t) { ++n; });
        w.write_varint(n);
        t.agg->for_each_open([&](double s, double e, std::uint64_t k, std::uint64_t v) {
          w.write_pod(s);
          w.write_pod(e);
          w.write_pod(k);
          w.write_pod(v);
        });
      }
      break;
    case StreamStage::Kind::kDistinct: {
      std::uint64_t n = 0;
      t.dis->for_each_open([&](double, double, const plan::Row&, std::uint64_t) { ++n; });
      w.write_varint(n);
      t.dis->for_each_open([&](double s, double e, const plan::Row& k, std::uint64_t v) {
        w.write_pod(s);
        w.write_pod(e);
        w.write_pod(k.first);
        w.write_pod(k.second);
        w.write_pod(v);
      });
      break;
    }
    case StreamStage::Kind::kJoin: {
      for (int pass = 0; pass < 2; ++pass) {
        std::uint64_t n = 0;
        const auto counter = [&](double, std::uint64_t, const TimedRow&) { ++n; };
        if (pass == 0) {
          t.join->for_each_left(counter);
        } else {
          t.join->for_each_right(counter);
        }
        w.write_varint(n);
        const auto writer = [&](double end, std::uint64_t k, const TimedRow& v) {
          w.write_pod(end);
          w.write_pod(k);
          Serde<TimedRow>::write(w, v);
        };
        if (pass == 0) {
          t.join->for_each_left(writer);
        } else {
          t.join->for_each_right(writer);
        }
      }
      break;
    }
    default:
      break;  // stateless and sink tasks carry no checkpointable state
  }
  return w.take();
}

void StreamRuntime::restore_task(Task& t, const Bytes& state) {
  const StreamStage& st = spec_.stages[t.stage];
  switch (st.kind) {
    case StreamStage::Kind::kSource: {
      t.offset = state.empty() ? 0 : static_cast<std::size_t>(BufReader(state).read_varint());
      if (cfg_.buggy_restore && t.offset > 0 && t.offset < t.items.size()) {
        ++t.offset;  // seeded bug: resume one event PAST the recorded offset
      }
      t.src_wm = t.offset > 0 ? t.items[t.offset - 1].wm_after : kNegInf;
      if (t.offset >= t.items.size()) t.src_wm = kInf;
      t.paused = false;
      break;
    }
    case StreamStage::Kind::kAggregate: {
      if (state.empty()) break;
      BufReader r(state);
      for (std::uint64_t n = r.read_varint(); n > 0; --n) {
        const double s = r.read_pod<double>();
        const double e = r.read_pod<double>();
        const auto k = r.read_pod<std::uint64_t>();
        const auto v = r.read_pod<std::uint64_t>();
        t.agg->restore_open(s, e, k, v);
      }
      break;
    }
    case StreamStage::Kind::kDistinct: {
      if (state.empty()) break;
      BufReader r(state);
      for (std::uint64_t n = r.read_varint(); n > 0; --n) {
        const double s = r.read_pod<double>();
        const double e = r.read_pod<double>();
        plan::Row row{r.read_pod<std::uint64_t>(), r.read_pod<std::uint64_t>()};
        const auto v = r.read_pod<std::uint64_t>();
        t.dis->restore_open(s, e, row, v);
      }
      break;
    }
    case StreamStage::Kind::kJoin: {
      if (state.empty()) break;
      BufReader r(state);
      for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t n = r.read_varint(); n > 0; --n) {
          const double end = r.read_pod<double>();
          const auto k = r.read_pod<std::uint64_t>();
          TimedRow v = Serde<TimedRow>::read(r);
          if (pass == 0) {
            t.join->restore_left(end, k, std::move(v));
          } else {
            t.join->restore_right(end, k, std::move(v));
          }
        }
      }
      break;
    }
    default:
      break;
  }
}

void StreamRuntime::trigger_epoch(std::uint64_t epoch) {
  epoch_ = epoch;
  epoch_t0_ = sim().now();
  acks_.clear();
  ++stats_.epochs_triggered;
  for (const Task& t : tasks_) {
    if (spec_.stages[t.stage].kind != StreamStage::Kind::kSource) continue;
    BufWriter w(32);
    w.write_pod(std::uint8_t{kMsgTrigger});
    w.write_pod(fence_);
    w.write_varint(epoch);
    w.write_varint(t.gid);
    comm_.send_sized(cfg_.coordinator, t.node, tag_ctrl_, kCtrlBytes, w.take());
  }
}

void StreamRuntime::on_task_ack(std::uint64_t epoch, std::size_t gid, double wm,
                                Bytes state) {
  if (recovering_ || epoch != epoch_ || acks_.contains(gid)) return;
  acks_.emplace(gid, std::move(state));
  if (gid == sink_gid_) sink_wm_pending_ = wm;
  if (acks_.size() < tasks_.size()) return;

  // Every task snapshotted epoch `epoch`; make the checkpoint durable, then
  // complete. The state bytes stay in coordinator memory (the namenode role);
  // the Dfs write provides the replication cost and availability semantics.
  std::uint64_t bytes = 64 * tasks_.size();
  for (const auto& [g, st] : acks_) bytes += st.size();
  // Later jobs on a reused runtime get their own names; the first job keeps
  // the plain one, which EC shard placement hashes.
  const std::string job = submits_ == 1 ? "" : "j" + std::to_string(submits_) + "-";
  const std::string file = "stream-ckpt-" + job + std::to_string(epoch);
  const std::uint64_t f = fence_;
  const double sink_w = sink_wm_pending_;
  const auto finish = [this, epoch, f, file, sink_w](bool ok) {
    if (!running_ || fence_ != f) return;
    if (!ok) {
      // Not durable: epoch stays uncompleted (nothing commits), but the
      // pipeline keeps running — a later epoch's checkpoint supersedes it
      // and commits are cumulative.
      ++stats_.ckpt_write_failures;
      schedule_next_trigger();
      return;
    }
    ++stats_.checkpoints_written;
    ckpt_state_ = std::move(acks_);
    acks_.clear();
    ckpt_file_ = file;
    sink_wm_ = sink_w;
    complete_epoch(epoch);
  };
  if (dfs_ != nullptr) {
    dfs_->write(cfg_.coordinator, file, bytes, opts_.checkpoint_policy, finish);
  } else {
    finish(true);
  }
}

void StreamRuntime::complete_epoch(std::uint64_t epoch) {
  last_completed_ = epoch;
  Task& sink = tasks_[sink_gid_];
  std::uint64_t committed_now = 0;
  while (!sink.pending.empty() && sink.pending.begin()->first <= epoch) {
    for (TimedRow& row : sink.pending.begin()->second) {
      committed_.push_back(CommittedRow{std::move(row), sim().now()});
      ++committed_now;
    }
    sink.pending.erase(sink.pending.begin());
  }
  stats_.rows_committed += committed_now;
  ++stats_.epochs_completed;
  if (std::isfinite(sink_wm_)) {
    stats_.watermark_lag_ms =
        static_cast<std::int64_t>((sim().now() - sink_wm_) * 1000.0);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.name = "epoch-" + std::to_string(epoch);
    ev.category = "dstream";
    ev.ts_us = static_cast<std::uint64_t>(epoch_t0_ * 1e6);
    ev.dur_us = static_cast<std::uint64_t>((sim().now() - epoch_t0_) * 1e6);
    ev.items = committed_now;
    ev.has_items = true;
    trace_->record(ev);
  }
  if (on_epoch_) on_epoch_(epoch, sink_wm_);
  if (sink_wm_ == kInf) {
    finish_job(true, {});
    return;
  }
  schedule_next_trigger();
}

void StreamRuntime::schedule_next_trigger() {
  const std::uint64_t f = fence_;
  const std::uint64_t next = epoch_ + 1;
  const double at = std::max(sim().now(), epoch_t0_ + kEpochInterval);
  sim().schedule_at(at, [this, f, next] {
    if (running_ && fence_ == f && !recovering_) trigger_epoch(next);
  });
}

void StreamRuntime::finish_job(bool ok, std::string error) {
  running_ = false;
  ++fence_;  // invalidate every outstanding scheduled callback
  members_.job_finished();
  stats_.heartbeats = members_.stats().heartbeats - beats_at_submit_;
  StreamResult res;
  res.ok = ok;
  res.error = std::move(error);
  res.makespan = sim().now() - start_;
  res.committed = std::move(committed_);
  committed_.clear();
  tasks_.clear();
  channels_.clear();
  edges_.clear();
  if (done_) {
    DoneFn d = std::move(done_);
    done_ = nullptr;
    d(res);
  }
}

// ---------------------------------------------------------------------------
// Control plane: barriers, restores, failure recovery
// ---------------------------------------------------------------------------

void StreamRuntime::on_ctrl(std::size_t rank, const Bytes& payload) {
  if (!running_ || !members_.alive(rank)) return;
  BufReader r(payload);
  const auto type = r.read_pod<std::uint8_t>();
  const auto fence = r.read_pod<std::uint64_t>();
  if (!fence_ok(fence)) {
    ++stats_.stale_dropped;
    return;
  }
  switch (type) {
    case kMsgTrigger: {
      const std::uint64_t epoch = r.read_varint();
      const std::size_t gid = r.read_varint();
      Task& t = tasks_[gid];
      if (t.node != rank) return;
      // The source barrier: everything emitted so far is epoch data ahead of
      // it, and the snapshot (the replay offset) is taken at this exact cut.
      enqueue_barrier(t, epoch, t.src_wm);
      Bytes state = snapshot(t);
      BufWriter w(state.size() + 48);
      w.write_pod(std::uint8_t{kMsgTaskAck});
      w.write_pod(fence_);
      w.write_varint(epoch);
      w.write_varint(t.gid);
      w.write_pod(t.src_wm);
      w.write_bytes(state);
      comm_.send_sized(rank, cfg_.coordinator, tag_ctrl_,
                       kCtrlBytes + state.size(), w.take());
      break;
    }
    case kMsgTaskAck: {
      if (rank != cfg_.coordinator) return;
      const std::uint64_t epoch = r.read_varint();
      const std::size_t gid = r.read_varint();
      const double wm = r.read_pod<double>();
      on_task_ack(epoch, gid, wm, r.read_bytes());
      break;
    }
    case kMsgRestore: {
      const std::size_t gid = r.read_varint();
      Task& t = tasks_[gid];
      if (t.node != rank) return;
      restore_task(t, r.read_bytes());
      BufWriter w(16);
      w.write_pod(std::uint8_t{kMsgRestoreAck});
      w.write_pod(fence_);
      w.write_varint(gid);
      comm_.send_sized(rank, cfg_.coordinator, tag_ctrl_, kCtrlBytes, w.take());
      break;
    }
    case kMsgRestoreAck: {
      if (rank != cfg_.coordinator) return;
      on_restore_ack(r.read_varint());
      break;
    }
    default:
      break;
  }
}

void StreamRuntime::on_declared_dead(std::size_t node) {
  if (!running_) return;
  for (const Task& t : tasks_) {
    if (t.node == node) {
      start_recovery();
      return;
    }
  }
}

void StreamRuntime::start_recovery() {
  // A death detected DURING a recovery lands here again: the fence bump
  // orphans the in-flight restore round and a fresh one starts.
  ++fence_;
  recovering_ = true;
  ++stats_.recoveries;
  const double rec_t0 = sim().now();

  std::vector<std::size_t> live;
  for (std::size_t r = 0; r < comm_.nranks(); ++r) {
    if (r != cfg_.coordinator && !members_.declared_dead(r)) live.push_back(r);
  }
  const std::uint64_t f = fence_;
  if (live.empty()) {
    sim().schedule_after(kRetryDelay, [this, f] {
      if (running_ && fence_ == f) start_recovery();
    });
    return;
  }
  for (Task& t : tasks_) {
    if (spec_.stages[t.stage].kind == StreamStage::Kind::kSink) continue;
    if (members_.declared_dead(t.node)) t.node = live[reassign_rr_++ % live.size()];
  }

  // Global rollback to the last completed epoch: wipe every channel and every
  // task's volatile state; the restore round rebuilds it from the checkpoint.
  if (epoch_ > last_completed_) stats_.epochs_aborted += epoch_ - last_completed_;
  epoch_ = last_completed_;
  acks_.clear();
  for (Channel& ch : channels_) {
    ch.open.clear();
    ch.window.arm(init_credits_);
    ch.next_seq = 0;
    ch.expect_seq = 0;
    ch.stash.clear();
    ch.blocked = false;
    ch.backlog.clear();
  }
  for (Task& t : tasks_) {
    t.busy_until = sim().now();
    t.aligned = 0;
    t.paused = false;
    t.offset = 0;
    t.src_wm = kNegInf;
    t.epoch_buf.clear();
    t.pending.clear();  // uncommitted epochs replay; committed_ is untouched
    const StreamStage& st = spec_.stages[t.stage];
    if (st.kind == StreamStage::Kind::kAggregate) {
      t.agg = std::make_unique<SumAggregator>(
          dataflow::stream::WindowSpec::tumbling(spec_.opts.window), kInf,
          RowKeyFn{}, RowCombineFn{});
    } else if (st.kind == StreamStage::Kind::kDistinct) {
      t.dis = std::make_unique<DistinctAggregator>(
          dataflow::stream::WindowSpec::tumbling(spec_.opts.window), kInf,
          RowIdentityFn{}, RowCountFn{});
    } else if (st.kind == StreamStage::Kind::kJoin) {
      t.join = std::make_unique<RowWindowJoin>(spec_.opts.window, kInf,
                                               TimedRowKeyFn{}, TimedRowKeyFn{});
    }
  }
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.name = "recovery";
    ev.category = "dstream";
    ev.ts_us = static_cast<std::uint64_t>(rec_t0 * 1e6);
    ev.dur_us = 0;
    trace_->record(ev);
  }

  if (last_completed_ == 0 || dfs_ == nullptr) {
    send_restores();  // nothing durable yet: restart from scratch
    return;
  }
  read_checkpoint(f);
}

// Read the checkpoint back (availability + I/O realism; the bytes live in
// coordinator memory). Retry through transient Dfs unavailability until the
// recovery round `fence` is superseded.
void StreamRuntime::read_checkpoint(std::uint64_t fence) {
  if (!running_ || fence_ != fence) return;
  dfs_->read(cfg_.coordinator, ckpt_file_, [this, fence](bool ok) {
    if (!running_ || fence_ != fence) return;
    if (ok) {
      send_restores();
      return;
    }
    sim().schedule_after(kRetryDelay, [this, fence] { read_checkpoint(fence); });
  });
}

void StreamRuntime::send_restores() {
  restore_acks_ = 0;
  for (const Task& t : tasks_) {
    Bytes state;
    if (last_completed_ > 0) {
      auto it = ckpt_state_.find(t.gid);
      if (it != ckpt_state_.end()) state = it->second;
    }
    BufWriter w(state.size() + 32);
    w.write_pod(std::uint8_t{kMsgRestore});
    w.write_pod(fence_);
    w.write_varint(t.gid);
    w.write_bytes(state);
    comm_.send_sized(cfg_.coordinator, t.node, tag_ctrl_,
                     kCtrlBytes + state.size(), w.take());
    ++stats_.restores_sent;
  }
}

void StreamRuntime::on_restore_ack(std::size_t gid) {
  (void)gid;
  if (!recovering_) return;
  if (++restore_acks_ < tasks_.size()) return;
  recovering_ = false;
  // Everything restored under the new fence: restart the source generators
  // (they replay from the restored offsets) and trigger the next epoch.
  const std::uint64_t f = fence_;
  for (const Task& t : tasks_) {
    if (spec_.stages[t.stage].kind != StreamStage::Kind::kSource) continue;
    const std::size_t gid2 = t.gid;
    sim().schedule_after(0, [this, gid2, f] {
      if (running_ && fence_ == f) source_pump(gid2);
    });
  }
  epoch_t0_ = sim().now();
  const std::uint64_t next = last_completed_ + 1;
  sim().schedule_after(0, [this, f, next] {
    if (running_ && fence_ == f && !recovering_) trigger_epoch(next);
  });
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void StreamRuntime::export_metrics(obs::MetricsRegistry& reg) const {
  const auto set = [&reg](const char* name, std::uint64_t v) {
    reg.gauge(std::string("dstream.") + name).set(static_cast<std::int64_t>(v));
  };
  reg.gauge("dstream.watermark_lag_ms").set(stats_.watermark_lag_ms);
  set("epochs_completed", stats_.epochs_completed);
  set("events_late_dropped", stats_.events_late_dropped);
  set("events_emitted", stats_.events_emitted);
  set("rows_committed", stats_.rows_committed);
  set("recoveries", stats_.recoveries);
  set("backpressure_pauses", stats_.backpressure_pauses);
}

}  // namespace hpbdc::dstream
