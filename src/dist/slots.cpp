#include "dist/slots.hpp"

#include <algorithm>
#include <stdexcept>

namespace hpbdc::dist {

JobSlotPool::JobSlotPool(sim::Comm& comm, DistConfig cfg, std::size_t slots,
                         sim::Dfs* dfs)
    : comm_(comm),
      cfg_(cfg),
      dfs_(dfs),
      membership_(comm, cfg.driver, cfg.heartbeat_interval, cfg.heartbeat_timeout,
                  cfg.heartbeat_jitter, cfg.seed, dfs) {
  if (slots == 0) throw std::invalid_argument("JobSlotPool: zero slots");
  draining_.assign(comm.nranks(), false);
  for (std::size_t i = 0; i < slots; ++i) make_slot(i);
}

JobSlotPool::Slot& JobSlotPool::make_slot(std::size_t index) {
  DistConfig sc = cfg_;
  sc.seed = mix_seed(cfg_.seed, index + 1);
  slots_.push_back(std::make_unique<Slot>(comm_, sc, dfs_, membership_));
  ++active_;
  return *slots_.back();
}

std::size_t JobSlotPool::add_slot() {
  if (!retired_.empty()) {
    const std::size_t i = retired_.back();
    retired_.pop_back();
    slots_[i]->retired = false;
    ++active_;
    return i;
  }
  const std::size_t i = slots_.size();
  Slot& slot = make_slot(i);
  for (std::size_t n = 0; n < draining_.size(); ++n) {
    if (draining_[n]) slot.rt.set_node_draining(n, true);
  }
  return i;
}

bool JobSlotPool::retire_idle_slot() {
  if (active_ <= 1) return false;
  for (std::size_t i = slots_.size(); i-- > 0;) {
    Slot& slot = *slots_[i];
    if (slot.retired || slot.busy) continue;
    slot.retired = true;
    retired_.push_back(i);
    --active_;
    return true;
  }
  return false;
}

void JobSlotPool::submit(JobSpec job, DistRuntime::JobDoneFn done) {
  submit(std::move(job), RuntimeOptions{}, std::move(done));
}

void JobSlotPool::submit(JobSpec job, const RuntimeOptions& opts,
                         DistRuntime::JobDoneFn done) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = *slots_[i];
    if (slot.busy || slot.retired) continue;
    slot.busy = true;
    ++busy_;
    slot.rt.submit(std::move(job), opts,
                   [this, i, done = std::move(done)](const JobResult& r) {
                     slots_[i]->busy = false;
                     --busy_;
                     if (done) done(r);
                   });
    return;
  }
  throw std::logic_error("JobSlotPool: saturated (check saturated() first)");
}

std::size_t JobSlotPool::reserve_slot() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i]->busy || slots_[i]->retired) continue;
    slots_[i]->busy = true;
    ++busy_;
    return i;
  }
  throw std::logic_error("JobSlotPool: saturated (check saturated() first)");
}

void JobSlotPool::release_slot(std::size_t i) {
  Slot& slot = *slots_.at(i);
  if (!slot.busy) throw std::logic_error("JobSlotPool: slot not reserved");
  slot.busy = false;
  --busy_;
}

void JobSlotPool::set_node_draining(std::size_t node, bool draining) {
  for (auto& s : slots_) s->rt.set_node_draining(node, draining);
  draining_.at(node) = draining;
}

void JobSlotPool::export_metrics(obs::MetricsRegistry& reg) const {
  std::size_t in_flight = 0;
  for (const auto& s : slots_) in_flight += s->rt.flow_segments_in_flight();
  dist::export_metrics(reg, aggregate_stats(), live_executors());
  flow::export_metrics(reg, aggregate_flow_stats(), in_flight);
}

DistStats JobSlotPool::aggregate_stats() const {
  DistStats sum;
  for (const auto& s : slots_) {
    const DistStats st = s->rt.stats();
    sum.tasks_launched += st.tasks_launched;
    sum.tasks_completed += st.tasks_completed;
    sum.task_retries += st.task_retries;
    sum.tasks_recomputed += st.tasks_recomputed;
    sum.speculative_launched += st.speculative_launched;
    sum.speculative_won += st.speculative_won;
    sum.shuffle_bytes += st.shuffle_bytes;
    sum.shuffle_bytes_local += st.shuffle_bytes_local;
    sum.shuffle_bytes_remote += st.shuffle_bytes_remote;
    sum.fetch_failures += st.fetch_failures;
    sum.locality_hits += st.locality_hits;
    sum.locality_misses += st.locality_misses;
    sum.checkpoints_written += st.checkpoints_written;
    sum.checkpoint_restores += st.checkpoint_restores;
    sum.sink_writes += st.sink_writes;
    sum.stale_events_ignored += st.stale_events_ignored;
    sum.max_failures_one_task =
        std::max(sum.max_failures_one_task, st.max_failures_one_task);
  }
  sum.heartbeats_received = membership_.stats().heartbeats;
  sum.executors_declared_dead = membership_.stats().declared_dead;
  return sum;
}

flow::FlowStats JobSlotPool::aggregate_flow_stats() const {
  flow::FlowStats sum;
  for (const auto& s : slots_) {
    const flow::FlowStats& st = s->rt.flow_stats();
    sum.segments_pushed += st.segments_pushed;
    sum.multicast_segments += st.multicast_segments;
    sum.bytes_pushed += st.bytes_pushed;
    sum.credit_stalls += st.credit_stalls;
    sum.streams_completed += st.streams_completed;
    sum.streams_broken += st.streams_broken;
    sum.waits_satisfied += st.waits_satisfied;
    sum.overlap_wait_s += st.overlap_wait_s;
  }
  return sum;
}

}  // namespace hpbdc::dist
