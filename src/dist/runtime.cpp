#include "dist/runtime.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace hpbdc::dist {

using sim::SimTime;

namespace {

constexpr double kTaskOverhead = 2e-3;  // fixed per-task startup (s)
constexpr std::uint64_t kRpcBytes = 256;  // control-plane message body size

}  // namespace

DistRuntime::DistRuntime(sim::Comm& comm, DistConfig cfg, sim::Dfs* dfs,
                         sim::Membership* members)
    : comm_(comm),
      cfg_(cfg),
      dfs_(dfs),
      tag_exec_(comm.next_tag()),
      tag_drv_(comm.next_tag()),
      members_(members) {
  const std::size_t n = comm.nranks();
  if (cfg_.driver >= n) throw std::invalid_argument("DistRuntime: bad driver rank");
  if (cfg_.slots_per_node == 0) {
    throw std::invalid_argument("DistRuntime: zero slots per node");
  }
  if (members_ == nullptr) {
    own_members_ = std::make_unique<sim::Membership>(
        comm, cfg_.driver, cfg_.heartbeat_interval, cfg_.heartbeat_timeout,
        cfg_.heartbeat_jitter, cfg_.seed, dfs_);
    members_ = own_members_.get();
  }
  members_->subscribe(*this);
  execs_.assign(n, ExecState(cfg_));
  // Straggler assignment: a seeded random subset runs degraded.
  if (cfg_.straggler_fraction > 0) {
    Rng srng(mix_seed(cfg_.seed, 3));
    std::vector<std::size_t> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = i;
    srng.shuffle(ids);
    const auto k = static_cast<std::size_t>(cfg_.straggler_fraction *
                                            static_cast<double>(n));
    for (std::size_t i = 0; i < k; ++i) execs_[ids[i]].speed = cfg_.straggler_speed;
  }
  for (std::size_t node = 0; node < n; ++node) {
    comm_.set_handler(node, tag_exec_, [this, node](std::size_t, const Bytes& p) {
      on_exec_msg(node, p);
    });
  }
  comm_.set_handler(cfg_.driver, tag_drv_,
                    [this](std::size_t, const Bytes& p) {
                      BufReader r(p);
                      const auto type = r.read_pod<std::uint8_t>();
                      const auto id = r.read_pod<std::uint64_t>();
                      if (!active_ || !attempts_.contains(id)) {
                        // A task event straggling in after the job finished
                        // (or from a forgotten epoch) must not mutate state —
                        // the chaos oracle checks this counter is the only
                        // thing such events move.
                        stats_.stale_events_ignored++;
                        return;
                      }
                      switch (type) {
                        case kTaskDone: on_task_done(id); break;
                        case kTaskFailed: on_attempt_failed(id, true); break;
                        case kFetchFailed: {
                          const auto ps = r.read_pod<std::uint64_t>();
                          const auto pt = r.read_pod<std::uint64_t>();
                          on_fetch_failed(id, ps, pt);
                          break;
                        }
                        default: break;
                      }
                    });
  // Transports are built last so tag allocation order (exec, driver, flow)
  // is fixed; the active one is selected per job in submit().
  pull_ = std::make_unique<PullTransport>(make_transport_env());
  push_ = std::make_unique<PushTransport>(make_transport_env());
  transport_ = pull_.get();
}

ShuffleTransport::Env DistRuntime::make_transport_env() {
  ShuffleTransport::Env env;
  env.comm = &comm_;
  env.driver = cfg_.driver;
  env.node_alive = [this](std::size_t n) { return members_->alive(n); };
  env.disk = [this](std::size_t n) -> sim::Disk& { return execs_[n].disk; };
  env.attempt_dead = [this](std::uint64_t id) { return attempt_dead(id); };
  env.parent_output = [this](std::size_t ps, std::size_t pt) {
    const TaskState& t = tasks_[ps][pt];
    return ShuffleTransport::Env::ParentOutput{t.status == TStatus::Done,
                                               t.output_node, &t.out_sim_sizes};
  };
  env.stage_checkpointed = [this](std::size_t ps) { return stages_[ps].checkpointed; };
  env.ckpt_replica = [this](std::size_t ps, std::size_t near) -> std::size_t {
    if (!stages_[ps].checkpointed || !ckpt_data_.contains(ps) || dfs_ == nullptr) {
      return kNone;
    }
    std::size_t best = kNone, best_hops = ~std::size_t{0};
    for (auto r : dfs_->block_locations(ckpt_file(ps), 0)) {
      if (!members_->alive(r)) continue;
      const std::size_t h = comm_.network().hops(near, r);
      if (h < best_hops) {
        best_hops = h;
        best = r;
      }
    }
    return best;
  };
  env.ckpt_block = [this](std::size_t ps, std::size_t pt, std::size_t child) {
    return ckpt_data_.at(ps).at(pt).at(child);
  };
  env.count_fetch = [this](std::uint64_t bytes, bool local, bool from_ckpt) {
    stats_.shuffle_bytes += bytes;
    if (local) {
      stats_.shuffle_bytes_local += bytes;
    } else {
      stats_.shuffle_bytes_remote += bytes;
    }
    if (from_ckpt) {
      stats_.checkpoint_restores++;
    }
  };
  env.count_fetch_failure = [this] { stats_.fetch_failures++; };
  return env;
}

void export_metrics(obs::MetricsRegistry& reg, const DistStats& st,
                    std::size_t executors_live) {
  const auto set = [&reg](const char* name, std::uint64_t v) {
    reg.gauge(std::string("dist.") + name).set(static_cast<std::int64_t>(v));
  };
  set("tasks_launched", st.tasks_launched);
  set("task_retries", st.task_retries);
  set("tasks_recomputed", st.tasks_recomputed);
  set("shuffle_bytes", st.shuffle_bytes);
  set("shuffle_bytes_local", st.shuffle_bytes_local);
  set("shuffle_bytes_remote", st.shuffle_bytes_remote);
  set("locality_hits", st.locality_hits);
  set("locality_misses", st.locality_misses);
  set("speculative_launched", st.speculative_launched);
  set("checkpoint_restores", st.checkpoint_restores);
  set("stale_events_ignored", st.stale_events_ignored);
  set("max_failures_one_task", st.max_failures_one_task);
  set("executors_live", executors_live);
}

void DistRuntime::export_metrics(obs::MetricsRegistry& reg) const {
  dist::export_metrics(reg, stats_, live_executors());
  flow::export_metrics(reg, flow_stats(), flow_segments_in_flight());
}

void DistRuntime::bind_trace(obs::TraceSession& session) { trace_ = &session; }

void DistRuntime::trace_span(const std::string& name, const std::string& cat,
                             SimTime start, SimTime end, std::uint32_t tid,
                             std::uint64_t items) {
  if (trace_ == nullptr) return;
  trace_->record(obs::TraceEvent{name, cat,
                                 static_cast<std::uint64_t>(start * 1e6),
                                 static_cast<std::uint64_t>((end - start) * 1e6),
                                 tid, items, items > 0});
}

DistStats DistRuntime::stats() const {
  DistStats st = stats_;
  st.heartbeats_received = members_->stats().heartbeats;
  st.executors_declared_dead = members_->stats().declared_dead;
  return st;
}

// Runtimes sharing one Dfs (a JobSlotPool's slots) may run jobs of the same
// name at the same epoch; the runtime's Comm tag, unique per runtime, keeps
// their checkpoints apart.
std::string DistRuntime::ckpt_file(std::size_t stage) const {
  return "/.ckpt/" + job_.name + ".r" + std::to_string(tag_exec_) + "." +
         std::to_string(epoch_) + "/stage" + std::to_string(stage);
}

// ---------------------------------------------------------------------------
// Submission and the scheduling loop (driver side)
// ---------------------------------------------------------------------------

void DistRuntime::submit(JobSpec job, JobDoneFn done) {
  submit(std::move(job), RuntimeOptions{}, std::move(done));
}

void DistRuntime::submit(JobSpec job, const RuntimeOptions& opts, JobDoneFn done) {
  if (active_) throw std::logic_error("DistRuntime: a job is already running");
  if (job.stages.empty()) throw std::invalid_argument("DistRuntime: empty job");
  for (std::size_t s = 0; s < job.stages.size(); ++s) {
    const auto& spec = job.stages[s];
    if (spec.ntasks == 0) throw std::invalid_argument("DistRuntime: zero tasks");
    if (!spec.run) throw std::invalid_argument("DistRuntime: stage without run fn");
    for (auto p : spec.parents) {
      if (p >= s) throw std::invalid_argument("DistRuntime: stages not topo-ordered");
    }
  }
  ++epoch_;
  active_ = true;
  opts_ = opts;
  job_ = std::move(job);
  done_cb_ = std::move(done);
  submit_time_ = sim().now();
  stages_.assign(job_.stages.size(), StageState{});
  tasks_.clear();
  for (const auto& spec : job_.stages) {
    tasks_.emplace_back(spec.ntasks, TaskState{});
  }
  attempts_.clear();
  ckpt_data_.clear();
  late_ = cluster::LatePolicy();
  result_ = JobResult{};
  result_.output.assign(job_.stages.back().ntasks, {});
  result_received_ = 0;
  for (auto& e : execs_) e.busy = 0;
  // Fence BOTH transports into the new epoch (the inactive one must drop its
  // previous job's stores/streams too), then select the active one.
  pull_->begin_job(&job_, epoch_, opts_);
  push_->begin_job(&job_, epoch_, opts_);
  transport_ = opts_.transport == TransportKind::kPush
                   ? static_cast<ShuffleTransport*>(push_.get())
                   : static_cast<ShuffleTransport*>(pull_.get());
  members_->job_started();
  schedule();
}

bool DistRuntime::stage_available(std::size_t s) const {
  for (auto p : job_.stages[s].parents) {
    if (stages_[p].done != job_.stages[p].ntasks && !stages_[p].checkpointed) {
      return false;
    }
  }
  return true;
}

bool DistRuntime::stage_retired(std::size_t s) const {
  // Outputs of a retired stage can never be needed again: the final stage's
  // results live at the driver the moment each task completes, a durable
  // checkpoint substitutes for recompute, and otherwise every consumer (and
  // transitively *its* consumers) must be done.
  if (s + 1 == job_.stages.size()) return true;
  if (stages_[s].checkpointed) return true;
  for (std::size_t c = s + 1; c < job_.stages.size(); ++c) {
    const auto& ps = job_.stages[c].parents;
    if (std::find(ps.begin(), ps.end(), s) == ps.end()) continue;
    if (stages_[c].done != job_.stages[c].ntasks || !stage_retired(c)) return false;
  }
  return true;
}

void DistRuntime::schedule() {
  if (!active_) return;
  // Free-slot pool; refreshed lazily as launches consume slots.
  auto pick_node = [this](std::size_t stage, std::size_t task) {
    const StageSpec& spec = job_.stages[stage];
    std::size_t best = kNone, best_free = 0;
    if (!spec.input_file.empty() && dfs_ != nullptr && dfs_->exists(spec.input_file) &&
        task < dfs_->block_count(spec.input_file)) {
      for (auto r : dfs_->block_locations(spec.input_file, task)) {
        auto& e = execs_[r];
        if (usable(r) && !e.draining && e.busy < cfg_.slots_per_node) {
          stats_.locality_hits++;
          return r;
        }
      }
      stats_.locality_misses++;
    }
    // Transport placement hint (push: the flow target already buffering this
    // task's input). The pull transport never hints, so its scheduling is
    // untouched.
    const std::size_t pref = transport_->preferred_node(stage, task);
    if (pref != kNone) {
      auto& e = execs_[pref];
      if (usable(pref) && !e.draining && e.busy < cfg_.slots_per_node) {
        return pref;
      }
    }
    for (std::size_t n = 0; n < execs_.size(); ++n) {
      auto& e = execs_[n];
      if (!usable(n) || e.draining || e.busy >= cfg_.slots_per_node) continue;
      const std::size_t free = cfg_.slots_per_node - e.busy;
      if (free > best_free) {
        best_free = free;
        best = n;
      }
    }
    return best;
  };

  for (std::size_t s = 0; s < job_.stages.size(); ++s) {
    if (stages_[s].done == job_.stages[s].ntasks) continue;
    if (!stage_available(s)) continue;
    for (std::size_t t = 0; t < job_.stages[s].ntasks; ++t) {
      TaskState& task = tasks_[s][t];
      if (task.status != TStatus::Pending) continue;
      // Genuine task failures are bounded by max_task_attempts; total launches
      // (including benign churn from node deaths and lost shuffle outputs) get
      // a generous hard cap so a pathological cluster cannot loop forever.
      if (task.failures >= cfg_.max_task_attempts ||
          task.attempts >= cfg_.max_task_attempts * 25) {
        finish(false);
        return;
      }
      const std::size_t node = pick_node(s, t);
      if (node == kNone) return;  // cluster saturated; resume on next event
      launch(s, t, node, /*spec=*/false);
    }
  }
  speculate();
}

void DistRuntime::launch(std::size_t stage, std::size_t task, std::size_t node,
                         bool spec) {
  TaskState& ts = tasks_[stage][task];
  if (stages_[stage].start < 0) stages_[stage].start = sim().now();
  const std::uint64_t id = next_attempt_id_++;
  attempts_[id] = Attempt{stage, task, node, sim().now(), spec, false};
  ts.live_attempts.push_back(id);
  ts.attempts++;
  ts.status = TStatus::Running;
  execs_[node].busy++;
  stats_.tasks_launched++;
  if (spec) {
    stats_.speculative_launched++;
  } else if (ts.ever_done) {
    stats_.tasks_recomputed++;
  }
  BufWriter w;
  w.write_pod<std::uint8_t>(kLaunch);
  w.write_pod<std::uint64_t>(id);
  send_to_exec(node, w.take());
}

void DistRuntime::speculate() {
  if (!cfg_.speculate || !active_) return;
  for (std::size_t s = 0; s < job_.stages.size(); ++s) {
    // A lineage rollback can leave a child task Running (on a doomed
    // attempt) while its parent recomputes; a backup launched now would
    // only fail its fetches instantly, so wait until inputs exist again.
    if (!stage_available(s)) continue;
    for (std::size_t t = 0; t < job_.stages[s].ntasks; ++t) {
      TaskState& ts = tasks_[s][t];
      if (ts.status != TStatus::Running || ts.live_attempts.size() != 1) continue;
      const Attempt& a = attempts_.at(ts.live_attempts.front());
      if (a.speculative) continue;
      // Speculation bypasses schedule()'s attempt cap (the task is Running,
      // not Pending), so bound it here too: a task whose backups keep dying
      // would otherwise relaunch them unboundedly while the original hangs.
      if (ts.attempts >= cfg_.max_task_attempts * 25) continue;
      if (!late_.exceeds(sim().now() - a.launched)) continue;
      // Backup on the least-loaded free node other than the original's.
      std::size_t best = kNone, best_free = 0;
      for (std::size_t n = 0; n < execs_.size(); ++n) {
        auto& e = execs_[n];
        if (n == a.node || !usable(n) || e.draining) continue;
        if (e.busy >= cfg_.slots_per_node) continue;
        const std::size_t free = cfg_.slots_per_node - e.busy;
        if (free > best_free) {
          best_free = free;
          best = n;
        }
      }
      if (best == kNone) return;
      launch(s, t, best, /*spec=*/true);
    }
  }
}

// ---------------------------------------------------------------------------
// Message plumbing
// ---------------------------------------------------------------------------

void DistRuntime::send_to_exec(std::size_t node, Bytes payload) {
  comm_.send_sized(cfg_.driver, node, tag_exec_, kRpcBytes, std::move(payload));
}

void DistRuntime::send_to_driver(std::size_t node, std::uint64_t body,
                                 Bytes payload) {
  comm_.send_sized(node, cfg_.driver, tag_drv_, body, std::move(payload));
}

void DistRuntime::on_exec_msg(std::size_t node, const Bytes& payload) {
  BufReader r(payload);
  const auto type = r.read_pod<std::uint8_t>();
  const auto id = r.read_pod<std::uint64_t>();
  auto it = attempts_.find(id);
  if (it == attempts_.end()) return;
  switch (type) {
    case kLaunch:
      exec_start(id);
      break;
    case kCancel:
      it->second.cancelled = true;
      break;
    default:
      break;
  }
  (void)node;
}

bool DistRuntime::attempt_dead(std::uint64_t attempt_id) const {
  auto it = attempts_.find(attempt_id);
  if (!active_ || it == attempts_.end() || it->second.cancelled) return true;
  return !members_->alive(it->second.node);
}

// ---------------------------------------------------------------------------
// Executor side: fetch -> compute -> register output -> report
// ---------------------------------------------------------------------------

void DistRuntime::exec_start(std::uint64_t attempt_id) {
  if (attempt_dead(attempt_id)) return;
  const Attempt a = attempts_.at(attempt_id);
  const StageSpec& spec = job_.stages[a.stage];
  sim::Network& net = comm_.network();

  // Joint completion state: the transport's collect() is one pending unit,
  // the stage-external input read (if any) another. Whoever finishes last
  // triggers compute with the summed input volume.
  struct JoinCtx {
    std::size_t pending = 0;
    bool failed = false;
    std::uint64_t bytes_in = 0;
    std::shared_ptr<std::vector<std::vector<Bytes>>> inputs;
  };
  auto ctx = std::make_shared<JoinCtx>();
  ctx->inputs = std::make_shared<std::vector<std::vector<Bytes>>>();

  // Stage-external input (DFS block or local scan), charged like a fetch.
  // Resolved before collect() so an unreadable input fails the attempt
  // without scheduling any shuffle traffic.
  std::size_t input_src = a.node;
  const bool have_input = spec.input_bytes_per_task > 0;
  if (have_input && !spec.input_file.empty() && dfs_ != nullptr &&
      dfs_->exists(spec.input_file) &&
      a.task < dfs_->block_count(spec.input_file)) {
    std::size_t best = kNone, best_hops = ~std::size_t{0};
    for (auto r : dfs_->block_locations(spec.input_file, a.task)) {
      if (!members_->alive(r)) continue;
      const std::size_t h = net.hops(a.node, r);
      if (h < best_hops) {
        best_hops = h;
        best = r;
      }
    }
    if (best == kNone) {
      // No live replica of the input block: the attempt fails outright.
      BufWriter w;
      w.write_pod<std::uint8_t>(kTaskFailed);
      w.write_pod<std::uint64_t>(attempt_id);
      send_to_driver(a.node, kRpcBytes, w.take());
      return;
    }
    input_src = best;
  }

  ctx->pending = 1 + (have_input ? 1 : 0);

  ShuffleTransport::CollectRequest req;
  req.attempt_id = attempt_id;
  req.node = a.node;
  req.stage = a.stage;
  req.task = a.task;
  req.inputs = ctx->inputs;
  req.on_ready = [this, attempt_id, ctx](std::uint64_t shuffle_bytes) {
    if (attempt_dead(attempt_id) || ctx->failed) return;
    ctx->bytes_in += shuffle_bytes;
    if (--ctx->pending == 0) {
      exec_compute(attempt_id, ctx->inputs, ctx->bytes_in);
    }
  };
  req.on_missing = [this, attempt_id, ctx](std::size_t ps, std::size_t pt) {
    if (ctx->failed) return;
    ctx->failed = true;
    const Attempt& a2 = attempts_.at(attempt_id);
    BufWriter w;
    w.write_pod<std::uint8_t>(kFetchFailed);
    w.write_pod<std::uint64_t>(attempt_id);
    w.write_pod<std::uint64_t>(static_cast<std::uint64_t>(ps));
    w.write_pod<std::uint64_t>(static_cast<std::uint64_t>(pt));
    send_to_driver(a2.node, kRpcBytes, w.take());
  };
  // May complete synchronously (no shuffle parents) or fail synchronously
  // (a parent block with no live source) — check before starting the input.
  transport_->collect(std::move(req));
  if (ctx->failed) return;

  if (have_input) {
    execs_[input_src].disk.access(
        sim(), spec.input_bytes_per_task,
        [this, input_src, attempt_id, ctx, bytes = spec.input_bytes_per_task] {
          if (attempt_dead(attempt_id) || ctx->failed) return;
          comm_.network().send(input_src, attempts_.at(attempt_id).node, bytes,
                               [this, attempt_id, ctx, bytes] {
                                 if (attempt_dead(attempt_id) || ctx->failed) return;
                                 ctx->bytes_in += bytes;
                                 if (--ctx->pending == 0) {
                                   exec_compute(attempt_id, ctx->inputs,
                                                ctx->bytes_in);
                                 }
                               });
        });
  }
}

void DistRuntime::exec_compute(
    std::uint64_t attempt_id,
    std::shared_ptr<std::vector<std::vector<Bytes>>> inputs,
    std::uint64_t bytes_in) {
  if (attempt_dead(attempt_id)) return;
  const Attempt& a = attempts_.at(attempt_id);
  ExecState& ex = execs_[a.node];
  const double delay =
      kTaskOverhead +
      static_cast<double>(bytes_in) / (cfg_.compute_bps * ex.speed);
  sim().schedule_after(delay, [this, attempt_id, inputs] {
    if (attempt_dead(attempt_id)) return;
    const Attempt& a2 = attempts_.at(attempt_id);
    const StageSpec& spec = job_.stages[a2.stage];
    BlockSet bs;
    bs.blocks = spec.run(a2.task, *inputs);
    bs.sim_sizes.reserve(bs.blocks.size());
    for (std::size_t c = 0; c < bs.blocks.size(); ++c) {
      const std::uint64_t sz = spec.sim_out_bytes
                                   ? spec.sim_out_bytes(a2.task, c)
                                   : bs.blocks[c].size();
      bs.sim_sizes.push_back(sz);
      bs.total_sim += sz;
    }
    const std::uint64_t total = bs.total_sim;
    const bool final_stage = a2.stage + 1 == job_.stages.size();
    // Hand the output to the transport (registry record + local-disk spill,
    // plus flow streaming under push); it announces completion afterwards.
    transport_->publish(
        attempt_id, a2.node, a2.stage, a2.task, std::move(bs),
        [this, attempt_id, total, final_stage] {
          if (attempt_dead(attempt_id)) return;
          const Attempt& a3 = attempts_.at(attempt_id);
          BufWriter w;
          w.write_pod<std::uint8_t>(kTaskDone);
          w.write_pod<std::uint64_t>(attempt_id);
          // The result stage ships its blocks to the driver in the done message.
          send_to_driver(a3.node, final_stage ? total : kRpcBytes, w.take());
        });
  });
}

// ---------------------------------------------------------------------------
// Driver-side completion, failure, and recovery handling
// ---------------------------------------------------------------------------

void DistRuntime::on_task_done(std::uint64_t attempt_id) {
  if (!active_) return;
  Attempt& a = attempts_.at(attempt_id);
  if (a.cancelled) return;
  ExecState& ex = execs_[a.node];
  // Results from declared-dead executors are dropped.
  if (members_->declared_dead(a.node)) return;
  TaskState& task = tasks_[a.stage][a.task];
  const BlockSet* pub = transport_->find(a.node, a.stage, a.task);
  if (task.status != TStatus::Done && (!members_->alive(a.node) || pub == nullptr)) {
    // The node died while the done-message was in flight: requeue, uncharged.
    on_attempt_failed(attempt_id, false);
    return;
  }
  auto& live = task.live_attempts;
  live.erase(std::remove(live.begin(), live.end(), attempt_id), live.end());
  a.cancelled = true;
  if (ex.busy > 0) ex.busy--;
  if (task.status == TStatus::Done) return;  // lost a speculative race

  task.status = TStatus::Done;
  task.ever_done = true;
  task.output_node = a.node;
  task.out_sim_sizes = pub->sim_sizes;
  task.total_out_sim = pub->total_sim;
  stages_[a.stage].done++;
  stats_.tasks_completed++;
  late_.record(sim().now() - a.launched);
  if (a.speculative) stats_.speculative_won++;
  trace_span(job_.stages[a.stage].name + ".t" + std::to_string(a.task) +
                 (a.speculative ? "*" : ""),
             "task", a.launched, sim().now(),
             static_cast<std::uint32_t>(a.node) + 1, task.total_out_sim);

  // Cancel losing sibling attempts, freeing their slots.
  for (auto oid : std::vector<std::uint64_t>(live)) {
    Attempt& o = attempts_.at(oid);
    o.cancelled = true;
    if (execs_[o.node].busy > 0) execs_[o.node].busy--;
    BufWriter w;
    w.write_pod<std::uint8_t>(kCancel);
    w.write_pod<std::uint64_t>(oid);
    send_to_exec(o.node, w.take());
  }
  live.clear();

  const bool final_stage = a.stage + 1 == job_.stages.size();
  if (final_stage) {
    result_.output[a.task] = pub->blocks;
    result_received_++;
  }
  if (stages_[a.stage].done == job_.stages[a.stage].ntasks) {
    stages_[a.stage].end = sim().now();
    trace_span(job_.stages[a.stage].name, "stage", stages_[a.stage].start,
               sim().now(), 0, 0);
    maybe_checkpoint(a.stage);
  }
  if (final_stage && result_received_ == job_.stages.back().ntasks) {
    finish(true);
    return;
  }
  schedule();
}

void DistRuntime::on_attempt_failed(std::uint64_t attempt_id, bool charge_budget) {
  if (!active_) return;
  Attempt& a = attempts_.at(attempt_id);
  if (a.cancelled) return;
  a.cancelled = true;
  auto& live = tasks_[a.stage][a.task].live_attempts;
  live.erase(std::remove(live.begin(), live.end(), attempt_id), live.end());
  if (execs_[a.node].busy > 0 && !members_->declared_dead(a.node)) execs_[a.node].busy--;
  TaskState& task = tasks_[a.stage][a.task];
  if (task.status == TStatus::Running && live.empty()) {
    task.status = TStatus::Pending;
  }
  if (charge_budget) {
    task.failures++;
    if (task.failures > stats_.max_failures_one_task) {
      stats_.max_failures_one_task = task.failures;
    }
  }
  stats_.task_retries++;
  schedule();
}

void DistRuntime::on_fetch_failed(std::uint64_t attempt_id, std::size_t pstage,
                                  std::size_t ptask) {
  stats_.fetch_failures++;
  // Lineage fault: the parent's map output is gone. Roll the parent task
  // back to Pending (unless a checkpoint can stand in), then retry the
  // fetching task; schedule() recomputes ancestors in topological order.
  if (!test_no_lineage_ && pstage < tasks_.size() && ptask < tasks_[pstage].size()) {
    TaskState& parent = tasks_[pstage][ptask];
    const bool source_gone =
        parent.output_node == kNone || !members_->alive(parent.output_node) ||
        transport_->find(parent.output_node, pstage, ptask) == nullptr;
    // A checkpoint normally stands in for the lost output — but only while
    // it is actually servable: some live replica (replicated) or >= k live
    // shards (erasure coded; a degraded read still counts). Otherwise drop
    // the checkpoint flag and recompute through lineage; leaving the flag up
    // would keep the child's stage "available" and spin it against the
    // unreadable checkpoint at RPC speed until its attempt budget dies.
    if (source_gone && stages_[pstage].checkpointed) {
      const bool servable = dfs_ != nullptr && ckpt_data_.contains(pstage) &&
                            dfs_->readable(ckpt_file(pstage));
      if (!servable) stages_[pstage].checkpointed = false;
    }
    if (parent.status == TStatus::Done && source_gone &&
        !stages_[pstage].checkpointed) {
      parent.status = TStatus::Pending;
      parent.output_node = kNone;
      stages_[pstage].done--;
    }
  }
  on_attempt_failed(attempt_id, false);
}

void DistRuntime::invalidate_outputs_on(std::size_t node) {
  if (test_no_lineage_) return;  // seeded chaos bug: lost outputs stay "done"
  for (std::size_t s = 0; s < job_.stages.size(); ++s) {
    if (stage_retired(s)) continue;
    for (std::size_t t = 0; t < job_.stages[s].ntasks; ++t) {
      TaskState& task = tasks_[s][t];
      if (task.status == TStatus::Done && task.output_node == node) {
        task.status = TStatus::Pending;
        task.output_node = kNone;
        stages_[s].done--;
      }
    }
  }
}

void DistRuntime::on_declared_dead(std::size_t node) {
  execs_[node].busy = 0;
  if (!active_) return;
  // Fail this node's running attempts and roll back its shuffle outputs
  // (lineage: ancestors whose outputs are still needed go back to Pending).
  for (std::size_t s = 0; s < job_.stages.size(); ++s) {
    for (std::size_t t = 0; t < job_.stages[s].ntasks; ++t) {
      TaskState& task = tasks_[s][t];
      for (auto id : std::vector<std::uint64_t>(task.live_attempts)) {
        if (attempts_.at(id).node == node) on_attempt_failed(id, false);
        if (!active_) return;
      }
    }
  }
  invalidate_outputs_on(node);
  schedule();
}

void DistRuntime::maybe_checkpoint(std::size_t s) {
  const StageSpec& spec = job_.stages[s];
  if (!spec.checkpoint || dfs_ == nullptr || s + 1 == job_.stages.size()) return;
  if (stages_[s].checkpointed || ckpt_data_.contains(s)) return;
  std::uint64_t total = 0;
  std::vector<std::vector<Bytes>> data(spec.ntasks);
  for (std::size_t t = 0; t < spec.ntasks; ++t) {
    const TaskState& task = tasks_[s][t];
    if (task.output_node == kNone) return;
    const BlockSet* bsp = transport_->find(task.output_node, s, t);
    if (bsp == nullptr) return;  // racing death
    data[t] = bsp->blocks;
    total += task.total_out_sim;
  }
  if (total == 0) return;
  ckpt_data_[s] = std::move(data);
  const std::uint64_t epoch = epoch_;
  dfs_->write(cfg_.driver, ckpt_file(s), total, opts_.checkpoint_policy,
              [this, s, epoch](bool ok) {
    if (epoch_ != epoch) return;
    if (ok) {
      stages_[s].checkpointed = true;
      stats_.checkpoints_written++;
    } else {
      ckpt_data_.erase(s);
    }
  });
}

// ---------------------------------------------------------------------------
// Membership events, the hung-attempt sweep, failure injection
// ---------------------------------------------------------------------------

void DistRuntime::on_rejoined(std::size_t node) {
  // A recovered node (or a false positive) re-registers as a fresh
  // executor; its pre-declaration outputs were already invalidated.
  execs_[node].busy = 0;
  if (active_) schedule();
}

void DistRuntime::on_monitor_tick() {
  if (!active_) return;
  // Hung-attempt sweep: guards liveness when control messages are lost.
  // Uncharged — a timed-out attempt is lost RPCs or congestion, not a task
  // bug; the hard launch cap in schedule() still bounds pathological churn.
  const SimTime now = sim().now();
  std::vector<std::uint64_t> stale;
  for (const auto& [id, a] : attempts_) {
    if (!a.cancelled && now - a.launched > cfg_.attempt_timeout) stale.push_back(id);
  }
  for (auto id : stale) {
    on_attempt_failed(id, false);
    if (!active_) return;
  }
}

void DistRuntime::on_liveness(std::size_t node, bool alive) {
  // The node's memory is gone either way: published blocks and in-flight
  // flow state. The driver learns of it only from the service's verdicts.
  execs_[node].busy = 0;
  alive ? transport_->node_recovered(node) : transport_->node_killed(node);
}

void DistRuntime::set_node_draining(std::size_t node, bool draining) {
  if (node >= execs_.size()) {
    throw std::out_of_range("DistRuntime: bad node id");
  }
  if (node == cfg_.driver && draining) {
    throw std::invalid_argument("DistRuntime: the driver node cannot drain");
  }
  execs_[node].draining = draining;
  // Undraining frees capacity the scheduler may have been waiting for.
  if (!draining && active_) schedule();
}

void DistRuntime::set_node_speed_at(std::size_t node, double speed, SimTime t) {
  if (node >= execs_.size()) {
    throw std::out_of_range("DistRuntime: bad node id");
  }
  if (speed <= 0) throw std::invalid_argument("DistRuntime: speed must be > 0");
  sim().schedule_at(t, [this, node, speed] { execs_[node].speed = speed; });
}

void DistRuntime::finish(bool ok) {
  result_.ok = ok;
  result_.makespan = sim().now() - submit_time_;
  result_.stages.clear();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    result_.stages.push_back(
        JobResult::StageSpan{job_.stages[s].name, stages_[s].start, stages_[s].end});
  }
  active_ = false;
  members_->job_finished();
  trace_span(job_.name, "job", submit_time_, sim().now(), 0, 0);
  JobDoneFn cb = std::move(done_cb_);
  done_cb_ = nullptr;
  // Sink output: persist the final stage's blocks to the DFS (under the
  // job's sink_policy — kErasureCoded for cold final artifacts) BEFORE the
  // done callback, so "job completed" implies "sink durable". The result is
  // moved aside because the runtime may accept its next job while the write
  // is in flight (active_ is already false; a JobSlotPool keeps this slot
  // busy until the callback, so slot accounting stays exact).
  if (ok && !job_.sink_file.empty() && dfs_ != nullptr) {
    std::vector<std::uint8_t> content;
    for (const auto& task_blocks : result_.output) {
      for (const Bytes& b : task_blocks) {
        for (const std::byte v : b) {
          content.push_back(static_cast<std::uint8_t>(v));
        }
      }
    }
    auto res = std::make_shared<JobResult>(std::move(result_));
    result_ = JobResult{};
    stats_.sink_writes++;
    dfs_->put(cfg_.driver, job_.sink_file, std::move(content), opts_.sink_policy,
              [res, cb = std::move(cb)](bool wok) {
                res->sink_ok = wok;
                if (cb) cb(*res);
              });
    return;
  }
  if (cb) cb(result_);
}

}  // namespace hpbdc::dist
