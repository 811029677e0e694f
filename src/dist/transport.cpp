#include "dist/transport.hpp"

#include <algorithm>
#include <stdexcept>

namespace hpbdc::dist {

ShuffleTransport::ShuffleTransport(Env env) : env_(std::move(env)) {
  store_.resize(env_.comm->nranks());
}

void ShuffleTransport::begin_job(const JobSpec* job, std::uint64_t epoch,
                                 const RuntimeOptions& /*opts*/) {
  job_ = job;
  epoch_ = epoch;
  for (auto& m : store_) m.clear();
}

void ShuffleTransport::publish(std::uint64_t /*attempt_id*/, std::size_t node,
                               std::size_t stage, std::size_t task, BlockSet bs,
                               std::function<void()> announced) {
  const std::uint64_t total = bs.total_sim;
  store_[node][out_key(stage, task)] = std::move(bs);
  // Spill to the producer's local disk before announcing (pre-redesign
  // behavior, event-for-event).
  env_.disk(node).access(env_.comm->simulator(), total, std::move(announced));
}

const BlockSet* ShuffleTransport::find(std::size_t node, std::size_t stage,
                                       std::size_t task) const {
  const auto& m = store_[node];
  const auto it = m.find(out_key(stage, task));
  return it == m.end() ? nullptr : &it->second;
}

std::size_t ShuffleTransport::preferred_node(std::size_t /*stage*/,
                                             std::size_t /*task*/) const {
  return kNone;
}

void ShuffleTransport::node_killed(std::size_t node) { store_[node].clear(); }

void ShuffleTransport::node_recovered(std::size_t node) { store_[node].clear(); }

ShuffleTransport::Resolved ShuffleTransport::resolve_origin(std::size_t ps,
                                                            std::size_t pt,
                                                            std::size_t near) const {
  const auto po = env_.parent_output(ps, pt);
  if (po.done && po.node != kNone && env_.node_alive(po.node) &&
      store_[po.node].contains(out_key(ps, pt))) {
    return Resolved{po.node, false};
  }
  const std::size_t cr = env_.ckpt_replica(ps, near);
  if (cr != kNone) return Resolved{cr, true};
  return Resolved{};
}

void ShuffleTransport::fail_collect(const std::shared_ptr<Ctx>& ctx, std::size_t ps,
                                    std::size_t pt) {
  if (ctx->failed) return;
  ctx->failed = true;
  ctx->req.on_missing(ps, pt);
}

void ShuffleTransport::fetch_one(const std::shared_ptr<Ctx>& ctx, std::size_t src,
                                 std::uint64_t bytes, bool from_ckpt, std::size_t pi,
                                 std::size_t ps, std::size_t pt) {
  const std::size_t dst = ctx->req.node;
  const std::size_t my_task = ctx->req.task;
  env_.count_fetch(bytes, src == dst, from_ckpt);
  auto deliver = [this, ctx, from_ckpt, src, pi, ps, pt, my_task] {
    if (env_.attempt_dead(ctx->req.attempt_id) || ctx->failed) return;
    Bytes data;
    if (from_ckpt) {
      data = env_.ckpt_block(ps, pt, my_task);
    } else {
      const BlockSet* bsp = find(src, ps, pt);
      if (!env_.node_alive(src) || bsp == nullptr) {
        // Source lost while the transfer was in flight.
        env_.count_fetch_failure();
        fail_collect(ctx, ps, pt);
        return;
      }
      data = bsp->blocks.at(my_task);
    }
    (*ctx->req.inputs)[pi][pt] = std::move(data);
    if (--ctx->pending == 0) ctx->req.on_ready(ctx->bytes);
  };
  env_.disk(src).access(env_.comm->simulator(), bytes,
                        [this, src, dst, bytes, deliver = std::move(deliver)] {
                          env_.comm->network().send(src, dst, bytes, deliver);
                        });
}

// ---------------------------------------------------------------------------
// PullTransport — the pre-redesign fetch path, verbatim
// ---------------------------------------------------------------------------

void PullTransport::collect(CollectRequest req) {
  const StageSpec& spec = job_->stages[req.stage];
  auto ctx = std::make_shared<Ctx>();
  ctx->req = std::move(req);
  auto& inputs = *ctx->req.inputs;
  inputs.resize(spec.parents.size());

  struct P {
    std::size_t src, pi, ps, pt;
    std::uint64_t bytes;
    bool ckpt;
  };
  std::vector<P> plan;
  for (std::size_t pi = 0; pi < spec.parents.size(); ++pi) {
    const std::size_t ps = spec.parents[pi];
    inputs[pi].resize(job_->stages[ps].ntasks);
    for (std::size_t pt = 0; pt < job_->stages[ps].ntasks; ++pt) {
      const auto po = env_.parent_output(ps, pt);
      if (ctx->req.task >= po.sim_sizes->size() &&
          (po.done || env_.stage_checkpointed(ps))) {
        throw std::logic_error("DistRuntime: parent stage produced too few blocks");
      }
      const Resolved r = resolve_origin(ps, pt, ctx->req.node);
      if (r.src == kNone) {
        fail_collect(ctx, ps, pt);
        return;
      }
      plan.push_back(P{r.src, pi, ps, pt, (*po.sim_sizes)[ctx->req.task], r.ckpt});
    }
  }
  ctx->pending = plan.size();
  for (const auto& p : plan) ctx->bytes += p.bytes;
  if (ctx->pending == 0) {
    ctx->req.on_ready(0);
    return;
  }
  for (const auto& p : plan) fetch_one(ctx, p.src, p.bytes, p.ckpt, p.pi, p.ps, p.pt);
}

// ---------------------------------------------------------------------------
// PushTransport — flow shuffle with origin-fetch fallback
// ---------------------------------------------------------------------------

PushTransport::PushTransport(Env env)
    : ShuffleTransport(std::move(env)),
      fabric_(*env_.comm,
              flow::FlowFabric::Hooks{
                  [this](std::size_t n) { return env_.node_alive(n); },
                  [this](std::size_t src, std::size_t stage, std::size_t task,
                         std::uint32_t child) -> const Bytes* {
                    const BlockSet* bs = find(src, stage, task);
                    if (bs == nullptr) return nullptr;
                    // Broadcast streams carry the full row set: child 0 is
                    // identical to every other child by construction.
                    const std::size_t c =
                        child == flow::FlowFabric::kBroadcastChild ? 0 : child;
                    return c < bs->blocks.size() ? &bs->blocks[c] : nullptr;
                  }}) {
  for (std::size_t r = 0; r < env_.comm->nranks(); ++r) {
    if (r != env_.driver) targets_.push_back(r);
  }
  if (targets_.empty()) targets_.push_back(env_.driver);  // single-node cluster
}

void PushTransport::begin_job(const JobSpec* job, std::uint64_t epoch,
                              const RuntimeOptions& opts) {
  ShuffleTransport::begin_job(job, epoch, opts);
  fabric_.reset(opts.flow, epoch);
}

std::size_t PushTransport::partition_target(std::size_t t) const {
  return targets_[t % targets_.size()];
}

std::size_t PushTransport::preferred_node(std::size_t stage, std::size_t task) const {
  // Only consumers (stages with shuffle parents) have a flow home.
  if (job_ == nullptr || job_->stages[stage].parents.empty()) return kNone;
  return partition_target(task);
}

void PushTransport::publish(std::uint64_t attempt_id, std::size_t node,
                            std::size_t stage, std::size_t task, BlockSet bs,
                            std::function<void()> announced) {
  const std::uint64_t total = bs.total_sim;
  store_[node][out_key(stage, task)] = std::move(bs);
  const std::uint64_t epoch = epoch_;
  env_.disk(node).access(
      env_.comm->simulator(), total,
      [this, attempt_id, node, stage, task, epoch,
       announced = std::move(announced)] {
        announced();  // self-guarding (runtime re-checks attempt liveness)
        if (epoch_ != epoch) return;
        if (stage + 1 >= job_->stages.size()) return;  // result stage: driver-bound
        if (env_.attempt_dead(attempt_id)) return;     // speculative loser etc.
        if (!env_.node_alive(node)) return;
        start_streams(node, stage, task);
      });
}

void PushTransport::start_streams(std::size_t node, std::size_t stage,
                                 std::size_t task) {
  const BlockSet* out = find(node, stage, task);
  if (out == nullptr) return;  // node cycled between spill and now
  if (job_->stages[stage].broadcast) {
    // One multicast stream shared by all children, sent to each distinct
    // target node exactly once.
    std::vector<std::size_t> dsts;
    for (std::size_t c = 0; c < out->blocks.size(); ++c) {
      const std::size_t d = partition_target(c);
      if (std::find(dsts.begin(), dsts.end(), d) == dsts.end()) dsts.push_back(d);
    }
    fabric_.push_broadcast(node, dsts, stage, task,
                           out->sim_sizes.empty() ? 0 : out->sim_sizes[0]);
    return;
  }
  for (std::size_t c = 0; c < out->blocks.size(); ++c) {
    fabric_.push_block(node, partition_target(c), stage, task,
                       static_cast<std::uint32_t>(c), out->sim_sizes[c]);
  }
}

void PushTransport::collect(CollectRequest req) {
  const StageSpec& spec = job_->stages[req.stage];
  auto ctx = std::make_shared<Ctx>();
  ctx->req = std::move(req);
  auto& inputs = *ctx->req.inputs;
  inputs.resize(spec.parents.size());

  struct Need {
    std::size_t pi, ps, pt;
    std::uint64_t bytes;
    std::uint32_t child;
  };
  std::vector<Need> waits, fallbacks;
  for (std::size_t pi = 0; pi < spec.parents.size(); ++pi) {
    const std::size_t ps = spec.parents[pi];
    inputs[pi].resize(job_->stages[ps].ntasks);
    const bool bcast = job_->stages[ps].broadcast;
    const auto child = bcast ? flow::FlowFabric::kBroadcastChild
                             : static_cast<std::uint32_t>(ctx->req.task);
    for (std::size_t pt = 0; pt < job_->stages[ps].ntasks; ++pt) {
      const auto po = env_.parent_output(ps, pt);
      if (ctx->req.task >= po.sim_sizes->size() &&
          (po.done || env_.stage_checkpointed(ps))) {
        throw std::logic_error("DistRuntime: parent stage produced too few blocks");
      }
      const std::uint64_t bytes = ctx->req.task < po.sim_sizes->size()
                                      ? (*po.sim_sizes)[ctx->req.task]
                                      : 0;
      ctx->bytes += bytes;  // compute charges input volume however it arrived
      using SS = flow::FlowFabric::StreamState;
      const SS st = fabric_.stream_state(ctx->req.node, ps, pt, child);
      if (st == SS::kComplete) {
        inputs[pi][pt] = *fabric_.stream_data(ctx->req.node, ps, pt, child);
        env_.count_fetch(bytes, /*local=*/true, /*from_ckpt=*/false);
        continue;
      }
      const Need need{pi, ps, pt, bytes, child};
      // In-flight streams — and absent ones whose producer is done and
      // presumably still streaming — are worth a bounded wait (this is the
      // compute/transfer overlap). Broken streams, and blocks whose parent
      // has no live incarnation pushing (checkpoint restore, rollback), go
      // straight to the origin fetch.
      if (st == SS::kInFlight || (st == SS::kAbsent && po.done)) {
        waits.push_back(need);
      } else {
        fallbacks.push_back(need);
      }
    }
  }

  ctx->pending = waits.size() + fallbacks.size();
  if (ctx->pending == 0) {
    ctx->req.on_ready(ctx->bytes);
    return;
  }
  for (const Need& w : waits) {
    fabric_.await(
        ctx->req.node, w.ps, w.pt, w.child,
        [this, ctx, w](bool ok) {
          if (env_.attempt_dead(ctx->req.attempt_id) || ctx->failed) return;
          if (ok) {
            (*ctx->req.inputs)[w.pi][w.pt] =
                *fabric_.stream_data(ctx->req.node, w.ps, w.pt, w.child);
            env_.count_fetch(w.bytes, /*local=*/true, /*from_ckpt=*/false);
            if (--ctx->pending == 0) ctx->req.on_ready(ctx->bytes);
          } else {
            // Stream broke or patience ran out: classic fetch, same pending slot.
            const Resolved r = resolve_origin(w.ps, w.pt, ctx->req.node);
            if (r.src == kNone) {
              fail_collect(ctx, w.ps, w.pt);
              return;
            }
            fetch_one(ctx, r.src, w.bytes, r.ckpt, w.pi, w.ps, w.pt);
          }
        });
  }
  for (const Need& f : fallbacks) {
    const Resolved r = resolve_origin(f.ps, f.pt, ctx->req.node);
    if (r.src == kNone) {
      fail_collect(ctx, f.ps, f.pt);
      return;
    }
    fetch_one(ctx, r.src, f.bytes, r.ckpt, f.pi, f.ps, f.pt);
  }
}

void PushTransport::node_killed(std::size_t node) {
  ShuffleTransport::node_killed(node);
  fabric_.node_killed(node);
}

void PushTransport::node_recovered(std::size_t node) {
  ShuffleTransport::node_recovered(node);
  fabric_.node_recovered(node);
}

}  // namespace hpbdc::dist
