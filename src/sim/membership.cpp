#include "sim/membership.hpp"

#include <stdexcept>

#include "common/hash.hpp"
#include "sim/dfs.hpp"

namespace hpbdc::sim {

namespace {
constexpr std::uint64_t kBeatBytes = 96;  // simulated beat body size
}  // namespace

Membership::Membership(Comm& comm, std::size_t observer, double interval,
                       double timeout, double jitter, std::uint64_t seed, Dfs* dfs)
    : comm_(comm),
      dfs_(dfs),
      observer_(observer),
      interval_(interval),
      timeout_(timeout),
      jitter_(jitter),
      tag_(comm.next_tag()),
      jitter_rng_(mix_seed(seed, 1)),
      nodes_(comm.nranks()) {
  if (observer >= nodes_.size()) {
    throw std::invalid_argument("Membership: observer rank out of range");
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    nodes_[n].phase =
        interval_ * (static_cast<double>(mix64(seed ^ n) % 1000) / 1000.0);
  }
  comm_.set_handler(observer_, tag_,
                    [this](std::size_t src, const Bytes& p) { on_beat(src, p); });
}

std::size_t Membership::live() const {
  std::size_t n = 0;
  for (const Node& nd : nodes_) n += (nd.alive && !nd.declared_dead) ? 1 : 0;
  return n;
}

void Membership::job_started() {
  if (active_++ > 0) return;
  const std::uint64_t gen = ++gen_;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    nodes_[n].last_beat = sim().now();
    if (n != observer_) {
      sim().schedule_after(nodes_[n].phase, [this, n, gen] { beat(n, gen); });
    }
  }
  sim().schedule_after(interval_, [this, gen] { monitor(gen); });
}

void Membership::send_beat(std::size_t node) {
  BufWriter w(8);
  w.write_pod(gen_);
  comm_.send_sized(node, observer_, tag_, kBeatBytes, w.take());
}

void Membership::beat(std::size_t node, std::uint64_t gen) {
  if (!running(gen)) return;
  if (nodes_[node].alive) send_beat(node);
  const double jitter = jitter_ > 0 ? jitter_rng_.next_double() * jitter_ : 0.0;
  sim().schedule_after(interval_ + jitter, [this, node, gen] { beat(node, gen); });
}

void Membership::on_beat(std::size_t node, const Bytes& payload) {
  // A beat from an earlier run of the loops says nothing about this one.
  if (BufReader(payload).read_pod<std::uint64_t>() != gen_) return;
  ++stats_.heartbeats;
  Node& nd = nodes_[node];
  nd.last_beat = sim().now();
  if (!nd.declared_dead || !nd.alive) return;
  nd.declared_dead = false;
  for (std::size_t i = 0; i < subs_.size(); ++i) subs_[i]->on_rejoined(node);
}

void Membership::monitor(std::uint64_t gen) {
  if (!running(gen)) return;
  // Mark every newly silent node before notifying anyone, so a subscriber
  // reacting to the first verdict already avoids the others.
  std::vector<std::size_t> dead;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    Node& nd = nodes_[n];
    if (n == observer_ || nd.declared_dead || sim().now() - nd.last_beat < timeout_) {
      continue;
    }
    nd.declared_dead = true;
    ++stats_.declared_dead;
    dead.push_back(n);
  }
  // Subscripts, not iterators: a callback may subscribe a new runtime.
  for (std::size_t n : dead) {
    for (std::size_t i = 0; i < subs_.size(); ++i) subs_[i]->on_declared_dead(n);
  }
  for (std::size_t i = 0; i < subs_.size(); ++i) subs_[i]->on_monitor_tick();
  // A callback may have ended the last job and started another, which
  // restarted the loops under a newer generation.
  if (gen == gen_) sim().schedule_after(interval_, [this, gen] { monitor(gen); });
}

void Membership::check_mortal(std::size_t node, bool alive) const {
  if (!alive && node == observer_) {
    throw std::invalid_argument("Membership: the observer node is immortal");
  }
}

void Membership::set_alive(std::size_t node, bool alive) {
  check_mortal(node, alive);
  if (nodes_.at(node).alive == alive) return;
  nodes_[node].alive = alive;
  if (dfs_ != nullptr) alive ? dfs_->recover_node(node) : dfs_->fail_node(node);
  for (std::size_t i = 0; i < subs_.size(); ++i) subs_[i]->on_liveness(node, alive);
  // A recovery beats at once only while the loops run. An idle service
  // has no detector to tell, and a beat would count under the old
  // generation; the next job's beats re-register the node.
  if (alive && active_ > 0) send_beat(node);
}

void Membership::set_alive_at(std::size_t node, bool alive, SimTime t) {
  check_mortal(node, alive);
  sim().schedule_at(t, [this, node, alive] { set_alive(node, alive); });
}

}  // namespace hpbdc::sim
