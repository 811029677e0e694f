#include "kvstore/ycsb.hpp"

#include <memory>

namespace hpbdc::kvstore {

const char* ycsb_name(YcsbWorkload w) noexcept {
  switch (w) {
    case YcsbWorkload::kA: return "A(50r/50u)";
    case YcsbWorkload::kB: return "B(95r/5u)";
    case YcsbWorkload::kC: return "C(100r)";
    case YcsbWorkload::kD: return "D(read-latest)";
    case YcsbWorkload::kF: return "F(rmw)";
  }
  return "?";
}

namespace {

constexpr std::size_t kValueSize = 100;  // bytes
constexpr double kZipfTheta = 0.99;

struct DriverState {
  YcsbConfig cfg;
  Rng rng;
  ZipfGenerator zipf;
  std::uint64_t issued = 0;     // ops handed to clients
  std::uint64_t completed = 0;  // ops finished
  std::uint64_t retries = 0;    // failed attempts re-issued
  std::uint64_t ops_failed_final = 0;  // gave up after exhausting retries
  std::uint64_t key_count = 0;  // grows under workload D inserts
  double finish_time = 0;

  DriverState(const YcsbConfig& c)
      : cfg(c), rng(c.seed), zipf(c.records, kZipfTheta), key_count(c.records) {}

  std::string key_for(std::uint64_t id) const { return "user" + std::to_string(id); }

  std::string make_value() {
    std::string v(kValueSize, 'x');
    // A little per-value entropy so dedup/compression paths can't cheat.
    const auto r = rng();
    for (std::size_t i = 0; i < sizeof(r) && i < v.size(); ++i) {
      v[i] = static_cast<char>('a' + ((r >> (8 * i)) & 0x0f));
    }
    return v;
  }

  std::uint64_t pick_key() {
    if (cfg.workload == YcsbWorkload::kD) {
      // Read-latest: zipf over recency rank from the newest key.
      const auto rank = zipf.next(rng);
      return key_count > rank ? key_count - 1 - rank : 0;
    }
    return zipf.next(rng);
  }
};

/// Issue the next operation for one closed-loop client; reschedules itself
/// from the completion callback until the op budget is exhausted.
void client_step(const std::shared_ptr<DriverState>& st, KvCluster& kv,
                 sim::Simulator& sim, std::size_t client_rank) {
  if (st->issued >= st->cfg.operations) return;
  ++st->issued;

  auto complete = [st, &kv, &sim, client_rank] {
    ++st->completed;
    if (st->completed == st->cfg.operations) {
      st->finish_time = sim.now();
    } else {
      client_step(st, kv, sim, client_rank);
    }
  };

  const double p = st->rng.next_double();
  const auto w = st->cfg.workload;
  const bool is_insert = (w == YcsbWorkload::kD) && p >= 0.95;
  bool is_read;
  switch (w) {
    case YcsbWorkload::kA: is_read = p < 0.50; break;
    case YcsbWorkload::kB: is_read = p < 0.95; break;
    case YcsbWorkload::kC: is_read = true; break;
    case YcsbWorkload::kD: is_read = !is_insert; break;
    case YcsbWorkload::kF: is_read = p < 0.50; break;
    default: is_read = true; break;
  }

  // Retrying wrappers: re-issue an op after a failure, up to max_retries.
  auto retried_put = [st, &kv, client_rank](std::string key, std::string value,
                                            std::function<void()> done) {
    auto attempt = std::make_shared<std::function<void(std::size_t)>>();
    *attempt = [st, &kv, client_rank, key = std::move(key), value = std::move(value),
                done = std::move(done), attempt](std::size_t tries) {
      kv.client_put(client_rank, key, value,
                    [st, done, attempt, tries](bool ok) {
                      if (!ok && tries < st->cfg.max_retries) {
                        ++st->retries;
                        (*attempt)(tries + 1);
                      } else {
                        if (!ok) ++st->ops_failed_final;
                        done();
                      }
                    });
    };
    (*attempt)(0);
  };
  auto retried_get = [st, &kv, client_rank](std::string key,
                                            std::function<void()> done) {
    auto attempt = std::make_shared<std::function<void(std::size_t)>>();
    *attempt = [st, &kv, client_rank, key = std::move(key), done = std::move(done),
                attempt](std::size_t tries) {
      kv.client_get(client_rank, key,
                    [st, done, attempt, tries](const GetResult& r) {
                      if (!r.ok && tries < st->cfg.max_retries) {
                        ++st->retries;
                        (*attempt)(tries + 1);
                      } else {
                        if (!r.ok) ++st->ops_failed_final;
                        done();
                      }
                    });
    };
    (*attempt)(0);
  };

  if (is_insert) {
    const auto id = st->key_count++;
    retried_put(st->key_for(id), st->make_value(), complete);
    return;
  }
  if (is_read) {
    retried_get(st->key_for(st->pick_key()), complete);
    return;
  }
  if (w == YcsbWorkload::kF) {
    // Read-modify-write: chained get then put, counted as one operation.
    const auto id = st->pick_key();
    retried_get(st->key_for(id), [st, retried_put, id, complete] {
      retried_put(st->key_for(id), st->make_value(), complete);
    });
    return;
  }
  // Plain update.
  retried_put(st->key_for(st->pick_key()), st->make_value(), complete);
}

}  // namespace

YcsbResult run_ycsb(sim::Simulator& sim, KvCluster& kv, const YcsbConfig& cfg) {
  YcsbResult res;
  auto st = std::make_shared<DriverState>(cfg);

  // ---- Load phase: one closed-loop loader inserts all records. -----------
  const double load_start = sim.now();
  auto load_next = std::make_shared<std::function<void(std::uint64_t)>>();
  *load_next = [st, &kv, load_next](std::uint64_t i) {
    if (i >= st->cfg.records) return;
    kv.client_put(0, st->key_for(i), st->make_value(),
                  [load_next, i](bool) { (*load_next)(i + 1); });
  };
  (*load_next)(0);
  sim.run();
  res.load_seconds = sim.now() - load_start;
  kv.mutable_stats() = KvStats{};  // run-phase stats only

  // ---- Run phase: closed-loop clients spread over the cluster ranks. -----
  const double run_start = sim.now();
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    const std::size_t rank = c % kv.nranks();
    sim.schedule_after(0.0, [st, &kv, &sim, rank] { client_step(st, kv, sim, rank); });
  }
  sim.run();
  const double end = st->finish_time > 0 ? st->finish_time : sim.now();
  res.run_seconds = end - run_start;
  res.throughput_ops =
      res.run_seconds > 0 ? static_cast<double>(cfg.operations) / res.run_seconds : 0;
  res.retries = st->retries;
  res.ops_failed_final = st->ops_failed_final;
  res.stats = kv.stats();
  return res;
}

}  // namespace hpbdc::kvstore
