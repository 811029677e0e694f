#pragma once
// Dataset<T>: an immutable, partitioned, lazily-evaluated collection — the
// core abstraction of the hpbdc dataflow engine (Spark-RDD-like semantics).
//
//  * Transformations (map, filter, flat_map, union_with, repartition,
//    distinct, sample, sort_by, zip_with_index) build lineage without
//    executing anything.
//  * Actions (collect, count, reduce, take, for_each_partition) force
//    evaluation; partitions evaluate in parallel on the Context's pool.
//  * Every dataset caches its partitions after first materialization
//    (std::call_once), so shared lineage never recomputes and concurrent
//    actions are safe.
//
// Key-value operations (reduce_by_key, join, ...) live in pair_ops.hpp.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dataflow/context.hpp"
#include "exec/parallel.hpp"

namespace hpbdc::dataflow {

template <typename T>
using Partitions = std::vector<std::vector<T>>;

namespace detail {

template <typename T>
struct DatasetImpl {
  Context* ctx;
  std::function<Partitions<T>()> compute;  // cleared after materialization
  std::once_flag once;
  Partitions<T> data;

  const Partitions<T>& materialize() {
    bool computed_now = false;
    std::call_once(once, [this, &computed_now] {
      data = compute();
      compute = nullptr;  // release lineage closures (and parent refs)
      computed_now = true;
    });
    if (obs::MetricsRegistry* m = ctx->metrics()) {
      m->counter(computed_now ? "dataflow.cache.miss" : "dataflow.cache.hit").add(1);
    }
    return data;
  }
};

/// Total records across partitions — metric helper for narrow ops.
template <typename T>
std::uint64_t total_records(const Partitions<T>& parts) {
  std::uint64_t n = 0;
  for (const auto& p : parts) n += p.size();
  return n;
}

}  // namespace detail

template <typename T>
class Dataset {
 public:
  using value_type = T;

  Dataset() = default;

  /// Distribute a local vector over n partitions (contiguous slices).
  static Dataset parallelize(Context& ctx, std::vector<T> data, std::size_t n = 0) {
    if (n == 0) n = ctx.default_partitions();
    auto shared = std::make_shared<std::vector<T>>(std::move(data));
    return from_thunk(ctx, [shared, n]() {
      const std::size_t total = shared->size();
      const std::size_t parts = std::max<std::size_t>(1, n);
      Partitions<T> out(parts);
      const std::size_t base = total / parts;
      const std::size_t extra = total % parts;
      std::size_t off = 0;
      for (std::size_t p = 0; p < parts; ++p) {
        const std::size_t len = base + (p < extra ? 1 : 0);
        out[p].assign(shared->begin() + static_cast<std::ptrdiff_t>(off),
                      shared->begin() + static_cast<std::ptrdiff_t>(off + len));
        off += len;
      }
      return out;
    });
  }

  /// Generate n partitions on demand: gen(partition_index) -> partition.
  /// The generator runs in parallel at materialization time.
  static Dataset generate(Context& ctx, std::size_t n,
                          std::function<std::vector<T>(std::size_t)> gen) {
    Context* c = &ctx;
    return from_thunk(ctx, [c, n, gen = std::move(gen)]() {
      Partitions<T> out(n);
      parallel_for(c->pool(), 0, n, [&](std::size_t p) { out[p] = gen(p); });
      return out;
    });
  }

  Context& context() const { return *impl_->ctx; }

  // ---- transformations (lazy) -------------------------------------------

  template <typename Fn, typename U = std::invoke_result_t<Fn, const T&>>
  Dataset<U> map(Fn fn) const {
    auto parent = impl_;
    return Dataset<U>::from_thunk(*impl_->ctx, [parent, fn]() {
      const auto& in = parent->materialize();
      Partitions<U> out(in.size());
      parallel_for(parent->ctx->pool(), 0, in.size(), [&](std::size_t p) {
        out[p].reserve(in[p].size());
        for (const auto& v : in[p]) out[p].push_back(fn(v));
      });
      if (obs::MetricsRegistry* m = parent->ctx->metrics()) {
        const std::uint64_t n = detail::total_records(in);
        m->counter("dataflow.map.records_in").add(n);
        m->counter("dataflow.map.records_out").add(n);
      }
      return out;
    });
  }

  template <typename Fn>
  Dataset<T> filter(Fn pred) const {
    auto parent = impl_;
    return from_thunk(*impl_->ctx, [parent, pred]() {
      const auto& in = parent->materialize();
      Partitions<T> out(in.size());
      parallel_for(parent->ctx->pool(), 0, in.size(), [&](std::size_t p) {
        for (const auto& v : in[p]) {
          if (pred(v)) out[p].push_back(v);
        }
      });
      if (obs::MetricsRegistry* m = parent->ctx->metrics()) {
        m->counter("dataflow.filter.records_in").add(detail::total_records(in));
        m->counter("dataflow.filter.records_out").add(detail::total_records(out));
      }
      return out;
    });
  }

  /// fn(v) must return an iterable (e.g. std::vector<U>).
  template <typename Fn,
            typename U = typename std::invoke_result_t<Fn, const T&>::value_type>
  Dataset<U> flat_map(Fn fn) const {
    auto parent = impl_;
    return Dataset<U>::from_thunk(*impl_->ctx, [parent, fn]() {
      const auto& in = parent->materialize();
      Partitions<U> out(in.size());
      parallel_for(parent->ctx->pool(), 0, in.size(), [&](std::size_t p) {
        for (const auto& v : in[p]) {
          for (auto&& u : fn(v)) out[p].push_back(std::move(u));
        }
      });
      return out;
    });
  }

  /// Per-partition transformation: fn(partition) -> new partition contents.
  template <typename Fn,
            typename U = typename std::invoke_result_t<Fn, const std::vector<T>&>::value_type>
  Dataset<U> map_partitions(Fn fn) const {
    auto parent = impl_;
    return Dataset<U>::from_thunk(*impl_->ctx, [parent, fn]() {
      const auto& in = parent->materialize();
      Partitions<U> out(in.size());
      parallel_for(parent->ctx->pool(), 0, in.size(),
                   [&](std::size_t p) { out[p] = fn(in[p]); });
      return out;
    });
  }

  Dataset<T> union_with(const Dataset<T>& other) const {
    auto a = impl_;
    auto b = other.impl_;
    return from_thunk(*impl_->ctx, [a, b]() {
      const auto& pa = a->materialize();
      const auto& pb = b->materialize();
      Partitions<T> out;
      out.reserve(pa.size() + pb.size());
      out.insert(out.end(), pa.begin(), pa.end());
      out.insert(out.end(), pb.begin(), pb.end());
      return out;
    });
  }

  /// Round-robin repartition to n partitions (breaks ordering).
  Dataset<T> repartition(std::size_t n) const {
    auto parent = impl_;
    return from_thunk(*impl_->ctx, [parent, n]() {
      const auto& in = parent->materialize();
      const std::size_t parts = std::max<std::size_t>(1, n);
      Partitions<T> out(parts);
      std::size_t i = 0;
      for (const auto& part : in) {
        for (const auto& v : part) {
          out[i % parts].push_back(v);
          ++i;
        }
      }
      return out;
    });
  }

  /// Bernoulli sample with the given per-element probability. Deterministic
  /// for a fixed seed regardless of thread schedule (per-partition streams).
  Dataset<T> sample(double fraction, std::uint64_t seed = 1234) const {
    auto parent = impl_;
    return from_thunk(*impl_->ctx, [parent, fraction, seed]() {
      const auto& in = parent->materialize();
      Partitions<T> out(in.size());
      parallel_for(parent->ctx->pool(), 0, in.size(), [&](std::size_t p) {
        Rng rng(hash_combine(seed, p));
        for (const auto& v : in[p]) {
          if (rng.next_bool(fraction)) out[p].push_back(v);
        }
      });
      return out;
    });
  }

  /// Globally deduplicate (requires Hasher<T> and operator==).
  Dataset<T> distinct(std::size_t n = 0) const {
    auto parent = impl_;
    Context* ctx = impl_->ctx;
    const std::size_t parts = n != 0 ? n : ctx->default_partitions();
    return from_thunk(*ctx, [parent, parts]() {
      const auto& in = parent->materialize();
      // Hash-partition so duplicates co-locate, then dedup per partition.
      Partitions<T> buckets(parts);
      std::vector<Partitions<T>> local(in.size(), Partitions<T>(parts));
      parallel_for(parent->ctx->pool(), 0, in.size(), [&](std::size_t p) {
        for (const auto& v : in[p]) {
          local[p][Hasher<T>{}(v) % parts].push_back(v);
        }
      });
      parallel_for(parent->ctx->pool(), 0, parts, [&](std::size_t b) {
        std::vector<T> merged;
        for (const auto& l : local) {
          merged.insert(merged.end(), l[b].begin(), l[b].end());
        }
        std::sort(merged.begin(), merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
        buckets[b] = std::move(merged);
      });
      return buckets;
    });
  }

  /// Globally sort by key(v): sample-based range partitioning, then local
  /// sorts — after this, collect() returns globally sorted order.
  template <typename KeyFn>
  Dataset<T> sort_by(KeyFn key, std::size_t n = 0) const {
    auto parent = impl_;
    Context* ctx = impl_->ctx;
    const std::size_t parts = n != 0 ? n : ctx->default_partitions();
    return from_thunk(*ctx, [parent, key, parts]() {
      using K = std::invoke_result_t<KeyFn, const T&>;
      const auto& in = parent->materialize();
      // 1. Sample keys (up to ~64 per output partition).
      std::vector<K> samples;
      Rng rng(0x5eedf00dULL);
      std::size_t total = 0;
      for (const auto& p : in) total += p.size();
      const double rate =
          total == 0 ? 0.0
                     : std::min(1.0, static_cast<double>(parts * 64) /
                                         static_cast<double>(total));
      for (const auto& p : in) {
        for (const auto& v : p) {
          if (rng.next_bool(rate)) samples.push_back(key(v));
        }
      }
      std::sort(samples.begin(), samples.end());
      std::vector<K> splitters;
      for (std::size_t i = 1; i < parts; ++i) {
        if (samples.empty()) break;
        splitters.push_back(samples[i * samples.size() / parts]);
      }
      // 2. Range-partition.
      std::vector<Partitions<T>> local(in.size(), Partitions<T>(parts));
      parallel_for(parent->ctx->pool(), 0, in.size(), [&](std::size_t p) {
        for (const auto& v : in[p]) {
          const auto k = key(v);
          const std::size_t dst = static_cast<std::size_t>(
              std::upper_bound(splitters.begin(), splitters.end(), k) -
              splitters.begin());
          local[p][dst].push_back(v);
        }
      });
      // 3. Merge buckets and sort each output partition.
      Partitions<T> out(parts);
      parallel_for(parent->ctx->pool(), 0, parts, [&](std::size_t b) {
        for (auto& l : local) {
          out[b].insert(out[b].end(), std::make_move_iterator(l[b].begin()),
                        std::make_move_iterator(l[b].end()));
        }
        std::sort(out[b].begin(), out[b].end(),
                  [&](const T& x, const T& y) { return key(x) < key(y); });
      });
      return out;
    });
  }

  /// Pair each element with its global index (partition-major order).
  Dataset<std::pair<T, std::size_t>> zip_with_index() const {
    auto parent = impl_;
    return Dataset<std::pair<T, std::size_t>>::from_thunk(
        *impl_->ctx, [parent]() {
          const auto& in = parent->materialize();
          std::vector<std::size_t> offset(in.size(), 0);
          std::size_t acc = 0;
          for (std::size_t p = 0; p < in.size(); ++p) {
            offset[p] = acc;
            acc += in[p].size();
          }
          Partitions<std::pair<T, std::size_t>> out(in.size());
          parallel_for(parent->ctx->pool(), 0, in.size(), [&](std::size_t p) {
            out[p].reserve(in[p].size());
            for (std::size_t i = 0; i < in[p].size(); ++i) {
              out[p].emplace_back(in[p][i], offset[p] + i);
            }
          });
          return out;
        });
  }

  // ---- actions (force evaluation) ----------------------------------------
  // Each action opens a named span on the Context's TraceSession (when one
  // is attached), covering the whole lineage evaluation it forces. Spans
  // are RAII: an exception escaping a user lambda still closes the span.

  /// All elements, partition-major order.
  std::vector<T> collect() const {
    obs::Span span(impl_->ctx->trace(), "collect", "action");
    const auto& parts = impl_->materialize();
    std::vector<T> out;
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    out.reserve(total);
    for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    span.set_items(total);
    return out;
  }

  std::size_t count() const {
    obs::Span span(impl_->ctx->trace(), "count", "action");
    const auto& parts = impl_->materialize();
    std::size_t n = 0;
    for (const auto& p : parts) n += p.size();
    span.set_items(n);
    return n;
  }

  /// Deterministic fold with an associative combine.
  template <typename Combine>
  T reduce(T init, Combine combine) const {
    obs::Span span(impl_->ctx->trace(), "reduce", "action");
    const auto& parts = impl_->materialize();
    std::vector<T> partial(parts.size(), init);
    parallel_for(impl_->ctx->pool(), 0, parts.size(), [&](std::size_t p) {
      T acc = init;
      for (const auto& v : parts[p]) acc = combine(std::move(acc), v);
      partial[p] = std::move(acc);
    });
    T out = init;
    for (auto& v : partial) out = combine(std::move(out), std::move(v));
    return out;
  }

  std::vector<T> take(std::size_t n) const {
    obs::Span span(impl_->ctx->trace(), "take", "action");
    const auto& parts = impl_->materialize();
    std::vector<T> out;
    out.reserve(n);
    for (const auto& p : parts) {
      for (const auto& v : p) {
        if (out.size() == n) return out;
        out.push_back(v);
      }
    }
    return out;
  }

  std::size_t num_partitions() const { return impl_->materialize().size(); }

  /// Direct (read-only) access to materialized partitions.
  const Partitions<T>& partitions() const { return impl_->materialize(); }

  /// Force materialization without copying anything out.
  const Dataset& cache() const {
    obs::Span span(impl_->ctx->trace(), "cache", "action");
    impl_->materialize();
    return *this;
  }

  // Internal: build from a compute thunk. Public so that Dataset<U> (a
  // different class template instantiation) and pair_ops can construct it.
  static Dataset from_thunk(Context& ctx, std::function<Partitions<T>()> fn) {
    Dataset d;
    d.impl_ = std::make_shared<detail::DatasetImpl<T>>();
    d.impl_->ctx = &ctx;
    d.impl_->compute = std::move(fn);
    return d;
  }

 private:
  template <typename U>
  friend class Dataset;

  std::shared_ptr<detail::DatasetImpl<T>> impl_;
};

}  // namespace hpbdc::dataflow
