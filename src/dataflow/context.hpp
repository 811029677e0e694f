#pragma once
// Execution context for the batch dataflow engine: binds datasets to an
// Executor and carries engine-wide defaults plus the observability hooks
// (metrics registry, span tracer). One Context typically lives for the
// duration of an application ("driver" in Spark terms).
//
// Observability is opt-in: both hooks default to nullptr and every
// instrumentation site in the engine guards on that pointer, so an
// unobserved Context costs one predictable branch per site.

#include <cstddef>

#include "exec/executor.hpp"
#include "exec/tuning.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hpbdc::dataflow {

class Context {
 public:
  struct Options {
    /// When set, dataflow/shuffle/exec counters and histograms flow here.
    obs::MetricsRegistry* metrics = nullptr;
    /// When set, actions and shuffles open named spans on this session.
    obs::TraceSession* trace = nullptr;
  };

  explicit Context(Executor& pool) : Context(pool, Options{}) {}

  Context(Executor& pool, Options opts)
      : pool_(pool),
        opts_(opts),
        default_partitions_(pool.num_threads() * kPartitionsPerThread) {}

  Executor& pool() const noexcept { return pool_; }
  /// kPartitionsPerThread partitions per pool thread (the contract lives in
  /// exec/tuning.hpp), giving the work-stealing scheduler enough slack to
  /// absorb skew.
  std::size_t default_partitions() const noexcept { return default_partitions_; }

  /// Nullable: instrumentation sites must branch on this.
  obs::MetricsRegistry* metrics() const noexcept { return opts_.metrics; }
  /// Nullable: span sites must branch on this (obs::Span accepts nullptr).
  obs::TraceSession* trace() const noexcept { return opts_.trace; }

 private:
  Executor& pool_;
  Options opts_;
  std::size_t default_partitions_;
};

}  // namespace hpbdc::dataflow
