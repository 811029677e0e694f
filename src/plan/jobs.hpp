#pragma once
// Named-job plan builders: WordCount and TeraSort shapes in the plan IR, so
// the optimizer can be measured on recognizable workloads (bench_t11) and
// not just on generated chaos DAGs, and the dist runtime's tests and demo
// run them through lower_dist.
//
//   wordcount_plan : source → flat_map (tokenize) → reduce_by_key (count).
//                    The optimizer fuses source+flat_map into one stage and
//                    inserts a map-side combine ahead of the shuffle — with
//                    kKeyDomain distinct keys per task, the combine collapses
//                    the shuffled bytes to at most kKeyDomain rows per task.
//   terasort_plan  : source → map (key remix) → sort_by. The optimizer fuses
//                    source+map, removing one full hash-partitioned stage.

#include "common/hash.hpp"
#include "plan/plan.hpp"

namespace hpbdc::plan {

inline LogicalPlan wordcount_plan(std::uint64_t rows, std::uint64_t seed = 7) {
  LogicalPlan p;
  p.seed = seed;
  p.rows_per_source = rows;
  PlanNode src;
  src.op = OpKind::kSource;
  src.salt = mix64(seed * 0x9e3779b97f4a7c15ULL + 1);
  src.rows = rows;
  PlanNode tok;
  tok.op = OpKind::kFlatMap;
  tok.left = 0;
  tok.salt = mix64(seed * 0x9e3779b97f4a7c15ULL + 2);
  PlanNode cnt;
  cnt.op = OpKind::kReduceByKey;
  cnt.left = 1;
  p.nodes = {src, tok, cnt};
  p.sinks = {2};
  return p;
}

inline LogicalPlan terasort_plan(std::uint64_t rows, std::uint64_t seed = 11) {
  LogicalPlan p;
  p.seed = seed;
  p.rows_per_source = rows;
  PlanNode src;
  src.op = OpKind::kSource;
  src.salt = mix64(seed * 0x9e3779b97f4a7c15ULL + 1);
  src.rows = rows;
  PlanNode remix;
  remix.op = OpKind::kMap;
  remix.left = 0;
  remix.salt = mix64(seed * 0x9e3779b97f4a7c15ULL + 2);
  PlanNode sort;
  sort.op = OpKind::kSortBy;
  sort.left = 1;
  sort.salt = mix64(seed * 0x9e3779b97f4a7c15ULL + 3);
  p.nodes = {src, remix, sort};
  p.sinks = {2};
  return p;
}

}  // namespace hpbdc::plan
