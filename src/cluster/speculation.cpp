#include "cluster/speculation.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace hpbdc::cluster {

namespace {

struct Copy {
  std::size_t task = 0;
  std::size_t node = 0;
  double start = 0;
  double finish = 0;
  bool alive = true;
  bool is_backup = false;
};

struct TaskState {
  double work = 0;
  bool done = false;
  std::vector<std::size_t> copies;  // indices into the copy table

  std::size_t alive_copies(const std::vector<Copy>& all) const {
    std::size_t count = 0;
    for (auto idx : copies) {
      if (all[idx].alive) ++count;
    }
    return count;
  }
};

}  // namespace

SpeculationResult simulate_speculation(const SpeculationConfig& cfg) {
  if (cfg.nodes == 0 || cfg.tasks == 0) {
    throw std::invalid_argument("speculation: nodes and tasks must be >= 1");
  }
  if (cfg.straggler_speed <= 0 || cfg.straggler_speed > 1) {
    throw std::invalid_argument("speculation: straggler speed in (0, 1]");
  }
  Rng rng(cfg.seed);

  // Node speeds: a random subset runs degraded.
  std::vector<double> speed(cfg.nodes, 1.0);
  const auto n_stragglers = static_cast<std::size_t>(
      cfg.straggler_fraction * static_cast<double>(cfg.nodes));
  std::vector<std::size_t> node_ids(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) node_ids[i] = i;
  rng.shuffle(node_ids);
  for (std::size_t i = 0; i < n_stragglers; ++i) speed[node_ids[i]] = cfg.straggler_speed;

  // Task sizes.
  std::vector<TaskState> tasks(cfg.tasks);
  for (auto& t : tasks) {
    t.work = cfg.task_work * std::exp(cfg.task_work_cv * rng.next_gaussian());
  }

  std::vector<Copy> copies;
  auto cmp = [&copies](std::size_t a, std::size_t b) {
    return copies[a].finish > copies[b].finish;
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(cmp)> pq(cmp);

  std::vector<std::size_t> free_nodes;
  for (std::size_t n = 0; n < cfg.nodes; ++n) free_nodes.push_back(n);
  std::size_t next_task = 0;
  std::size_t tasks_done = 0;
  LatePolicy policy(cfg.task_work);

  SpeculationResult res;

  auto launch = [&](std::size_t task, std::size_t node, double now, bool backup) {
    Copy c;
    c.task = task;
    c.node = node;
    c.start = now;
    c.finish = now + tasks[task].work / speed[node];
    c.is_backup = backup;
    copies.push_back(c);
    tasks[task].copies.push_back(copies.size() - 1);
    pq.push(copies.size() - 1);
    if (backup) ++res.backups_launched;
  };

  auto assign_free_nodes = [&](double now) {
    // Regular tasks first.
    while (!free_nodes.empty() && next_task < cfg.tasks) {
      const std::size_t node = free_nodes.back();
      free_nodes.pop_back();
      launch(next_task++, node, now, false);
    }
    if (!cfg.speculate) return;
    // Speculation: back up the running task with the largest remaining
    // time, if it exceeds the threshold and has no backup yet.
    while (!free_nodes.empty()) {
      std::size_t best_task = cfg.tasks;
      double best_remaining = LatePolicy::kThreshold * policy.median();
      for (std::size_t t = 0; t < cfg.tasks; ++t) {
        if (tasks[t].done || tasks[t].copies.empty()) continue;
        if (tasks[t].alive_copies(copies) != 1) continue;  // already backed up
        for (auto ci : tasks[t].copies) {
          if (!copies[ci].alive) continue;
          const double remaining = copies[ci].finish - now;
          if (remaining > best_remaining) {
            best_remaining = remaining;
            best_task = t;
          }
        }
      }
      if (best_task == cfg.tasks) break;  // nothing worth speculating
      const std::size_t node = free_nodes.back();
      free_nodes.pop_back();
      launch(best_task, node, now, true);
    }
  };

  assign_free_nodes(0.0);

  while (tasks_done < cfg.tasks) {
    if (pq.empty()) throw std::logic_error("speculation: deadlock");
    const std::size_t ci = pq.top();
    pq.pop();
    Copy& c = copies[ci];
    if (!c.alive) continue;  // killed while queued
    const double now = c.finish;
    c.alive = false;
    res.total_node_seconds += now - c.start;
    free_nodes.push_back(c.node);

    TaskState& task = tasks[c.task];
    if (!task.done) {
      task.done = true;
      ++tasks_done;
      policy.record(now - c.start);
      res.makespan = std::max(res.makespan, now);
      if (c.is_backup) ++res.backups_won;
      // Kill the losing sibling copy, freeing its node now.
      for (auto other : task.copies) {
        if (other == ci || !copies[other].alive) continue;
        copies[other].alive = false;
        res.total_node_seconds += now - copies[other].start;
        res.wasted_seconds += now - copies[other].start;
        free_nodes.push_back(copies[other].node);
      }
    }
    assign_free_nodes(now);
  }
  return res;
}

}  // namespace hpbdc::cluster
