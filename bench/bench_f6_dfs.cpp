// F6 — Distributed file system throughput (DESIGN.md extension): write
// throughput vs replication factor, read locality benefit, rack-aware vs
// random placement under rack failure, and re-replication cost. 16-node
// fat-tree, 64 MiB blocks, 200 MB/s disks. Expected shape: write throughput
// ~flat in R for multi-block files from one writer (writer-disk bound) but
// network bytes grow R-fold; local reads ~2x faster than cross-pod; rack-
// aware placement survives a full rack loss where same-rack placement
// would not.
//
// --json=FILE writes, per table row, every gauge Dfs::export_metrics and
// Network::export_metrics leave in a registry after that row's run,
// labelled with the table and the row.

#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "sim/dfs.hpp"

namespace {

using namespace hpbdc;
using namespace hpbdc::sim;

constexpr std::uint64_t MiB = 1ULL << 20;

NetworkConfig fat_tree_16() {
  NetworkConfig nc;
  nc.nodes = 16;
  nc.topology = Topology::kFatTree;
  nc.hosts_per_rack = 4;
  nc.racks_per_pod = 2;
  return nc;
}

/// One table row's sim-layer stats, from the registry, into the JSON.
void export_row(bench::JsonWriter& json, const Dfs& dfs, const Network& net,
                bench::JsonWriter::Labels labels) {
  obs::MetricsRegistry reg;
  dfs.export_metrics(reg);
  net.export_metrics(reg);
  json.registry(reg, labels);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonWriter json("f6_dfs", argc, argv);
  std::cout << "F6: DFS on a 16-node fat-tree (64 MiB blocks, 200 MB/s disks)\n\n";

  // --- write throughput vs replication ------------------------------------
  Table wt({"replication", "write 512 MiB (s)", "eff. MB/s", "network GB moved"});
  for (std::size_t r : {1, 2, 3}) {
    Simulator sim;
    Network net(sim, fat_tree_16());
    Comm comm(sim, net);
    DfsConfig cfg;
    cfg.replication = r;
    Dfs dfs(comm, cfg);
    double end = -1;
    dfs.write(0, "/bulk", 512 * MiB, [&](bool ok) {
      if (ok) end = sim.now();
    });
    sim.run();
    wt.row({std::to_string(r), Table::num(end, 2),
            Table::num(512.0 * MiB / 1e6 / end, 0),
            Table::num(static_cast<double>(net.stats().bytes) / 1e9, 2)});
    export_row(json, dfs, net, {{"table", "write"}, {"replication", std::to_string(r)}});
  }
  wt.print(std::cout);

  // --- read locality --------------------------------------------------------
  std::cout << "\nread locality (64 MiB file written at node 0):\n\n";
  Table rt({"reader", "distance", "read (s)"});
  struct Reader {
    std::size_t node;
    const char* label;
  };
  for (const auto& rd : {Reader{0, "same node (local)"}, Reader{1, "same rack"},
                         Reader{4, "same pod"}, Reader{12, "cross pod"}}) {
    Simulator sim;
    Network net(sim, fat_tree_16());
    Comm comm(sim, net);
    Dfs dfs(comm, DfsConfig{});
    dfs.write(0, "/f", 64 * MiB, [](bool) {});
    sim.run();
    const double start = sim.now();
    double end = -1;
    dfs.read(rd.node, "/f", [&](bool ok) {
      if (ok) end = sim.now();
    });
    sim.run();
    rt.row({std::to_string(rd.node), rd.label, Table::num(end - start, 3)});
    export_row(json, dfs, net, {{"table", "read_locality"}, {"reader", std::to_string(rd.node)}});
  }
  rt.print(std::cout);

  // --- rack failure survival ------------------------------------------------
  std::cout << "\nrack-failure drill: write 20 files, kill rack 0 (nodes 0-3), "
               "read from node 15:\n\n";
  Table ft({"placement", "files readable", "after re-replication"});
  for (bool rack_aware : {true, false}) {
    Simulator sim;
    Network net(sim, fat_tree_16());
    Comm comm(sim, net);
    DfsConfig cfg;
    cfg.rack_aware = rack_aware;
    Dfs dfs(comm, cfg);
    for (int i = 0; i < 20; ++i) {
      dfs.write(0, "/f" + std::to_string(i), 64 * MiB, [](bool) {});
    }
    sim.run();
    for (std::size_t n = 0; n < 4; ++n) dfs.fail_node(n);
    int readable = 0;
    for (int i = 0; i < 20; ++i) {
      dfs.read(15, "/f" + std::to_string(i), [&readable](bool ok) { readable += ok; });
    }
    sim.run();
    dfs.re_replicate([] {});
    sim.run();
    int after = 0;
    for (int i = 0; i < 20; ++i) {
      dfs.read(15, "/f" + std::to_string(i), [&after](bool ok) { after += ok; });
    }
    sim.run();
    ft.row({rack_aware ? "rack-aware" : "random", std::to_string(readable) + "/20",
            std::to_string(after) + "/20"});
    export_row(json, dfs, net,
               {{"table", "rack_failure"}, {"placement", rack_aware ? "rack_aware" : "random"}});
  }
  ft.print(std::cout);
  std::cout << "\nexpected shape: rack-aware placement keeps every file "
               "readable through a rack loss (replicas 2+3 are off-rack by "
               "construction); random placement usually survives too on this "
               "small cluster but without the guarantee; re-replication "
               "restores R=3 either way.\n";
  return 0;
}
