#pragma once
// Graph workloads and representations: Erdős–Rényi and R-MAT generators
// (deterministic from a seed), plus a CSR build used by the shared-memory
// algorithms (triangle counting) and as the baseline representation for
// PageRank.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace hpbdc::algos {

using NodeId = std::uint32_t;

struct Edge {
  NodeId src = 0;
  NodeId dst = 0;
  bool operator==(const Edge&) const = default;
};

/// G(n, m)-style Erdős–Rényi: m directed edges drawn uniformly (self-loops
/// excluded, duplicates possible, as in typical big-data graph inputs).
std::vector<Edge> erdos_renyi(NodeId nodes, std::size_t edges, Rng& rng);

/// R-MAT (Chakrabarti et al.): recursive quadrant sampling yields a
/// power-law degree distribution. nodes must be a power of two.
std::vector<Edge> rmat(NodeId nodes, std::size_t edges, Rng& rng);

/// Compressed sparse row adjacency (out-edges).
class Csr {
 public:
  Csr(NodeId nodes, const std::vector<Edge>& edges);

  NodeId nodes() const noexcept { return nodes_; }
  std::size_t edges() const noexcept { return adj_.size(); }

  /// Out-neighbours of u.
  std::pair<const NodeId*, const NodeId*> neighbours(NodeId u) const noexcept {
    return {adj_.data() + offset_[u], adj_.data() + offset_[u + 1]};
  }
  std::size_t out_degree(NodeId u) const noexcept {
    return offset_[u + 1] - offset_[u];
  }

 private:
  NodeId nodes_;
  std::vector<std::size_t> offset_;
  std::vector<NodeId> adj_;
};

}  // namespace hpbdc::algos
