#include "algos/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace hpbdc::algos {

std::vector<Edge> erdos_renyi(NodeId nodes, std::size_t edges, Rng& rng) {
  if (nodes < 2) throw std::invalid_argument("erdos_renyi: need >= 2 nodes");
  std::vector<Edge> out;
  out.reserve(edges);
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(nodes));
    auto v = static_cast<NodeId>(rng.next_below(nodes - 1));
    if (v >= u) ++v;  // skip self-loop without rejection
    out.push_back(Edge{u, v});
  }
  return out;
}

std::vector<Edge> rmat(NodeId nodes, std::size_t edges, Rng& rng) {
  // Quadrant probabilities; the bottom-right one is 1 - a - b - c.
  constexpr double a = 0.57, b = 0.19, c = 0.19;
  if (nodes == 0 || (nodes & (nodes - 1)) != 0) {
    throw std::invalid_argument("rmat: nodes must be a power of two");
  }
  int scale = 0;
  for (NodeId n = nodes; n > 1; n >>= 1) ++scale;

  std::vector<Edge> out;
  out.reserve(edges);
  for (std::size_t i = 0; i < edges; ++i) {
    NodeId u = 0, v = 0;
    for (int bit = scale - 1; bit >= 0; --bit) {
      const double r = rng.next_double();
      if (r < a) {
        // top-left: no bits set
      } else if (r < a + b) {
        v |= (1u << bit);
      } else if (r < a + b + c) {
        u |= (1u << bit);
      } else {
        u |= (1u << bit);
        v |= (1u << bit);
      }
    }
    if (u == v) v = (v + 1) & (nodes - 1);  // drop self-loops
    out.push_back(Edge{u, v});
  }
  return out;
}

Csr::Csr(NodeId nodes, const std::vector<Edge>& edges)
    : nodes_(nodes), offset_(static_cast<std::size_t>(nodes) + 1, 0) {
  for (const auto& e : edges) {
    if (e.src >= nodes || e.dst >= nodes) throw std::out_of_range("Csr: edge endpoint");
    ++offset_[e.src + 1];
  }
  for (std::size_t i = 1; i < offset_.size(); ++i) offset_[i] += offset_[i - 1];
  adj_.resize(edges.size());
  std::vector<std::size_t> cursor(offset_.begin(), offset_.end() - 1);
  for (const auto& e : edges) adj_[cursor[e.src]++] = e.dst;
  // Sort each adjacency list: required by the triangle-counting merge.
  for (NodeId u = 0; u < nodes_; ++u) {
    std::sort(adj_.begin() + static_cast<std::ptrdiff_t>(offset_[u]),
              adj_.begin() + static_cast<std::ptrdiff_t>(offset_[u + 1]));
  }
}

}  // namespace hpbdc::algos
