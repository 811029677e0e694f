#pragma once
// Consistent-hash ring with virtual nodes (Karger-style). Keys and nodes
// hash onto a 64-bit ring; a key is owned by the first vnode clockwise.
// lookup_n returns the next n *distinct* physical nodes — a replica set;
// walk() visits them one at a time for the Dfs shard placement. Virtual
// nodes smooth key distribution: with v vnodes per node the load imbalance
// is O(sqrt(log n / v)).

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"

namespace hpbdc::storage {

class HashRing {
 public:
  explicit HashRing(std::size_t vnodes_per_node = 64) : vnodes_(vnodes_per_node) {
    if (vnodes_ == 0) throw std::invalid_argument("HashRing: vnodes must be >= 1");
  }

  void add_node(std::uint64_t node_id) {
    if (!nodes_.insert(node_id).second) {
      throw std::invalid_argument("HashRing: duplicate node");
    }
    for (std::size_t v = 0; v < vnodes_; ++v) {
      ring_.emplace(vnode_hash(node_id, v), node_id);
    }
  }

  void remove_node(std::uint64_t node_id) {
    if (nodes_.erase(node_id) == 0) {
      throw std::invalid_argument("HashRing: unknown node");
    }
    for (std::size_t v = 0; v < vnodes_; ++v) {
      ring_.erase(vnode_hash(node_id, v));
    }
  }

  bool contains(std::uint64_t node_id) const noexcept { return nodes_.contains(node_id); }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Owner of the given key hash.
  std::uint64_t lookup_hash(std::uint64_t key_hash) const {
    if (ring_.empty()) throw std::logic_error("HashRing: empty ring");
    auto it = ring_.lower_bound(key_hash);
    if (it == ring_.end()) it = ring_.begin();  // wrap
    return it->second;
  }

  std::uint64_t lookup(std::string_view key) const { return lookup_hash(hash_str(key)); }

  /// First n distinct nodes clockwise from the key — the replica set.
  /// n is clamped to the number of physical nodes.
  std::vector<std::uint64_t> lookup_n(std::string_view key, std::size_t n) const {
    if (ring_.empty()) throw std::logic_error("HashRing: empty ring");
    n = std::min(n, nodes_.size());
    std::vector<std::uint64_t> out;
    out.reserve(n);
    auto it = ring_.lower_bound(hash_str(key));
    while (out.size() < n) {
      if (it == ring_.end()) it = ring_.begin();
      if (std::find(out.begin(), out.end(), it->second) == out.end()) {
        out.push_back(it->second);
      }
      ++it;
    }
    return out;
  }

  /// Visit every distinct physical node clockwise from the key's ring
  /// position, in ring order, until `visit` returns false or the ring is
  /// exhausted. The generalization of lookup_n that placement policies with
  /// per-node constraints (e.g. the DFS rack-aware shard anti-affinity)
  /// build on: a caller can skip a node and keep walking.
  template <typename Visitor>
  void walk(std::string_view key, Visitor&& visit) const {
    if (ring_.empty()) throw std::logic_error("HashRing: empty ring");
    auto it = ring_.lower_bound(hash_str(key));
    std::set<std::uint64_t> seen;
    while (seen.size() < nodes_.size()) {
      if (it == ring_.end()) it = ring_.begin();
      if (seen.insert(it->second).second && !visit(it->second)) return;
      ++it;
    }
  }

 private:
  static std::uint64_t vnode_hash(std::uint64_t node_id, std::size_t vnode) {
    return hash_combine(hash_u64(node_id), hash_u64(vnode + 0x5bd1e995));
  }

  std::size_t vnodes_;
  std::map<std::uint64_t, std::uint64_t> ring_;  // position -> node id
  std::set<std::uint64_t> nodes_;
};

}  // namespace hpbdc::storage
