// Undirected weighted graph for COP instances (Max-Cut, coloring, ...).
//
// Stored as an edge list with a CSR adjacency built at finalization; parallel
// edges merge by weight summation through a persistent (u,v) -> edge-slot
// hash index, so loading an m-edge file is O(m) rather than O(m^2).
// Self-loops are rejected (they are meaningless for every COP in this
// project).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace fecim::problems {

struct Edge {
  std::uint32_t u;
  std::uint32_t v;
  double weight;
};

class Graph {
 public:
  explicit Graph(std::size_t num_vertices);

  std::size_t num_vertices() const noexcept { return num_vertices_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }
  std::span<const Edge> edges() const noexcept { return edges_; }

  /// Add (or accumulate onto) the undirected edge {u, v}.  u != v.
  /// Returns the edge's accumulated weight.
  double add_edge(std::uint32_t u, std::uint32_t v, double weight = 1.0);

  /// Reserve room for `edges` distinct edges (a loader's header count), so
  /// the edge list and its hash index grow without rehashing.
  void reserve(std::size_t edges);

  bool has_edge(std::uint32_t u, std::uint32_t v) const;
  double edge_weight(std::uint32_t u, std::uint32_t v) const;

  double total_weight() const noexcept;
  /// Sum of |w| over edges -- an upper bound on any cut.
  double total_abs_weight() const noexcept;

  std::size_t degree(std::uint32_t v) const;
  double average_degree() const noexcept;

  /// Neighbors of v with weights, as parallel spans (valid until next
  /// add_edge).
  std::span<const std::uint32_t> neighbors(std::uint32_t v) const;
  std::span<const double> neighbor_weights(std::uint32_t v) const;

  /// True when the vertex set splits into two classes with all edges across
  /// (ignoring weights).  Used to certify toroidal instances' optimal cut.
  bool is_bipartite() const;

  /// Build the lazy adjacency cache now.  Every adjacency query builds it on
  /// first use, so a graph shared across threads must call this first or
  /// the concurrent first calls race on the cache.
  void build_adjacency() const;

 private:
  static std::uint64_t edge_key(std::uint32_t u, std::uint32_t v) noexcept {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  std::size_t num_vertices_;
  std::vector<Edge> edges_;
  // (u << 32 | v) with u < v -> index into edges_; makes parallel-edge
  // merging and has_edge/edge_weight O(1) instead of an O(m) list scan.
  std::unordered_map<std::uint64_t, std::size_t> edge_slot_;

  // Lazily built adjacency (mutable cache; rebuilt when edges change).
  mutable bool adjacency_valid_ = false;
  mutable std::vector<std::size_t> adj_ptr_;
  mutable std::vector<std::uint32_t> adj_idx_;
  mutable std::vector<double> adj_weight_;
};

}  // namespace fecim::problems
