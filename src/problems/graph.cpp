#include "problems/graph.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/assert.hpp"

namespace fecim::problems {

Graph::Graph(std::size_t num_vertices) : num_vertices_(num_vertices) {
  FECIM_EXPECTS(num_vertices > 0);
}

double Graph::add_edge(std::uint32_t u, std::uint32_t v, double weight) {
  FECIM_EXPECTS(u < num_vertices_ && v < num_vertices_);
  FECIM_EXPECTS(u != v);
  if (u > v) std::swap(u, v);
  // Merge parallel edges by weight accumulation.
  const auto [it, inserted] = edge_slot_.try_emplace(edge_key(u, v),
                                                     edges_.size());
  if (inserted)
    edges_.push_back({u, v, weight});
  else
    edges_[it->second].weight += weight;
  adjacency_valid_ = false;
  return edges_[it->second].weight;
}

void Graph::reserve(std::size_t edges) {
  edges_.reserve(edges);
  edge_slot_.reserve(edges);
}

bool Graph::has_edge(std::uint32_t u, std::uint32_t v) const {
  if (u > v) std::swap(u, v);
  return edge_slot_.contains(edge_key(u, v));
}

double Graph::edge_weight(std::uint32_t u, std::uint32_t v) const {
  if (u > v) std::swap(u, v);
  const auto it = edge_slot_.find(edge_key(u, v));
  return it == edge_slot_.end() ? 0.0 : edges_[it->second].weight;
}

double Graph::total_weight() const noexcept {
  double sum = 0.0;
  for (const auto& e : edges_) sum += e.weight;
  return sum;
}

double Graph::total_abs_weight() const noexcept {
  double sum = 0.0;
  for (const auto& e : edges_) sum += std::fabs(e.weight);
  return sum;
}

std::size_t Graph::degree(std::uint32_t v) const {
  build_adjacency();
  FECIM_EXPECTS(v < num_vertices_);
  return adj_ptr_[v + 1] - adj_ptr_[v];
}

double Graph::average_degree() const noexcept {
  return 2.0 * static_cast<double>(edges_.size()) /
         static_cast<double>(num_vertices_);
}

std::span<const std::uint32_t> Graph::neighbors(std::uint32_t v) const {
  build_adjacency();
  FECIM_EXPECTS(v < num_vertices_);
  return {adj_idx_.data() + adj_ptr_[v], adj_ptr_[v + 1] - adj_ptr_[v]};
}

std::span<const double> Graph::neighbor_weights(std::uint32_t v) const {
  build_adjacency();
  FECIM_EXPECTS(v < num_vertices_);
  return {adj_weight_.data() + adj_ptr_[v], adj_ptr_[v + 1] - adj_ptr_[v]};
}

bool Graph::is_bipartite() const {
  build_adjacency();
  std::vector<int> color(num_vertices_, -1);
  std::queue<std::uint32_t> frontier;
  for (std::uint32_t start = 0; start < num_vertices_; ++start) {
    if (color[start] != -1) continue;
    color[start] = 0;
    frontier.push(start);
    while (!frontier.empty()) {
      const auto v = frontier.front();
      frontier.pop();
      for (const auto w : neighbors(v)) {
        if (color[w] == -1) {
          color[w] = 1 - color[v];
          frontier.push(w);
        } else if (color[w] == color[v]) {
          return false;
        }
      }
    }
  }
  return true;
}

void Graph::build_adjacency() const {
  if (adjacency_valid_) return;
  adj_ptr_.assign(num_vertices_ + 1, 0);
  for (const auto& e : edges_) {
    ++adj_ptr_[e.u + 1];
    ++adj_ptr_[e.v + 1];
  }
  for (std::size_t v = 0; v < num_vertices_; ++v) adj_ptr_[v + 1] += adj_ptr_[v];
  adj_idx_.resize(2 * edges_.size());
  adj_weight_.resize(2 * edges_.size());
  std::vector<std::size_t> cursor(adj_ptr_.begin(), adj_ptr_.end() - 1);
  for (const auto& e : edges_) {
    adj_idx_[cursor[e.u]] = e.v;
    adj_weight_[cursor[e.u]++] = e.weight;
    adj_idx_[cursor[e.v]] = e.u;
    adj_weight_[cursor[e.v]++] = e.weight;
  }
  adjacency_valid_ = true;
}

}  // namespace fecim::problems
