#include "problems/maxcut.hpp"

#include <algorithm>
#include <cmath>

#include "problems/multistart.hpp"
#include "util/assert.hpp"

namespace fecim::problems {

ising::IsingModel maxcut_to_ising(const Graph& graph) {
  const std::size_t n = graph.num_vertices();
  linalg::CsrMatrix::Builder builder(n, n);
  for (const auto& e : graph.edges())
    builder.add_symmetric(e.u, e.v, e.weight / 2.0);
  return ising::IsingModel(builder.build());
}

double cut_value(const Graph& graph, std::span<const ising::Spin> spins) {
  FECIM_EXPECTS(spins.size() == graph.num_vertices());
  // Branch-free on the (random) spin signs: adding +0.0 for an uncut edge
  // is exact, because `cut` starts at +0.0 and a sum with +0.0 can never
  // produce -0.0, so the total equals the skip-uncut-edges sum bit for bit.
  double cut = 0.0;
  for (const auto& e : graph.edges())
    cut += spins[e.u] != spins[e.v] ? e.weight : 0.0;
  return cut;
}

double cut_from_energy(const Graph& graph, double energy) {
  return (graph.total_weight() - energy) / 2.0;
}

ExactCut brute_force_max_cut(const Graph& graph) {
  const std::size_t n = graph.num_vertices();
  FECIM_EXPECTS(n <= 24);
  // Spin 0 can be pinned: cut(sigma) == cut(-sigma).
  const std::uint64_t combos = std::uint64_t{1} << (n - 1);
  ExactCut best{ising::spins_from_bits(0, n), 0.0};
  best.cut = cut_value(graph, best.spins);
  for (std::uint64_t bits = 0; bits < combos; ++bits) {
    const auto spins = ising::spins_from_bits(bits << 1, n);
    const double cut = cut_value(graph, spins);
    if (cut > best.cut) {
      best.cut = cut;
      best.spins = spins;
    }
  }
  return best;
}

double local_search_1opt(const Graph& graph, ising::SpinVector& spins,
                         std::size_t max_passes) {
  const std::size_t n = graph.num_vertices();
  FECIM_EXPECTS(spins.size() == n);

  // gain[v] = cut increase from flipping v
  //         = sum_{u ~ v} w_uv * (same_side ? +1 : -1)
  //         = sum_{u ~ v} (s_u * s_v) * w_uv.
  // The sign products are exact +-1 (and +-2 below), so multiplying by them
  // equals the conditional negation bit for bit -- signed zeros included --
  // without a branch on the random spin signs.
  std::vector<double> gain(n, 0.0);
  for (const auto& e : graph.edges()) {
    const double signed_w =
        static_cast<double>(spins[e.u] * spins[e.v]) * e.weight;
    gain[e.u] += signed_w;
    gain[e.v] += signed_w;
  }

  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (gain[v] <= 1e-12) continue;
      improved = true;
      spins[v] = static_cast<ising::Spin>(-spins[v]);
      gain[v] = -gain[v];
      const auto nbrs = graph.neighbors(v);
      const auto weights = graph.neighbor_weights(v);
      const double two_sv = 2.0 * spins[v];
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const auto u = nbrs[k];
        // Edge u-v changed sides: the u gain shifts by +2w when u and v now
        // share a side, else by -2w.
        gain[u] += (two_sv * spins[u]) * weights[k];
      }
    }
    if (!improved) break;
  }
  return cut_value(graph, spins);
}

double reference_cut(const Graph& graph, std::size_t restarts,
                     std::uint64_t seed) {
  // Certified optimum for the toroidal family: bipartite graph with
  // non-negative weights cuts every edge.
  bool all_positive = true;
  for (const auto& e : graph.edges())
    if (e.weight < 0.0) {
      all_positive = false;
      break;
    }
  if (all_positive && graph.is_bipartite()) return graph.total_weight();

  // The descents share the graph across threads: build its lazy adjacency
  // first, or concurrent neighbors() calls would race on the cache.
  graph.build_adjacency();
  // Floored at 0: the empty cut is always available.
  return std::max(0.0, best_of_random_restarts(
                           graph.num_vertices(), restarts, seed, true,
                           [&](ising::SpinVector& spins) {
                             return local_search_1opt(graph, spins);
                           }));
}

}  // namespace fecim::problems
