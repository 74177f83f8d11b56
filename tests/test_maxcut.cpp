// Max-Cut mapping identities, brute force, local search, reference cuts.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "problems/generators.hpp"
#include "problems/maxcut.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace fecim::problems;

TEST(MaxCut, CutValueCountsCrossingWeights) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  const fecim::ising::SpinVector spins{1, -1, -1, 1};
  // crossing: (0,1) and (2,3) -> 1 + 3
  EXPECT_DOUBLE_EQ(cut_value(g, spins), 4.0);
}

class CutEnergyIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CutEnergyIdentity, CutEqualsWMinusEnergyOverTwo) {
  fecim::util::Rng rng(GetParam());
  const auto g = random_graph(40, 6.0, WeightScheme::kPlusMinusOne, GetParam());
  const auto model = maxcut_to_ising(g);
  for (int trial = 0; trial < 40; ++trial) {
    const auto spins = fecim::ising::random_spins(40, rng);
    EXPECT_NEAR(cut_value(g, spins),
                cut_from_energy(g, model.energy(spins)), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutEnergyIdentity,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(MaxCut, GroundStateIsMaximumCut) {
  fecim::util::Rng rng(9);
  const auto g = random_graph(14, 4.0, WeightScheme::kUnit, 9);
  const auto model = maxcut_to_ising(g);
  const auto exact = brute_force_max_cut(g);
  const auto [spins, energy] = model.brute_force_ground_state();
  EXPECT_NEAR(cut_from_energy(g, energy), exact.cut, 1e-9);
}

TEST(MaxCut, BruteForceKnownGraphs) {
  // Even cycle: perfect cut of all edges.
  Graph cycle(6);
  for (std::uint32_t i = 0; i < 6; ++i) cycle.add_edge(i, (i + 1) % 6);
  EXPECT_DOUBLE_EQ(brute_force_max_cut(cycle).cut, 6.0);

  // Triangle: best cut is 2 of 3 edges.
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(brute_force_max_cut(triangle).cut, 2.0);

  // Complete bipartite K_{2,3}: all 6 edges cut.
  Graph k23(5);
  for (std::uint32_t a = 0; a < 2; ++a)
    for (std::uint32_t b = 2; b < 5; ++b) k23.add_edge(a, b);
  EXPECT_DOUBLE_EQ(brute_force_max_cut(k23).cut, 6.0);
}

TEST(MaxCut, LocalSearchImprovesAndTerminatesAt1Opt) {
  fecim::util::Rng rng(11);
  const auto g = random_graph(120, 8.0, WeightScheme::kUnit, 11);
  auto spins = fecim::ising::random_spins(120, rng);
  const double before = cut_value(g, spins);
  const double after = local_search_1opt(g, spins);
  EXPECT_GE(after, before);
  EXPECT_DOUBLE_EQ(after, cut_value(g, spins));
  // 1-opt local optimality: no single flip improves.
  for (std::uint32_t v = 0; v < 120; ++v) {
    auto flipped = spins;
    flipped[v] = static_cast<fecim::ising::Spin>(-flipped[v]);
    EXPECT_LE(cut_value(g, flipped), after + 1e-9);
  }
}

TEST(MaxCut, LocalSearchReachesOptimumOnSmallGraphs) {
  fecim::util::Rng rng(13);
  const auto g = random_graph(12, 3.0, WeightScheme::kUnit, 13);
  const auto exact = brute_force_max_cut(g);
  double best = 0.0;
  for (int restart = 0; restart < 30; ++restart) {
    auto spins = fecim::ising::random_spins(12, rng);
    best = std::max(best, local_search_1opt(g, spins));
  }
  EXPECT_DOUBLE_EQ(best, exact.cut);
}

TEST(MaxCut, ReferenceCutCertifiedForBipartiteUnitGraphs) {
  const auto g = toroidal_grid(10, 12, WeightScheme::kUnit, 3);
  // Bipartite with non-negative weights: optimum cuts every edge, no
  // restarts needed.
  EXPECT_DOUBLE_EQ(reference_cut(g, 1, 1), g.total_weight());
}

TEST(MaxCut, ReferenceCutBoundsBruteForce) {
  const auto g = random_graph(14, 4.0, WeightScheme::kUnit, 21);
  const auto exact = brute_force_max_cut(g);
  const double reference = reference_cut(g, 40, 21);
  EXPECT_LE(reference, exact.cut + 1e-9);
  EXPECT_GE(reference, 0.9 * exact.cut);  // 40 restarts on 14 nodes: tight
}

TEST(MaxCut, ReferenceCutIsIdenticalOnPoolNestedAndSerial) {
  // Signed real weights: all_positive is false, so is_bipartite() never
  // pre-builds the adjacency and reference_cut must build it itself before
  // fanning the restarts out.
  Graph g(120);
  fecim::util::Rng rng(17);
  for (int k = 0; k < 480; ++k) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(120));
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(120));
    if (u != v) g.add_edge(u, v, rng.uniform(-1.0, 1.0));
  }
  const double pooled = reference_cut(g, 16, 99);
  double nested[2] = {0.0, 0.0};
  fecim::util::parallel_for(
      2, [&](std::size_t i) { nested[i] = reference_cut(g, 16, 99); }, 2);
  // The serial restart loop's value before the restarts were fanned out.
  constexpr double kSerial = 0x1.1462b38df3bacp+6;  // 69.0963880710612
  EXPECT_EQ(pooled, kSerial);
  EXPECT_EQ(nested[0], kSerial);
  EXPECT_EQ(nested[1], kSerial);
}

// The 1-opt descent and cut as they were before their sign branches became
// sign arithmetic; the library forms must match them bit for bit.
double branchy_cut_value(const Graph& graph,
                         std::span<const fecim::ising::Spin> spins) {
  double cut = 0.0;
  for (const auto& e : graph.edges())
    if (spins[e.u] != spins[e.v]) cut += e.weight;
  return cut;
}

double branchy_local_search_1opt(const Graph& graph,
                                 fecim::ising::SpinVector& spins) {
  const std::size_t n = graph.num_vertices();
  std::vector<double> gain(n, 0.0);
  for (const auto& e : graph.edges()) {
    const double signed_w = spins[e.u] == spins[e.v] ? e.weight : -e.weight;
    gain[e.u] += signed_w;
    gain[e.v] += signed_w;
  }
  for (std::size_t pass = 0; pass < 200; ++pass) {
    bool improved = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (gain[v] <= 1e-12) continue;
      improved = true;
      spins[v] = static_cast<fecim::ising::Spin>(-spins[v]);
      gain[v] = -gain[v];
      const auto nbrs = graph.neighbors(v);
      const auto weights = graph.neighbor_weights(v);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const auto u = nbrs[k];
        gain[u] += spins[u] == spins[v] ? 2.0 * weights[k] : -2.0 * weights[k];
      }
    }
    if (!improved) break;
  }
  return branchy_cut_value(graph, spins);
}

/// Runs both forms from the same random starts; spins and cuts must agree
/// exactly (cuts compared as bit patterns, so a -0.0 would show).
void expect_descent_identity(const Graph& graph, std::uint64_t seed,
                             int starts) {
  graph.build_adjacency();
  fecim::util::Rng rng(seed);
  for (int s = 0; s < starts; ++s) {
    fecim::ising::SpinVector spins(graph.num_vertices());
    for (auto& spin : spins) spin = static_cast<fecim::ising::Spin>(rng.spin());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cut_value(graph, spins)),
              std::bit_cast<std::uint64_t>(branchy_cut_value(graph, spins)));
    auto branchy = spins;
    const double cut = local_search_1opt(graph, spins);
    const double branchy_cut = branchy_local_search_1opt(graph, branchy);
    ASSERT_EQ(spins, branchy) << "seed " << seed << " start " << s;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cut),
              std::bit_cast<std::uint64_t>(branchy_cut))
        << "seed " << seed << " start " << s;
  }
}

TEST(MaxCut, BranchFreeDescentMatchesBranchyForm) {
  // Weight classes: unit, +-1, fractional signed, signed zeros mixed with
  // units and halves, and 1e-300-scale values.
  auto weight = [](int scheme, fecim::util::Rng& rng) {
    switch (scheme) {
      case 0: return 1.0;
      case 1: return rng.bernoulli(0.5) ? 1.0 : -1.0;
      case 2: return rng.uniform(-1.0, 1.0);
      case 3: {
        constexpr double kValues[] = {0.0, -0.0, 1.0, -1.0, 0.5};
        return kValues[rng.uniform_index(5)];
      }
      default: return rng.uniform(-1.0, 1.0) * 1e-300;
    }
  };
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const auto n = static_cast<std::uint32_t>(6 + seed % 97);
    const int scheme = static_cast<int>(seed % 5);
    fecim::util::Rng rng(seed);
    Graph g(n);
    for (std::uint32_t k = 0; k < 3 * n; ++k) {
      const auto u = static_cast<std::uint32_t>(rng.uniform_index(n));
      const auto v = static_cast<std::uint32_t>(rng.uniform_index(n));
      if (u != v) g.add_edge(u, v, weight(scheme, rng));
    }
    expect_descent_identity(g, seed, 2);
  }
  // The serve stream's instance shapes.
  expect_descent_identity(gset_like_instance(800, 7), 141, 3);
  expect_descent_identity(gset_like_instance(1000, 7), 142, 3);
}

TEST(MaxCut, IsingModelHasHalfWeightCouplings) {
  Graph g(3);
  g.add_edge(0, 1, 3.0);
  const auto model = maxcut_to_ising(g);
  EXPECT_DOUBLE_EQ(model.couplings().at(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(model.couplings().at(1, 0), 1.5);
  EXPECT_FALSE(model.has_fields());
}

}  // namespace
